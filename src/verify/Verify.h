//===- verify/Verify.h - Translation validation passes ---------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Independent static re-checking of the pipeline's legality decisions, in
/// the translation-validation spirit: each pass re-derives the facts a
/// phase relied on from primary sources and reports any divergence as a
/// finding instead of trusting the phase. The passes, in pipeline order:
///
///  1. verifyStructure    — the IR is in normal form (regions non-empty
///     and rectangular, offsets consistent with declared ranks) and the
///     ASDG is structurally sound (edges respect program order, hence
///     acyclic; every labeled UDV is re-derivable as some source access
///     offset minus some target access offset of the right kind).
///  2. verifyDependences  — a from-scratch dependence oracle recomputes
///     every flow/anti/output dependence of the program and diffs the
///     result against the ASDG's edges; a missing or spurious edge or
///     label is a hard error.
///  3. verifyStrategy     — re-proves each fusion cluster of a
///     StrategyResult against Definition 5 and each contracted array
///     against Definition 6, from the oracle's dependences rather than
///     the graph the strategy consumed.
///  4. verifyParallelSafety — a UDV-based static race detector: certifies,
///     from the scalarized bodies themselves, that every loop nest the
///     ParallelExecutor will run in parallel has no cross-iteration
///     conflict on the partitioned loop.
///  5. verifySafety       — a memory-safety abstract interpreter over the
///     scalarized loop nests: symbolic interval bounds proofs for every
///     load and store, a use-before-definition dataflow over temporaries
///     and contracted accumulators, and a cross-check that distinct
///     clusters' write footprints do not overlap unordered by the ASDG.
///
/// The frontend lint (`zplc --lint`) lives in verify/Lint.h.
///
/// Passes never abort: they return a VerifyReport and leave the policy to
/// the caller. driver::Pipeline::tryCompile reports a rejection as a
/// structured CompileStatus (how zplc, alfd and the tools see it); its
/// other entry points abort unless PipelineOptions::OnVerifyError, which
/// only tests set, collects the findings instead.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_VERIFY_VERIFY_H
#define ALF_VERIFY_VERIFY_H

#include "analysis/ASDG.h"
#include "exec/ParallelExecutor.h"
#include "ir/Program.h"
#include "scalarize/LoopIR.h"
#include "xform/Strategy.h"

#include <optional>
#include <string>
#include <vector>

namespace alf {
namespace verify {

/// How much re-checking the pipeline performs.
///
///  * Off        — trust every phase (measurement runs).
///  * Structural — pass 1 after each ASDG build: cheap, O(edges).
///  * Full       — passes 1-3 after analysis and strategy selection, and
///    the race detector before every parallel execution.
///  * Safety     — everything Full runs, plus the memory-safety checker
///    (pass 5) over every scalarized program before it can execute.
enum class VerifyLevel { Off, Structural, Full, Safety };

/// Printable name ("off", "structural", "full", "safety").
const char *getVerifyLevelName(VerifyLevel L);

/// Looks up a level by its printable name; nullopt when unknown.
std::optional<VerifyLevel> verifyLevelNamed(const std::string &Name);

/// The level pipelines start from when the caller does not choose one:
/// the ALF_VERIFY environment variable when set to a valid level name,
/// otherwise VerifyLevel::Structural. ctest exports ALF_VERIFY=full so
/// every test-suite compilation runs fully certified.
VerifyLevel defaultVerifyLevel();

/// One verification failure: which pass rejected, and a one-line message.
struct VerifyFinding {
  std::string Pass;    ///< "structure", "dependence-oracle", ...
  std::string Message; ///< one line, no trailing newline

  /// Renders as "[pass] message".
  std::string str() const;
};

/// The outcome of one or more passes; empty means certified.
struct VerifyReport {
  std::vector<VerifyFinding> Findings;

  bool ok() const { return Findings.empty(); }

  void add(std::string Pass, std::string Message) {
    Findings.push_back(VerifyFinding{std::move(Pass), std::move(Message)});
  }

  /// Moves \p Other's findings onto the end of this report.
  void take(VerifyReport Other);

  /// All findings, one per line.
  std::string str() const;
};

/// Pass 1: structural validation of the program (and of \p G when
/// non-null). See the file comment for the exact properties checked.
VerifyReport verifyStructure(const ir::Program &P,
                             const analysis::ASDG *G = nullptr);

/// Pass 2: re-derives the full dependence set of G's program from scratch
/// and reports every edge or label present in exactly one of the two.
VerifyReport verifyDependences(const analysis::ASDG &G);

/// Pass 3: re-proves \p SR's fusion partition (Definition 5) and
/// contraction set (Definition 6) against dependences the oracle derives
/// from the program itself.
VerifyReport verifyStrategy(const analysis::ASDG &G,
                            const xform::StrategyResult &SR);

/// Race detector: proves, for every nest \p Sched runs in parallel, that
/// no two iterations of the parallel loop touch the same array element
/// with at least one write, that no reduction accumulates in parallel,
/// and that no rolling buffer wraps along the parallel dimension. The
/// distances are re-derived from the scalarized bodies, not taken from
/// the nests' recorded UDVs.
VerifyReport verifyParallelSafety(const lir::LoopProgram &LP,
                                  const exec::ParallelSchedule &Sched);

/// Pass 5: memory-safety proof over the scalarized form. Three sub-passes,
/// each reported under its own name so callers can distinguish safety
/// findings from legality findings:
///
///  * "safety-bounds"  — for every load and store of every loop nest, the
///    accessed interval (nest region + reference offset, with
///    partial-contraction wrapping applied) is proved to lie inside the
///    array's allocated extents, re-derived from the source program's
///    footprint. The proof is symbolic in the region bounds wherever
///    possible, so it holds for every instantiation of the extents.
///  * "safety-init"    — a use-before-definition dataflow: every read of a
///    contracted scalar is dominated by a write in body order (the
///    ⊕-identity accumulator init from the semiring table counts), every
///    accumulation has its init, and no nest reads an array that is
///    neither live-in nor written earlier in nest order; each live-out
///    array's writes must still cover the source program's write
///    footprint (a truncated copy-out region fails here).
///  * "safety-overlap" — when \p G is supplied, two nests from distinct
///    clusters whose write footprints on the same array overlap must be
///    ordered by an ASDG dependence path between their clusters.
VerifyReport verifySafety(const lir::LoopProgram &LP,
                          const analysis::ASDG *G = nullptr);

} // namespace verify
} // namespace alf

#endif // ALF_VERIFY_VERIFY_H

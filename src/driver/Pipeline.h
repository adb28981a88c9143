//===- driver/Pipeline.h - End-to-end compilation facade -------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One front door for the whole ALF chain. A Pipeline wraps one
/// ir::Program and is the only place its normal form is built: prepare()
/// aligns target offsets to zero and splits statements that read and
/// write the same array (the paper's section 2.1), then inserts
/// array-level exchanges under the favor-communication policy. The ASDG
/// is built once from that program and serves any number of strategies
/// and execution modes:
///
///   driver::Pipeline PL(*P);
///   driver::CompileStatus St =
///       PL.tryCompile({Strategy::C2, ExecMode::NativeJit});
///   if (!St.ok())
///     return fail(St.Message);
///   exec::RunResult Res = St.Artifact->run(Seed);
///
/// tryCompile is the one compile entry and the one failure policy. It
/// makes every decision once — partition, contraction, the parallel
/// schedule, the JIT kernel — and returns a CompiledProgram whose run()
/// is the library's one way to execute, or a status naming why not.
/// Nothing the pipeline does aborts on a rejected proof. JIT kernels come
/// from the process-wide exec::sharedJitEngine, so a sweep over
/// strategies and seeds pays each kernel compile once.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_DRIVER_PIPELINE_H
#define ALF_DRIVER_PIPELINE_H

#include "analysis/ASDG.h"
#include "exec/NativeJit.h"
#include "exec/ParallelExecutor.h"
#include "ir/Program.h"
#include "scalarize/LoopIR.h"
#include "verify/Verify.h"
#include "xform/Strategy.h"

#include <optional>

namespace alf {
namespace driver {

/// Where (and whether) communication is inserted, mirroring the paper's
/// section 5.5 policies.
enum class CommPolicy {
  None,       ///< Single address space; no exchanges.
  LoopLevel,  ///< Favor fusion: CommOps inserted after scalarization.
  ArrayLevel, ///< Favor comm: CommStmts inserted before the ASDG is built.
};

/// Configuration of one Pipeline.
struct PipelineOptions {
  /// Under CommPolicy::ArrayLevel, exchanges are split into hoisted
  /// send/recv pairs for overlap.
  CommPolicy Comm = CommPolicy::None;

  /// Thread count etc. for ExecMode::Parallel.
  exec::ParallelOptions Parallel;

  /// Compiler, flags and cache directory for ExecMode::NativeJit.
  exec::JitOptions Jit;

  /// How much translation validation the pipeline performs as it works:
  /// Structural re-checks the IR and graph after every ASDG build; Full
  /// additionally diffs the dependence oracle, re-proves every strategy
  /// result against Definitions 5 and 6, and race-checks every parallel
  /// schedule before running it; Safety additionally runs the
  /// memory-safety checker over every scalarized program (tryCompile
  /// reports its findings as CompileCode::UnsafeProgram). Defaults to
  /// the ALF_VERIFY environment variable (ctest exports "full"), else
  /// Structural.
  verify::VerifyLevel Verify = verify::defaultVerifyLevel();
};

/// One strategy's compilation artifact, prepared for one execution mode
/// and movable so callers can cache it and re-run it without
/// re-analysis: the scalarized loop program, the summary numbers the
/// analysis produced, and whatever the mode needs at run time — the
/// parallel schedule or the loaded JIT kernel. The loop program
/// references symbols of the pipeline's ir::Program, so a cached
/// artifact must not outlive that program (the runtime engine's trace
/// cache and the daemon's kernel cache own both). run() is const and
/// safe to call from many threads at once.
struct CompiledProgram {
  explicit CompiledProgram(lir::LoopProgram LP) : LP(std::move(LP)) {}

  lir::LoopProgram LP;
  unsigned NumClusters = 0;                 ///< fused clusters (the paper's l)
  std::vector<std::string> ContractedNames; ///< fully contracted arrays

  /// The execution mode run() uses (CompileRequest::Mode).
  xform::ExecMode Mode = xform::ExecMode::Sequential;

  /// ExecMode::Parallel: the worker count, and the schedule planned once
  /// (and race-checked under VerifyLevel::Full) at compile time.
  exec::ParallelOptions Parallel;
  std::optional<exec::ParallelSchedule> Sched;

  /// ExecMode::NativeJit/NativeJitSimd: the kernel emitted, hashed and
  /// loaded once. Not prepared when a proof rejected the compile; runs
  /// then fall back to the interpreter with the reason recorded.
  std::optional<exec::PreparedKernel> Kernel;

  /// Executes the artifact in place on \p Store under Mode. \p Info, when
  /// non-null, receives the JIT outcome (JIT modes only): Compiled and the
  /// cache hits describe how the kernel was prepared, UsedJit this run.
  void run(exec::Storage &Store, exec::JitRunInfo *Info = nullptr) const;

  /// Allocates storage seeded by \p Seed, runs, and collects the results,
  /// all inside one `pipeline.execute` span.
  exec::RunResult run(uint64_t Seed, exec::JitRunInfo *Info = nullptr) const;
};

/// What one Pipeline::tryCompile call asks for. A struct (rather than a
/// bare Strategy) so the serving layer's wire protocol and future knobs
/// extend without touching every caller.
struct CompileRequest {
  xform::Strategy Strat = xform::Strategy::C2;

  /// The mode the artifact is prepared for. Sequential needs no
  /// preparation; Parallel plans the schedule; the JIT modes emit and
  /// load the kernel.
  xform::ExecMode Mode = xform::ExecMode::Sequential;
};

/// Why a tryCompile call did not produce a certified artifact.
enum class CompileCode {
  Ok,             ///< Artifact produced; every requested proof passed.
  InvalidProgram, ///< The (prepared) program fails IR verification.
  VerifyRejected, ///< A translation-validation pass rejected a product.
  UnsafeProgram,  ///< The safety checker (VerifyLevel::Safety) proved a
                  ///< memory-safety violation in the scalarized form.
};

/// Printable name ("ok", "invalid-program", "verify-rejected",
/// "unsafe-program") — these are wire-protocol error codes for the
/// serving layer, so they are stable.
const char *getCompileCodeName(CompileCode C);

/// The structured outcome of one Pipeline::tryCompile: status plus, when
/// the chain ran to completion, the strategy result and the artifact.
///
/// On VerifyRejected and UnsafeProgram the artifact may still be present
/// (the chain runs to completion so every pass gets to report) but MUST
/// NOT be executed — a failed proof means the code is not certified.
struct CompileStatus {
  CompileCode Code = CompileCode::Ok;

  /// First diagnostic, one line; empty on Ok. For VerifyRejected this is
  /// the leading finding's "[pass] message" rendering.
  std::string Message;

  /// Every finding behind a rejection: each IR rule the program breaks
  /// (InvalidProgram, pass "structure"), or each failed proof
  /// (VerifyRejected, UnsafeProgram). Empty on Ok.
  verify::VerifyReport Findings;

  /// The strategy decision (partition + contraction set); present
  /// whenever analysis ran, so callers can inspect or report it.
  std::optional<xform::StrategyResult> SR;

  /// The compiled artifact; see the class comment for the rejected case.
  std::optional<CompiledProgram> Artifact;

  bool ok() const { return Code == CompileCode::Ok; }
};

/// Facade over the align/normalize -> ASDG -> strategy -> scalarize ->
/// execute chain for one program. Not thread-safe; create one per thread.
/// The wrapped program must outlive the pipeline (the ASDG and every
/// LoopProgram reference its symbols).
class Pipeline {
public:
  explicit Pipeline(ir::Program &P, PipelineOptions Opts = PipelineOptions());
  ~Pipeline();

  Pipeline(const Pipeline &) = delete;
  Pipeline &operator=(const Pipeline &) = delete;

  /// The wrapped program in normal form: aligned, normalized and, under
  /// CommPolicy::ArrayLevel, with its exchanges inserted.
  ir::Program &program();

  /// The dependence graph of program(), built on first use. The graph
  /// checks of the verify level run once, here; a rejection is reported
  /// by every tryCompile on this pipeline.
  const analysis::ASDG &asdg();

  /// Compiles \p Req: IR verification, analysis, strategy selection and
  /// scalarization, each product re-proved at the verify level, then the
  /// artifact prepared for Req.Mode (under VerifyLevel::Full a parallel
  /// schedule is race-checked like any other proof). An invalid program
  /// or a failed proof is a CompileStatus, never an abort; the caller
  /// decides the policy. Re-entrant across strategies and modes: the
  /// serving layer compiles every client request through it.
  CompileStatus tryCompile(const CompileRequest &Req);

private:
  void prepare();

  ir::Program &P;
  PipelineOptions Opts;
  bool Prepared = false;
  std::optional<analysis::ASDG> G;
  /// What the graph checks found when asdg() built G; non-empty poisons
  /// every strategy served from it.
  verify::VerifyReport GraphFindings;
};

} // namespace driver
} // namespace alf

#endif // ALF_DRIVER_PIPELINE_H

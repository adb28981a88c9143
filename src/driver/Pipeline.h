//===- driver/Pipeline.h - End-to-end compilation facade -------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One front door for the whole ALF chain. Benchmarks, tools and tests
/// all used to hand-assemble normalize -> ASDG -> applyStrategy ->
/// scalarize -> (comm) -> execute, each with slightly different plumbing;
/// Pipeline owns that sequence once. A Pipeline wraps one ir::Program,
/// builds the ASDG lazily (after normalization and, under the
/// favor-communication policy, array-level exchange insertion), and then
/// serves any number of strategies and execution modes from the shared
/// analysis:
///
///   driver::Pipeline PL(*P);
///   driver::CompileStatus St =
///       PL.tryCompile({Strategy::C2, ExecMode::NativeJit});
///   exec::RunResult Res = St.Artifact->run(Seed);
///
/// tryCompile makes every decision once — partition, contraction, the
/// parallel schedule, the JIT kernel — and returns a CompiledProgram
/// whose run() is the library's one way to execute. JIT kernels come
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

#include <functional>
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
  /// Run ir::normalizeProgram before analysis (condition (i) of the
  /// paper's normal form). Disable only for programs known normalized.
  bool Normalize = true;

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

  /// Called with the findings when a verification pass rejects outside
  /// tryCompile. When unset, the pipeline treats a rejection as a fatal
  /// internal error (reportFatalError). No tool or example sets it: they
  /// compile through tryCompile, which reports rejections as a
  /// CompileStatus. Only tests set it, to collect the findings.
  std::function<void(const verify::VerifyReport &)> OnVerifyError;
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
/// On VerifyRejected the artifact may still be present (the chain is
/// attempted end to end, matching the legacy OnVerifyError-and-continue
/// policy) but MUST NOT be executed by callers that asked for
/// verification — a failed proof means the code is not certified.
struct CompileStatus {
  CompileCode Code = CompileCode::Ok;

  /// First diagnostic, one line; empty on Ok. For VerifyRejected this is
  /// the leading finding's "[pass] message" rendering.
  std::string Message;

  /// Every finding this call produced (VerifyRejected only).
  verify::VerifyReport Findings;

  /// The strategy decision (partition + contraction set); present
  /// whenever analysis ran, so callers can inspect or report it.
  std::optional<xform::StrategyResult> SR;

  /// The compiled artifact; see the class comment for the rejected case.
  std::optional<CompiledProgram> Artifact;

  bool ok() const { return Code == CompileCode::Ok; }
};

/// Facade over the parse/normalize -> ASDG -> strategy -> scalarize ->
/// execute chain for one program. Not thread-safe; create one per thread.
/// The wrapped program must outlive the pipeline (the ASDG and every
/// LoopProgram reference its symbols).
class Pipeline {
public:
  explicit Pipeline(ir::Program &P, PipelineOptions Opts = PipelineOptions());
  ~Pipeline();

  Pipeline(const Pipeline &) = delete;
  Pipeline &operator=(const Pipeline &) = delete;

  /// The wrapped program, after the pre-analysis passes (normalization,
  /// array-level communication) have run.
  ir::Program &program();

  /// The dependence graph, built on first use (normalizing and inserting
  /// array-level communication first, per the options).
  const analysis::ASDG &asdg();

  /// Fusion partition + contraction set of \p S over asdg().
  xform::StrategyResult strategy(xform::Strategy S);

  /// Scalarized loop program of \p S, with loop-level communication
  /// inserted when the policy asks for it.
  lir::LoopProgram scalarize(xform::Strategy S);

  /// As above, for a strategy result the caller has already computed (and
  /// possibly inspected or adjusted).
  lir::LoopProgram scalarize(const xform::StrategyResult &SR);

  /// Status-returning compile: runs IR verification, analysis, strategy
  /// selection and scalarization, prepares the artifact for Req.Mode
  /// (under VerifyLevel::Full a parallel schedule is race-checked like
  /// any other proof), and reports invalid programs and
  /// verification rejections as a structured CompileStatus instead of
  /// aborting or invoking OnVerifyError. This is the re-entrant entry
  /// point the serving layer compiles every client request through: the
  /// caller decides the failure policy per request.
  ///
  /// Findings are still accumulated into verifyFindings(). A rejection
  /// of the shared analysis (ASDG structure or dependence diff) poisons
  /// the pipeline: every later tryCompile on it reports VerifyRejected,
  /// since all strategies consume the same graph.
  CompileStatus tryCompile(const CompileRequest &Req);

  const PipelineOptions &options() const { return Opts; }

  /// Every verification finding accumulated so far (across all levels
  /// and strategies served by this pipeline); empty when everything the
  /// pipeline produced was certified.
  const verify::VerifyReport &verifyFindings() const { return Findings; }

private:
  void prepare();

  /// Runs the failure policy on \p R's findings (if any) and accumulates
  /// them into Findings. Inside tryCompile the policy is suspended
  /// (Collecting): findings accumulate and surface through the returned
  /// CompileStatus instead.
  void check(verify::VerifyReport R);

  ir::Program &P;
  PipelineOptions Opts;
  bool Prepared = false;
  bool Collecting = false;     ///< tryCompile in progress; see check().
  bool GraphRejected = false;  ///< A verify pass rejected the shared ASDG.
  std::optional<analysis::ASDG> G;
  verify::VerifyReport Findings;
};

} // namespace driver
} // namespace alf

#endif // ALF_DRIVER_PIPELINE_H

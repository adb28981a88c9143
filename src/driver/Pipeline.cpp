//===- driver/Pipeline.cpp - End-to-end compilation facade ------------------===//

#include "driver/Pipeline.h"

#include "comm/CommInsertion.h"
#include "exec/Eval.h"
#include "ir/Normalize.h"
#include "ir/Verifier.h"
#include "obs/Obs.h"
#include "scalarize/Scalarize.h"
#include "support/ErrorHandling.h"

using namespace alf;
using namespace alf::driver;
using namespace alf::exec;
using namespace alf::xform;

ALF_COUNTER(NumPipelineVerifyFailures, "verify.pipeline_failures",
            "Pipeline stages rejected by a verification pass");

Pipeline::Pipeline(ir::Program &P, PipelineOptions InOpts)
    : P(P), Opts(std::move(InOpts)) {}

Pipeline::~Pipeline() = default;

void Pipeline::prepare() {
  if (Prepared)
    return;
  Prepared = true;
  if (Opts.Normalize) {
    obs::Span S("pipeline.normalize", P.getName());
    ir::normalizeProgram(P);
  }
  if (Opts.Comm == CommPolicy::ArrayLevel) {
    obs::Span S("pipeline.comm.array");
    comm::insertArrayLevelComm(P);
  }
}

void Pipeline::check(verify::VerifyReport R) {
  if (R.ok())
    return;
  ++NumPipelineVerifyFailures;
  for (const verify::VerifyFinding &F : R.Findings)
    Findings.Findings.push_back(F);
  // tryCompile suspends the failure policy: the findings surface through
  // the structured CompileStatus it returns.
  if (Collecting)
    return;
  if (Opts.OnVerifyError) {
    Opts.OnVerifyError(R);
    return;
  }
  // No policy installed: a failed proof means the pipeline is about to
  // produce wrong code, which the library's no-throw error policy treats
  // as fatal.
  std::string Msg =
      "translation validation failed: " + R.Findings.front().str();
  reportFatalError(Msg.c_str());
}

ir::Program &Pipeline::program() {
  prepare();
  return P;
}

const analysis::ASDG &Pipeline::asdg() {
  if (!G) {
    prepare();
    {
      obs::Span S("pipeline.asdg");
      G = analysis::ASDG::build(P);
    }
    size_t Before = Findings.Findings.size();
    if (Opts.Verify >= verify::VerifyLevel::Structural) {
      obs::Span S("pipeline.verify", "structure");
      check(verify::verifyStructure(P, &*G));
    }
    if (Opts.Verify >= verify::VerifyLevel::Full) {
      obs::Span S("pipeline.verify", "dependences");
      check(verify::verifyDependences(*G));
    }
    // A rejected graph poisons every strategy served from it; tryCompile
    // reports this sticky state on each later call.
    if (Findings.Findings.size() > Before)
      GraphRejected = true;
  }
  return *G;
}

StrategyResult Pipeline::strategy(Strategy S) {
  StrategyResult SR = [&] {
    obs::Span Sp("pipeline.strategy", xform::getStrategyName(S));
    return applyStrategy(asdg(), S);
  }();
  if (Opts.Verify >= verify::VerifyLevel::Full) {
    obs::Span Sp("pipeline.verify", "strategy");
    check(verify::verifyStrategy(*G, SR));
  }
  return SR;
}

lir::LoopProgram Pipeline::scalarize(Strategy S) {
  // Route through strategy() so the strategy result is verified before
  // scalarization consumes it.
  return scalarize(strategy(S));
}

lir::LoopProgram Pipeline::scalarize(const StrategyResult &SR) {
  lir::LoopProgram LP = [&] {
    obs::Span S("pipeline.scalarize");
    return alf::scalarize::scalarize(asdg(), SR);
  }();
  if (Opts.Comm == CommPolicy::LoopLevel) {
    obs::Span S("pipeline.comm.loop");
    comm::insertLoopLevelComm(LP);
  }
  if (Opts.Verify >= verify::VerifyLevel::Safety) {
    obs::Span S("pipeline.verify", "safety");
    check(verify::verifySafety(LP, &*G));
  }
  return LP;
}

const char *driver::getCompileCodeName(CompileCode C) {
  switch (C) {
  case CompileCode::Ok:
    return "ok";
  case CompileCode::InvalidProgram:
    return "invalid-program";
  case CompileCode::VerifyRejected:
    return "verify-rejected";
  case CompileCode::UnsafeProgram:
    return "unsafe-program";
  }
  return "?";
}

CompileStatus Pipeline::tryCompile(const CompileRequest &Req) {
  CompileStatus St;
  prepare();

  // Gate analysis on IR well-formedness: strategy selection and
  // scalarization assume the normal-form invariants and may misbehave
  // on client programs that violate them.
  {
    std::vector<std::string> Errors = ir::verifyProgram(P);
    if (!Errors.empty()) {
      St.Code = CompileCode::InvalidProgram;
      St.Message = Errors.front();
      return St;
    }
  }

  bool SavedCollecting = Collecting;
  Collecting = true;
  size_t Before = Findings.Findings.size();

  asdg();
  if (GraphRejected) {
    Collecting = SavedCollecting;
    St.Code = CompileCode::VerifyRejected;
    St.Findings.Findings.assign(Findings.Findings.begin() + Before,
                                Findings.Findings.end());
    if (St.Findings.ok()) // rejected by an earlier call; re-surface it
      St.Findings = Findings;
    St.Message = St.Findings.Findings.front().str();
    return St;
  }

  // Run the chain to completion even when a proof rejects (matching the
  // legacy handler-and-continue policy), but report the rejection.
  xform::StrategyResult SR = strategy(Req.Strat);
  lir::LoopProgram LP = scalarize(SR);

  CompiledProgram CP(std::move(LP));
  CP.NumClusters = SR.Partition.numClusters();
  CP.Mode = Req.Mode;
  CP.ContractedNames.reserve(SR.Contracted.size());
  for (const ir::ArraySymbol *A : SR.Contracted)
    CP.ContractedNames.push_back(A->getName());
  if (Req.Mode == ExecMode::Parallel) {
    // Plan once, so the schedule every run executes is the schedule the
    // race detector certified.
    CP.Parallel = Opts.Parallel;
    CP.Sched = planParallelism(CP.LP);
    if (Opts.Verify >= verify::VerifyLevel::Full) {
      obs::Span S("pipeline.verify", "parallel-safety");
      check(verify::verifyParallelSafety(CP.LP, *CP.Sched));
    }
  } else if (Req.Mode == ExecMode::NativeJit ||
             Req.Mode == ExecMode::NativeJitSimd) {
    // A rejected program gets no kernel: the compiler is not run on code
    // whose proofs failed.
    if (Findings.Findings.size() == Before) {
      JitOptions JO = Opts.Jit;
      if (Req.Mode == ExecMode::NativeJitSimd)
        JO.Vectorize = true;
      CP.Kernel = sharedJitEngine(JO).prepare(CP.LP);
    } else {
      CP.Kernel.emplace();
      CP.Kernel->Info.FallbackReason =
          "kernel not prepared: the compile was rejected";
    }
  }
  Collecting = SavedCollecting;
  St.Artifact.emplace(std::move(CP));
  St.SR = std::move(SR);

  if (Findings.Findings.size() > Before) {
    St.Findings.Findings.assign(Findings.Findings.begin() + Before,
                                Findings.Findings.end());
    St.Message = St.Findings.Findings.front().str();
    // A safety-only rejection gets its own stable wire code so serving
    // clients can tell "your program is memory-unsafe" apart from "the
    // compiler failed its own proof". Any legality finding dominates.
    bool AllSafety = true;
    for (const verify::VerifyFinding &F : St.Findings.Findings)
      if (F.Pass.rfind("safety", 0) != 0)
        AllSafety = false;
    St.Code = AllSafety ? CompileCode::UnsafeProgram
                        : CompileCode::VerifyRejected;
  }
  return St;
}

void CompiledProgram::run(Storage &Store, JitRunInfo *Info) const {
  switch (Mode) {
  case ExecMode::Sequential:
    exec::runOnStorage(LP, Store);
    return;
  case ExecMode::Parallel:
    runParallelOnStorage(LP, Store, Parallel, *Sched);
    return;
  case ExecMode::NativeJit:
  case ExecMode::NativeJitSimd:
    JitEngine::runPrepared(*Kernel, LP, Store, Info);
    return;
  }
  alf_unreachable("unhandled execution mode");
}

RunResult CompiledProgram::run(uint64_t Seed, JitRunInfo *Info) const {
  obs::Span Sp("pipeline.execute", xform::getExecModeName(Mode));
  Storage Store = allocateStorage(LP, Seed);
  run(Store, Info);
  return collectResults(LP, Store);
}

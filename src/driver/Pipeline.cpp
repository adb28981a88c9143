//===- driver/Pipeline.cpp - End-to-end compilation facade ------------------===//

#include "driver/Pipeline.h"

#include "comm/CommInsertion.h"
#include "exec/Eval.h"
#include "ir/Align.h"
#include "ir/Normalize.h"
#include "ir/Verifier.h"
#include "obs/Obs.h"
#include "scalarize/Scalarize.h"
#include "scalarize/Schedule.h"
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

/// Moves \p R's findings into \p Into, counting a rejecting pass.
static void absorb(verify::VerifyReport &Into, verify::VerifyReport R) {
  if (R.ok())
    return;
  ++NumPipelineVerifyFailures;
  Into.take(std::move(R));
}

void Pipeline::prepare() {
  if (Prepared)
    return;
  Prepared = true;
  {
    // The paper's normal form (section 2.1): references aligned except
    // for offsets, then no statement reads the array it writes.
    obs::Span S("pipeline.normalize", P.getName());
    ir::alignProgram(P);
    ir::normalizeProgram(P);
  }
  if (Opts.Comm == CommPolicy::ArrayLevel) {
    obs::Span S("pipeline.comm.array");
    comm::insertArrayLevelComm(P);
  }
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
    if (Opts.Verify >= verify::VerifyLevel::Structural) {
      obs::Span S("pipeline.verify", "structure");
      absorb(GraphFindings, verify::verifyStructure(P, &*G));
    }
    if (Opts.Verify >= verify::VerifyLevel::Full) {
      obs::Span S("pipeline.verify", "dependences");
      absorb(GraphFindings, verify::verifyDependences(*G));
    }
  }
  return *G;
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
  for (std::string &E : ir::verifyProgram(P))
    St.Findings.add("structure", std::move(E));
  if (!St.Findings.ok()) {
    St.Code = CompileCode::InvalidProgram;
    St.Message = St.Findings.Findings.front().Message;
    return St;
  }

  // A rejected graph poisons every strategy served from it.
  asdg();
  if (!GraphFindings.ok()) {
    St.Code = CompileCode::VerifyRejected;
    St.Findings = GraphFindings;
    St.Message = St.Findings.Findings.front().str();
    return St;
  }

  // Run the chain to completion even when a proof rejects, so every
  // pass reports, but hand out no artifact for a rejected program.
  StrategyResult SR = [&] {
    obs::Span Sp("pipeline.strategy", xform::getStrategyName(Req.Strat));
    return applyStrategy(*G, Req.Strat);
  }();
  if (Opts.Verify >= verify::VerifyLevel::Full) {
    obs::Span Sp("pipeline.verify", "strategy");
    absorb(St.Findings, verify::verifyStrategy(*G, SR));
  }
  lir::LoopProgram LP = [&] {
    obs::Span S("pipeline.scalarize");
    return alf::scalarize::scalarize(*G, SR);
  }();
  if (Opts.Comm == CommPolicy::LoopLevel) {
    obs::Span S("pipeline.comm.loop");
    comm::insertLoopLevelComm(LP);
  }
  if (Opts.Verify >= verify::VerifyLevel::Safety) {
    obs::Span S("pipeline.verify", "safety");
    absorb(St.Findings, verify::verifySafety(LP, &*G));
  }

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
      absorb(St.Findings, verify::verifyParallelSafety(CP.LP, *CP.Sched));
    }
  } else if (Req.Mode == ExecMode::NativeJit ||
             Req.Mode == ExecMode::NativeJitSimd) {
    // The nests the kernel will split across threads get the same race
    // proof as the parallel executor's schedule. A rejected program gets
    // no kernel: the compiler is not run on code whose proofs failed.
    if (Opts.Verify >= verify::VerifyLevel::Full) {
      obs::Span S("pipeline.verify", "jit-parallel-safety");
      absorb(St.Findings,
             verify::verifyParallelSafety(CP.LP, lir::splitSchedule(CP.LP)));
    }
    if (St.Findings.ok()) {
      JitOptions JO = Opts.Jit;
      if (Req.Mode == ExecMode::NativeJitSimd)
        JO.Vectorize = true;
      CP.Kernel = sharedJitEngine(JO).prepare(CP.LP);
    }
  }
  St.SR = std::move(SR);

  if (St.Findings.ok()) {
    St.Artifact.emplace(std::move(CP));
    return St;
  }
  St.Message = St.Findings.Findings.front().str();
  // A safety-only rejection gets its own stable wire code so serving
  // clients can tell "your program is memory-unsafe" apart from "the
  // compiler failed its own proof". Any legality finding dominates.
  bool AllSafety = true;
  for (const verify::VerifyFinding &F : St.Findings.Findings)
    if (F.Pass.rfind("safety", 0) != 0)
      AllSafety = false;
  St.Code =
      AllSafety ? CompileCode::UnsafeProgram : CompileCode::VerifyRejected;
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

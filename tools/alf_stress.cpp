//===- tools/alf_stress.cpp - Randomized cross-validation driver -------------===//
//
// Long-running stress tool: generates random array programs and
// cross-checks every layer of ALF against the interpreter oracle —
// strategy equivalence, partition validity, multithreaded tiled
// execution, distributed (SPMD) execution with compiler-inserted halo
// exchanges, partial contraction, and (optionally) the C backend
// compiled with the system compiler. Generated programs cycle through
// ranks 1-3, explicit target offsets and mixed regions.
//
// Usage: alf_stress [--count=N] [--seed=S] [--procs=P] [--threads=T]
//                   [--emit-c] [--exec=sequential|parallel|jit|jit-simd]
//                   [--strategy=NAME] [--verify=off|structural|full]
//                   [--semiring=NAME] [--trace=out.json] [--metrics]
//
// --procs=P runs every distributed check on P processors; without it each
// program draws its count from {2, 3, 4, 8, 12} by seed.
//
// --semiring=NAME pins every generated reduction to one registry
// semiring (default: a third of the programs get reductions, rotating
// through the whole registry by seed).
//
// --strategy=NAME restricts the per-program strategy loop to one named
// strategy (any paper strategy, or "ilp" for the branch-and-bound
// optimal partitioner); the divergence checks against the baseline
// oracle are unchanged. With ilp the run doubles as the optimality
// sweep: the solver's partition is additionally required to achieve an
// objective no worse than greedy FUSION-FOR-CONTRACTION's.
//
// --trace=FILE records every pipeline phase and kernel launch of the
// sweep and writes a Chrome trace_event file on exit (load it at
// chrome://tracing); --metrics prints the aggregated per-span table
// instead of (or in addition to) the full trace.
//
// --exec=jit additionally runs every strategy through the native JIT
// backend (one shared engine, so the kernel cache is exercised) and
// requires bit-identity with the interpreter oracle; it skips cleanly
// when no system compiler is available.
//
// --verify (default full) turns the run into a translation-validation
// sweep as well: every ASDG is diffed against the dependence oracle,
// every strategy re-proved against the fusion/contraction legality
// definitions, and every parallel schedule race-checked before it runs.
//
// Exits nonzero on the first divergence or failed proof, printing the
// offending program.
//
//===----------------------------------------------------------------------===//

#include "ToolOptions.h"

#include "comm/CommInsertion.h"
#include "distsim/DistInterpreter.h"
#include "driver/Pipeline.h"
#include "exec/Interpreter.h"
#include "exec/NativeJit.h"
#include "exec/ParallelExecutor.h"
#include "ir/Generator.h"
#include "ir/Verifier.h"
#include "obs/Obs.h"
#include "scalarize/CEmitter.h"
#include "scalarize/Scalarize.h"
#include "support/Random.h"
#include "support/StringUtil.h"
#include "verify/Verify.h"
#include "xform/IlpStrategy.h"
#include "xform/Strategy.h"

#include <memory>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

using namespace alf;
using namespace alf::analysis;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::xform;

namespace {

struct Stats {
  unsigned Programs = 0;
  unsigned StrategyRuns = 0;
  unsigned ParallelRuns = 0;
  unsigned ParallelNests = 0;
  unsigned Contractions = 0;
  unsigned PartialPlans = 0;
  unsigned DistRuns = 0;
  unsigned CCompiles = 0;
  unsigned JitRuns = 0;
  unsigned IlpRuns = 0;
  unsigned IlpImprovements = 0;
};

/// Fails loudly with the program text for reproduction.
[[noreturn]] void fail(const Program &P, const std::string &What) {
  std::cerr << "STRESS FAILURE: " << What << "\nprogram:\n" << P.str();
  std::exit(1);
}

bool checkEmittedC(const lir::LoopProgram &LP, uint64_t Seed,
                   const RunResult &Expected) {
  static int Counter = 0;
  scalarize::CEmitResult Src = scalarize::emitCWithHarness(LP, "kernel", Seed);
  if (!Src.ok()) {
    std::cerr << "error: " << Src.Error << '\n';
    return false;
  }
  std::string Base = formatString("/tmp/alf_stress_%d_%d", getpid(), Counter++);
  {
    std::ofstream Out(Base + ".c");
    Out << Src.Source;
  }
  std::string Cmd = "cc -std=c99 -O1 -ffp-contract=off -o " + Base + ".exe " +
                    Base + ".c -lm 2>&1";
  if (std::system(Cmd.c_str()) != 0)
    return false;
  FILE *Pipe = popen((Base + ".exe").c_str(), "r");
  if (!Pipe)
    return false;
  bool OK = true;
  char Name[256];
  double Value;
  while (std::fscanf(Pipe, "%255s %lf", Name, &Value) == 2) {
    auto AIt = Expected.LiveOut.find(Name);
    if (AIt != Expected.LiveOut.end()) {
      double Sum = 0.0;
      for (double V : AIt->second)
        Sum += V;
      OK &= std::fabs(Sum - Value) <= 1e-9 * (std::fabs(Sum) + 1.0);
      continue;
    }
    auto SIt = Expected.ScalarsOut.find(Name);
    if (SIt != Expected.ScalarsOut.end())
      OK &= std::fabs(SIt->second - Value) <=
            1e-9 * (std::fabs(SIt->second) + 1.0);
  }
  pclose(Pipe);
  std::remove((Base + ".c").c_str());
  std::remove((Base + ".exe").c_str());
  return OK;
}

} // namespace

int main(int argc, char **argv) {
  unsigned Count = 50;
  unsigned Procs = 0; // 0: each distributed run draws its own count
  unsigned Threads = 4;
  bool EmitC = false;
  tool::ToolOptions TO; // --seed/--exec/--strategy/--verify/--trace/--metrics
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    std::string FlagError;
    switch (tool::parseToolFlag(Arg, tool::TF_All, TO, FlagError)) {
    case tool::FlagParse::Consumed:
      continue;
    case tool::FlagParse::Error:
      std::cerr << "alf_stress: " << FlagError << '\n';
      return 2;
    case tool::FlagParse::NotMine:
      break;
    }
    if (Arg.rfind("--count=", 0) == 0)
      Count = static_cast<unsigned>(std::atoi(Arg.c_str() + 8));
    else if (Arg.rfind("--procs=", 0) == 0)
      Procs = static_cast<unsigned>(std::atoi(Arg.c_str() + 8));
    else if (Arg.rfind("--threads=", 0) == 0)
      Threads = static_cast<unsigned>(std::atoi(Arg.c_str() + 10));
    else if (Arg == "--emit-c")
      EmitC = true;
    else {
      std::cerr << "usage: alf_stress [--count=N] [--procs=P] [--threads=T] "
                   "[--emit-c]\n"
                << tool::toolFlagsHelp(tool::TF_All);
      return 2;
    }
  }
  uint64_t Seed = TO.Seed;
  ExecMode Mode = TO.Exec.value_or(ExecMode::Sequential);
  std::optional<Strategy> OnlyStrategy = TO.Strat;
  verify::VerifyLevel VerifyLevel = TO.Verify;

  tool::applyObsLevel(TO);

  bool HaveCC = EmitC && std::system("cc --version > /dev/null 2>&1") == 0;
  if (EmitC && !HaveCC)
    std::cerr << "note: no system C compiler; skipping --emit-c checks\n";

  // JIT artifacts come from the process-wide engine: repeated kernels hit
  // its in-memory cache, and a warm on-disk cache (e.g. in CI) skips
  // compiles entirely.
  bool Jit = false;
  if (Mode == ExecMode::NativeJit || Mode == ExecMode::NativeJitSimd) {
    Jit = JitEngine::compilerAvailable();
    if (!Jit)
      std::cerr << "note: no system C compiler; skipping --exec="
                << getExecModeName(Mode) << " checks\n";
  }

  Stats S;
  for (unsigned Iter = 0; Iter < Count; ++Iter) {
    uint64_t ProgSeed = Seed + Iter;
    GeneratorConfig Cfg;
    Cfg.Seed = ProgSeed;
    Cfg.NumStmts = 4 + static_cast<unsigned>(ProgSeed % 12);
    Cfg.NumPersistent = 2 + static_cast<unsigned>(ProgSeed % 3);
    Cfg.NumTemps = 2 + static_cast<unsigned>((ProgSeed / 3) % 4);
    Cfg.Rank = 1 + static_cast<unsigned>(ProgSeed % 3);
    Cfg.Extent = Cfg.Rank == 3 ? 4 : 6 + static_cast<int64_t>(ProgSeed % 4);
    Cfg.MaxOffset = 1 + static_cast<unsigned>(ProgSeed % 2);
    Cfg.AllowTargetOffsets = ProgSeed % 4 == 1;
    Cfg.UseTwoRegions = ProgSeed % 5 == 0;
    Cfg.AddOpaque = ProgSeed % 7 == 0;
    // Reductions ride along on a third of the programs, rotating through
    // the semiring registry (or pinned to --semiring when given).
    if (TO.SemiringSel) {
      Cfg.NumReduce = 1 + static_cast<unsigned>(ProgSeed % 2);
      Cfg.ReduceSemiring = TO.SemiringSel;
    } else if (ProgSeed % 3 == 0) {
      Cfg.NumReduce = 1 + static_cast<unsigned>(ProgSeed % 2);
      const auto &Regs = semiring::all();
      Cfg.ReduceSemiring = Regs[(ProgSeed / 3) % Regs.size()];
    }

    auto P = generateRandomProgram(Cfg);
    driver::PipelineOptions PO;
    PO.Verify = VerifyLevel;
    PO.Parallel.NumThreads = Threads;
    driver::Pipeline PL(*P, PO);
    if (!isWellFormed(PL.program()))
      fail(*P, "normalized program failed verification");
    ++S.Programs;

    // Every compile goes through the status-returning entry point: a
    // rejected proof surfaces as CompileStatus instead of aborting, so
    // the offending program can be printed for reproduction.
    auto compileOrFail = [&](Strategy Strat,
                             ExecMode M) -> driver::CompileStatus {
      driver::CompileStatus St =
          PL.tryCompile(driver::CompileRequest{Strat, M});
      if (!St.ok() || !St.Artifact || !St.SR)
        fail(*P, (St.Code == driver::CompileCode::VerifyRejected
                      ? "verification failed: "
                      : "compile failed: ") +
                     St.Message);
      return St;
    };

    driver::CompileStatus BaseSt =
        compileOrFail(Strategy::Baseline, ExecMode::Sequential);
    const ASDG &G = PL.asdg();
    RunResult BaseRes = run(BaseSt.Artifact->LP, ProgSeed ^ 0xfeed);

    std::vector<Strategy> Strategies = allStrategiesForTest();
    if (OnlyStrategy)
      Strategies = {*OnlyStrategy};
    for (Strategy Strat : Strategies) {
      // The artifact is prepared for the parallel executor (schedule
      // planned and, under --verify=full, race-checked) when that stage
      // runs; its loop program also feeds the sequential oracle.
      driver::CompileStatus St = compileOrFail(
          Strat, Threads > 0 ? ExecMode::Parallel : ExecMode::Sequential);
      const StrategyResult &SR = *St.SR;
      if (!isValidPartition(SR.Partition))
        fail(*P, formatString("invalid partition under %s",
                              getStrategyName(Strat)));
      S.Contractions += static_cast<unsigned>(SR.Contracted.size());

      // The optimal partitioner's contract: never a worse objective than
      // greedy FUSION-FOR-CONTRACTION on the same graph.
      if (Strat == Strategy::IlpOptimal) {
        StrategyResult Greedy = applyStrategy(G, Strategy::C2);
        double GreedyBytes =
            contractedBytes(Greedy.Partition, Greedy.Contracted);
        double IlpBytes = contractedBytes(SR.Partition, SR.Contracted);
        if (IlpBytes < GreedyBytes)
          fail(*P, formatString("ilp objective %.0f below greedy %.0f",
                                IlpBytes, GreedyBytes));
        ++S.IlpRuns;
        if (IlpBytes > GreedyBytes)
          ++S.IlpImprovements;
      }
      const lir::LoopProgram &LP = St.Artifact->LP;
      std::string Why;
      if (!resultsMatch(BaseRes, run(LP, ProgSeed ^ 0xfeed), 0.0, &Why))
        fail(*P, formatString("%s diverged: %s", getStrategyName(Strat),
                              Why.c_str()));
      ++S.StrategyRuns;

      // Native JIT execution: every strategy's kernel must be
      // bit-identical to the interpreter oracle — except under jit-simd
      // for programs whose declared tolerance is ReassociatedFloat (a
      // float + reduction was lane-split; the ULP-rigorous comparison
      // lives in StressSweepTest.SimdAgrees).
      if (Jit) {
        double JitTol = 0.0;
        if (Mode == ExecMode::NativeJitSimd &&
            scalarize::simdToleranceFor(LP) ==
                support::Tolerance::ReassociatedFloat)
          JitTol = 1e-6;
        JitRunInfo Info;
        RunResult JitRes = compileOrFail(Strat, Mode).Artifact->run(
            ProgSeed ^ 0xfeed, &Info);
        if (!resultsMatch(BaseRes, JitRes, JitTol, &Why))
          fail(*P, formatString("%s jit diverged: %s", getStrategyName(Strat),
                                Why.c_str()));
        if (!Info.UsedJit)
          fail(*P, formatString("%s jit fell back to the interpreter: %s",
                                getStrategyName(Strat),
                                Info.FallbackReason.c_str()));
        ++S.JitRuns;
      }

      // Multithreaded tiled execution of the same program; results must
      // be bit-identical to the sequential oracle.
      if (Threads > 0) {
        S.ParallelNests += St.Artifact->Sched->numParallelNests();
        if (!resultsMatch(BaseRes, St.Artifact->run(ProgSeed ^ 0xfeed), 0.0,
                          &Why))
          fail(*P, formatString("%s parallel (%u threads) diverged: %s",
                                getStrategyName(Strat), Threads, Why.c_str()));
        ++S.ParallelRuns;
      }
    }

    // Partial contraction with every dimension sequential.
    {
      auto LP = scalarize::scalarizeWithPartialContraction(
          G, Strategy::C2, SequentialDims::dims({0, 1}));
      S.PartialPlans += static_cast<unsigned>(LP.partialPlans().size());
      std::string Why;
      if (!resultsMatch(BaseRes, run(LP, ProgSeed ^ 0xfeed), 0.0, &Why))
        fail(*P, "partial contraction diverged: " + Why);
      if (Threads > 0) {
        // Plan explicitly so the rolling-buffer race check certifies the
        // exact schedule that runs.
        ParallelSchedule Sched = planParallelism(LP);
        if (VerifyLevel >= verify::VerifyLevel::Full) {
          verify::VerifyReport R = verify::verifyParallelSafety(LP, Sched);
          if (!R.ok())
            fail(*P, "verification failed: " + R.Findings.front().str());
        }
        ParallelOptions Opts;
        Opts.NumThreads = Threads;
        if (!resultsMatch(BaseRes,
                          runParallel(LP, ProgSeed ^ 0xfeed, Opts, Sched), 0.0,
                          &Why))
          fail(*P, "partial contraction parallel diverged: " + Why);
        ++S.ParallelRuns;
      }
    }

    // Distributed execution (no opaque statements or offset assignment
    // targets there).
    if (!Cfg.AddOpaque && !Cfg.AllowTargetOffsets) {
      auto LP = scalarize::scalarizeWithStrategy(G, Strategy::C2F3);
      comm::insertLoopLevelComm(LP);
      // Without --procs each program draws its processor count, so the
      // small extents meet grids with zero- and one-cell interiors.
      static const unsigned ProcChoices[] = {2, 3, 4, 8, 12};
      unsigned RunProcs =
          Procs ? Procs : ProcChoices[SplitMix64(ProgSeed).nextBounded(5)];
      RunResult Dist = distsim::runDistributed(
          LP, machine::ProcGrid::make(RunProcs, Cfg.Rank), ProgSeed ^ 0xfeed);
      std::string Why;
      if (!resultsMatch(BaseRes, Dist, 0.0, &Why))
        fail(*P, "distributed run diverged: " + Why);
      ++S.DistRuns;
    }

    if (HaveCC) {
      auto LP = scalarize::scalarizeWithStrategy(G, Strategy::C2);
      if (!checkEmittedC(LP, ProgSeed ^ 0xfeed, run(LP, ProgSeed ^ 0xfeed)))
        fail(*P, "emitted C diverged or failed to compile");
      ++S.CCompiles;
    }

    if ((Iter + 1) % 25 == 0)
      std::cout << "..." << (Iter + 1) << "/" << Count << " programs OK\n";
  }

  std::cout << "alf_stress: all checks passed\n"
            << "  programs:        " << S.Programs << '\n'
            << "  strategy runs:   " << S.StrategyRuns << '\n'
            << "  parallel runs:   " << S.ParallelRuns << " ("
            << S.ParallelNests << " parallel nests, " << Threads
            << " threads)\n"
            << "  contractions:    " << S.Contractions << '\n'
            << "  partial plans:   " << S.PartialPlans << '\n'
            << "  distributed runs:" << S.DistRuns << '\n'
            << "  C compilations:  " << S.CCompiles << '\n';
  if (VerifyLevel >= verify::VerifyLevel::Full)
    std::cout << "  verified:        "
              << obs::counterValue("verify.strategy_proofs")
              << " strategy proofs, "
              << obs::counterValue("verify.oracle_labels")
              << " oracle labels, "
              << obs::counterValue("verify.nests_certified_parallel")
              << " nests certified parallel\n";
  if (S.IlpRuns > 0)
    std::cout << "  ilp runs:        " << S.IlpRuns << " ("
              << S.IlpImprovements << " beat greedy; "
              << obs::counterValue("strategy.ilp.nodes") << " nodes, "
              << obs::counterValue("strategy.ilp.pruned") << " pruned, "
              << obs::counterValue("strategy.ilp.budget_exhausted")
              << " budget-exhausted)\n";
  if (Jit)
    std::cout << "  jit runs:        " << S.JitRuns << " ("
              << obs::counterValue("jit.compiles") << " compiles, "
              << obs::counterValue("jit.cache.memory_hit")
              << " memory hits, "
              << obs::counterValue("jit.cache.disk_hit")
              << " disk hits; cache: "
              << sharedJitEngine(JitOptions()).cacheDir() << ")\n";
  if (!tool::emitObsOutputs(TO, std::cout, std::cerr, "alf_stress"))
    return 1;
  if (!TO.TraceFile.empty())
    std::cout << "trace: " << obs::numTraceEvents() << " events -> "
              << TO.TraceFile << '\n';
  return 0;
}

//===- tests/StressSweepTest.cpp - Differential seed sweep ------------------===//
//
// The randomized cross-validation that tools/alf_stress runs for hours,
// distilled into a ctest-sized sweep: deterministic seeds drive the
// program generator through configurations the targeted tests never
// reach (rank 1 and 3, explicit target offsets, mixed regions), and
// every generated program is executed by the sequential interpreter
// under every fusion strategy, by the partial-contraction pipeline, and
// by the parallel executor — all of which must agree exactly with the
// unoptimized baseline.
//
// Every compilation here runs through driver::Pipeline at
// VerifyLevel::Full with a collecting error handler, so the sweep is
// simultaneously a translation-validation soak: a dependence-oracle
// mismatch, failed legality proof, or statically detected race on any of
// the seeds fails the test even when the outputs happen to agree.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "exec/Eval.h"
#include "exec/Interpreter.h"
#include "exec/NativeJit.h"
#include "exec/ParallelExecutor.h"
#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "ir/Verifier.h"
#include "obs/Obs.h"
#include "runtime/Runtime.h"
#include "scalarize/CEmitter.h"
#include "scalarize/Scalarize.h"
#include "support/Ulp.h"
#include "verify/Verify.h"
#include "xform/IlpStrategy.h"
#include "xform/Strategy.h"

#include <filesystem>
#include <gtest/gtest.h>
#include <map>
#include <unistd.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::xform;

namespace {

/// Mirrors the config derivation of tools/alf_stress: small programs,
/// deterministic in the seed, cycling through ranks 1-3 and the
/// generator features (target offsets, two regions, opaque statements)
/// that block or reshape fusion.
GeneratorConfig sweepConfig(uint64_t Seed) {
  GeneratorConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.NumStmts = 4 + static_cast<unsigned>(Seed % 9);
  Cfg.NumPersistent = 2 + static_cast<unsigned>(Seed % 3);
  Cfg.NumTemps = 2 + static_cast<unsigned>((Seed / 3) % 4);
  Cfg.Rank = 1 + static_cast<unsigned>(Seed % 3);
  Cfg.Extent = Cfg.Rank == 3 ? 4 : 6 + static_cast<int64_t>(Seed % 4);
  Cfg.MaxOffset = 1 + static_cast<unsigned>(Seed % 2);
  Cfg.AllowTargetOffsets = Seed % 4 == 1;
  Cfg.UseTwoRegions = Seed % 5 == 0;
  Cfg.AddOpaque = Seed % 7 == 0;
  return Cfg;
}

class StressSweepTest : public ::testing::TestWithParam<uint64_t> {};

/// Pipeline options for the sweep: full translation validation.
driver::PipelineOptions fullVerifyOptions(unsigned NumThreads = 1) {
  driver::PipelineOptions PO;
  PO.Verify = verify::VerifyLevel::Full;
  PO.Parallel.NumThreads = NumThreads;
  return PO;
}

/// tryCompile of \p S prepared for \p Mode.
driver::CompileStatus compileFor(driver::Pipeline &PL, Strategy S,
                                 ExecMode Mode) {
  return PL.tryCompile(driver::CompileRequest{S, Mode});
}

/// Success when \p St is certified (only then does it carry an
/// artifact); otherwise a failure listing every finding of the rejection.
::testing::AssertionResult certified(const driver::CompileStatus &St) {
  if (St.ok())
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << driver::getCompileCodeName(St.Code) << ":\n"
         << St.Findings.str();
}

TEST_P(StressSweepTest, AllStrategiesAndExecutorsAgree) {
  uint64_t Seed = GetParam();
  GeneratorConfig Cfg = sweepConfig(Seed);
  auto P = generateRandomProgram(Cfg);
  verify::VerifyReport Collected;
  unsigned NumThreads = 1 + static_cast<unsigned>(Seed % 4); // 1..4
  driver::Pipeline PL(*P, fullVerifyOptions(NumThreads));
  ASSERT_TRUE(isWellFormed(PL.program())) << P->str();
  const ASDG &G = PL.asdg();

  uint64_t RunSeed = Seed ^ 0xfeed;
  driver::CompileStatus BaseSt =
      compileFor(PL, Strategy::Baseline, ExecMode::Sequential);
  ASSERT_TRUE(certified(BaseSt)) << "baseline\n" << P->str();
  RunResult BaseRes = run(BaseSt.Artifact->LP, RunSeed);

  // Every strategy, sequential and parallel, against the baseline oracle.
  // An artifact prepared for ExecMode::Parallel race-checked its schedule
  // at compile time.
  for (Strategy S : allStrategiesForTest()) {
    driver::CompileStatus St = compileFor(PL, S, ExecMode::Parallel);
    ASSERT_TRUE(certified(St)) << getStrategyName(S) << "\n" << P->str();
    ASSERT_TRUE(isValidPartition(St.SR->Partition))
        << getStrategyName(S) << "\n" << P->str();
    const auto &LP = St.Artifact->LP;
    std::string Why;
    ASSERT_TRUE(resultsMatch(BaseRes, run(LP, RunSeed), 0.0, &Why))
        << getStrategyName(S) << " sequential diverged: " << Why << "\n"
        << P->str();
    ASSERT_TRUE(resultsMatch(BaseRes, St.Artifact->run(RunSeed), 0.0, &Why))
        << getStrategyName(S) << " parallel (" << NumThreads
        << " threads) diverged: " << Why << "\n"
        << P->str();
  }

  // Partial contraction (rolling buffers), sequential and parallel. The
  // rolling-buffer schedule is certified explicitly (it is built outside
  // the pipeline's strategy path).
  {
    auto LP = scalarize::scalarizeWithPartialContraction(
        G, Strategy::C2, SequentialDims::dims({0, 1}));
    ParallelSchedule Sched = planParallelism(LP);
    Collected.take(verify::verifyParallelSafety(LP, Sched));
    ParallelOptions Opts;
    Opts.NumThreads = NumThreads;
    std::string Why;
    ASSERT_TRUE(resultsMatch(BaseRes, run(LP, RunSeed), 0.0, &Why))
        << "partial contraction diverged: " << Why << "\n" << P->str();
    ASSERT_TRUE(resultsMatch(BaseRes, runParallel(LP, RunSeed, Opts, Sched),
                             0.0, &Why))
        << "partial contraction parallel diverged: " << Why << "\n"
        << P->str();
  }

  EXPECT_TRUE(Collected.ok())
      << "verification findings:\n" << Collected.str() << P->str();
}

// The semiring sweep: the same generated programs with 1-2 reduction
// statements appended, rotating through the whole semiring registry by
// seed. Every strategy's sequential and parallel runs must agree
// bit-exactly with the unoptimized baseline, and a seed subset also runs
// the native JIT — so min-plus/max-times/or-and accumulator init and
// combine are cross-validated on every backend at VerifyLevel::Full
// (which additionally re-proves each semiring's declared algebra).
TEST_P(StressSweepTest, SemiringAgrees) {
  uint64_t Seed = GetParam();
  GeneratorConfig Cfg = sweepConfig(Seed);
  const auto &Regs = semiring::all();
  Cfg.NumReduce = 1 + static_cast<unsigned>(Seed % 2);
  Cfg.ReduceSemiring = Regs[Seed % Regs.size()];
  auto P = generateRandomProgram(Cfg);
  unsigned NumThreads = 1 + static_cast<unsigned>(Seed % 4); // 1..4
  driver::Pipeline PL(*P, fullVerifyOptions(NumThreads));
  ASSERT_TRUE(isWellFormed(PL.program())) << P->str();

  uint64_t RunSeed = Seed ^ 0xabcd;
  driver::CompileStatus BaseSt =
      compileFor(PL, Strategy::Baseline, ExecMode::Sequential);
  ASSERT_TRUE(certified(BaseSt)) << "baseline\n" << P->str();
  RunResult BaseRes = run(BaseSt.Artifact->LP, RunSeed);

  for (Strategy S : allStrategiesForTest()) {
    driver::CompileStatus St = compileFor(PL, S, ExecMode::Parallel);
    ASSERT_TRUE(certified(St)) << getStrategyName(S) << "\n" << P->str();
    ASSERT_TRUE(isValidPartition(St.SR->Partition))
        << getStrategyName(S) << "\n" << P->str();
    const auto &LP = St.Artifact->LP;
    std::string Why;
    ASSERT_TRUE(resultsMatch(BaseRes, run(LP, RunSeed), 0.0, &Why))
        << getStrategyName(S) << " sequential diverged under "
        << Cfg.ReduceSemiring->Name << ": " << Why << "\n" << P->str();
    ASSERT_TRUE(resultsMatch(BaseRes, St.Artifact->run(RunSeed), 0.0, &Why))
        << getStrategyName(S) << " parallel diverged under "
        << Cfg.ReduceSemiring->Name << ": " << Why << "\n" << P->str();
  }

  if (Seed % 10 == 0 && JitEngine::compilerAvailable()) {
    driver::CompileStatus St =
        compileFor(PL, Strategy::C2, ExecMode::NativeJit);
    ASSERT_TRUE(certified(St)) << "c2 jit\n" << P->str();
    JitRunInfo Info;
    RunResult JitRes = St.Artifact->run(RunSeed, &Info);
    ASSERT_TRUE(Info.UsedJit)
        << "jit fell back: " << Info.FallbackReason << "\n" << P->str();
    std::string Why;
    ASSERT_TRUE(resultsMatch(BaseRes, JitRes, 0.0, &Why))
        << "jit diverged under " << Cfg.ReduceSemiring->Name << ": " << Why
        << "\n" << P->str();
  }
}

// The same sweep through the native JIT backend. A strategy subset keeps
// the number of distinct kernels (hence compiler invocations on a cold
// cache) bounded; the process-wide engine the artifacts are prepared by
// honors $ALF_JIT_CACHE_DIR, so CI reruns hit the disk cache and compile
// nothing.
TEST_P(StressSweepTest, NativeJitAgrees) {
  if (!JitEngine::compilerAvailable())
    GTEST_SKIP() << "no usable system C compiler";

  uint64_t Seed = GetParam();
  GeneratorConfig Cfg = sweepConfig(Seed);
  auto P = generateRandomProgram(Cfg);
  driver::Pipeline PL(*P, fullVerifyOptions());
  ASSERT_TRUE(isWellFormed(PL.program())) << P->str();

  uint64_t RunSeed = Seed ^ 0xfeed;
  driver::CompileStatus BaseSt =
      compileFor(PL, Strategy::Baseline, ExecMode::Sequential);
  ASSERT_TRUE(certified(BaseSt)) << "baseline\n" << P->str();
  RunResult BaseRes = run(BaseSt.Artifact->LP, RunSeed);

  for (Strategy S : {Strategy::Baseline, Strategy::C2, Strategy::C2F3}) {
    driver::CompileStatus St = compileFor(PL, S, ExecMode::NativeJit);
    ASSERT_TRUE(certified(St)) << getStrategyName(S) << "\n" << P->str();
    JitRunInfo Info;
    RunResult JitRes = St.Artifact->run(RunSeed, &Info);
    ASSERT_TRUE(Info.UsedJit)
        << getStrategyName(S)
        << " fell back to the interpreter: " << Info.FallbackReason << "\n"
        << P->str();
    std::string Why;
    ASSERT_TRUE(resultsMatch(BaseRes, JitRes, 0.0, &Why))
        << getStrategyName(S) << " jit diverged: " << Why << "\n"
        << P->str();
  }
}

/// ULP-aware counterpart of exec::resultsMatch for the vectorizing
/// backend: every live-out element and output scalar must agree with the
/// oracle under the declared tolerance (support::agreeWithin). \p MaxSeen
/// accumulates the largest distance observed so the sweep can report how
/// much of the ULP budget reassociation actually consumed.
bool ulpResultsMatch(const RunResult &A, const RunResult &B,
                     support::Tolerance Tol, uint64_t MaxUlps,
                     uint64_t &MaxSeen, std::string *WhyNot) {
  auto Check = [&](const std::string &Where, double VA, double VB) {
    uint64_t D = support::ulpDistance(VA, VB);
    if (D != UINT64_MAX && D > MaxSeen)
      MaxSeen = D;
    if (support::agreeWithin(VA, VB, Tol, MaxUlps))
      return true;
    if (WhyNot)
      *WhyNot = Where + ": " + std::to_string(VA) + " vs " +
                std::to_string(VB) + " (" +
                (D == UINT64_MAX ? std::string("NaN mismatch")
                                 : std::to_string(D) + " ulps") +
                " under " + support::getToleranceName(Tol) + ")";
    return false;
  };
  if (A.LiveOut.size() != B.LiveOut.size() ||
      A.ScalarsOut.size() != B.ScalarsOut.size()) {
    if (WhyNot)
      *WhyNot = "different live-out sets";
    return false;
  }
  for (const auto &[Name, DataA] : A.LiveOut) {
    auto It = B.LiveOut.find(Name);
    if (It == B.LiveOut.end() || It->second.size() != DataA.size()) {
      if (WhyNot)
        *WhyNot = "array " + Name + " missing or differently sized";
      return false;
    }
    for (size_t I = 0; I < DataA.size(); ++I)
      if (!Check(Name + "[" + std::to_string(I) + "]", DataA[I],
                 It->second[I]))
        return false;
  }
  for (const auto &[Name, VA] : A.ScalarsOut) {
    auto It = B.ScalarsOut.find(Name);
    if (It == B.ScalarsOut.end()) {
      if (WhyNot)
        *WhyNot = "scalar " + Name + " missing from second result";
      return false;
    }
    if (!Check("scalar " + Name, VA, It->second))
      return false;
  }
  return true;
}

// The vectorizing-backend sweep: the same generated programs (odd seeds
// pure elementwise, even seeds with semiring reductions appended, the
// registry rotating by seed) run under ExecMode::NativeJitSimd and are
// compared against the interpreter oracle under the tolerance
// scalarize::simdToleranceFor declares for each loop program —
//
//   Exact             bit-identical, asserted at 0 ULP: elementwise code
//                     and every compare/bitwise ⊕ fold (min/max/or select
//                     an operand, so lane-splitting cannot change bits);
//   ReassociatedFloat a float + reduction was kept in vector lanes and
//                     folded at loop exit, asserted within a small ULP
//                     budget.
//
// A single test (not a per-seed TEST_P shard) so the sweep can assert
// the aggregate property the ISSUE demands: at least one seed's nests
// actually vectorized — via JitRunInfo and, independently, via the
// process-wide `jit.vectorize.nests` counter. Nests the legality
// check refuses fall back to the scalar spelling inside the same kernel
// and must still match exactly, and a seed subset re-runs the vectorized
// emission under the ASan/UBSan harness oracle so lane loads/stores and
// the peeled remainder are also proven in-bounds dynamically.
TEST(StressSweepSimdTest, SimdAgrees) {
  if (!JitEngine::compilerAvailable())
    GTEST_SKIP() << "no usable system C compiler";

  const uint64_t MaxUlps = 16384; // ~4e-12 relative: reassociation noise,
                                  // not a wrong-code bug, fits far below
  uint64_t VecBefore =
      obs::counterValue("jit.vectorize.nests");
  unsigned SeedsVectorized = 0, SeedsReassociated = 0, SeedsFellBack = 0;
  uint64_t MaxSeen = 0;

  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    GeneratorConfig Cfg = sweepConfig(Seed);
    const auto &Regs = semiring::all();
    if (Seed % 2 == 0) {
      Cfg.NumReduce = 1 + static_cast<unsigned>(Seed % 2);
      Cfg.ReduceSemiring = Regs[(Seed / 2) % Regs.size()];
    }
    auto P = generateRandomProgram(Cfg);
    driver::Pipeline PL(*P, fullVerifyOptions());
    ASSERT_TRUE(isWellFormed(PL.program())) << P->str();

    uint64_t RunSeed = Seed ^ 0x51fd;
    driver::CompileStatus BaseSt =
        compileFor(PL, Strategy::Baseline, ExecMode::Sequential);
    ASSERT_TRUE(certified(BaseSt)) << "baseline\n" << P->str();
    RunResult BaseRes = run(BaseSt.Artifact->LP, RunSeed);

    bool Vectorized = false, Reassociated = false, FellBack = false;
    for (Strategy S : {Strategy::Baseline, Strategy::C2}) {
      driver::CompileStatus St = compileFor(PL, S, ExecMode::NativeJitSimd);
      ASSERT_TRUE(certified(St)) << getStrategyName(S) << "\n" << P->str();
      support::Tolerance Tol = scalarize::simdToleranceFor(St.Artifact->LP);
      JitRunInfo Info;
      RunResult SimdRes = St.Artifact->run(RunSeed, &Info);
      ASSERT_TRUE(Info.UsedJit)
          << getStrategyName(S)
          << " fell back to the interpreter: " << Info.FallbackReason
          << "\n" << P->str();
      Vectorized |= Info.VectorizedNests > 0;
      Reassociated |= Info.Reassociated;
      FellBack |= Info.VectorFallbacks > 0;

      // The tolerance contract: the emitter may reassociate only when
      // simdToleranceFor announced it, so callers that pre-declare their
      // comparison mode from the loop program are never surprised.
      if (Tol == support::Tolerance::Exact) {
        ASSERT_FALSE(Info.Reassociated)
            << getStrategyName(S)
            << " reassociated under a declared-exact program\n" << P->str();
      }

      std::string Why;
      ASSERT_TRUE(
          ulpResultsMatch(BaseRes, SimdRes, Tol, MaxUlps, MaxSeen, &Why))
          << getStrategyName(S) << " jit-simd diverged ("
          << support::getToleranceName(Tol) << "): " << Why << "\n"
          << "vectorized=" << Info.VectorizedNests
          << " fallbacks=" << Info.VectorFallbacks << "\n" << P->str();
    }
    SeedsVectorized += Vectorized;
    SeedsReassociated += Reassociated;
    SeedsFellBack += FellBack;

    // Dynamic oracle over the vectorized spelling: on a thin subset,
    // compile the same emission with ASan/UBSan and run it out of
    // process — vector loads, stores and the peeled remainder must be
    // as in-bounds as the scalar kernel the analyzer certified.
    if (Seed % 10 == 0) {
      driver::CompileStatus St =
          compileFor(PL, Strategy::C2, ExecMode::Sequential);
      ASSERT_TRUE(certified(St)) << "c2\n" << P->str();
      JitOptions JO;
      JO.Vectorize = true;
      SanitizedRunResult San = runSanitized(St.Artifact->LP, RunSeed, JO);
      ASSERT_TRUE(San.Ran)
          << "sanitizer oracle did not run: " << San.Output;
      EXPECT_TRUE(San.Clean)
          << "vectorized kernel tripped the sanitizer (exit "
          << San.ExitCode << "):\n" << San.Output << P->str();
    }
  }

  // The sweep is only evidence if SIMD code actually ran: at least one
  // seed must vectorize, observed both per-run and in the statistics
  // group the backend maintains.
  EXPECT_GE(SeedsVectorized, 1u)
      << "no seed produced a single vectorized nest";
  EXPECT_GT(obs::counterValue("jit.vectorize.nests"),
            VecBefore)
      << "jit.vectorize statistics never moved";
  RecordProperty("seeds_vectorized", static_cast<int>(SeedsVectorized));
  RecordProperty("seeds_reassociated", static_cast<int>(SeedsReassociated));
  RecordProperty("seeds_with_fallback", static_cast<int>(SeedsFellBack));
  RecordProperty("max_ulp_distance", static_cast<int>(MaxSeen));
}

// The optimality property test for the branch-and-bound partitioner
// (xform/IlpStrategy): on every seed, the ILP partition must (a) pass
// the same VerifyLevel::Full re-proof as any other strategy (checked by
// tryCompile and collected from its findings), (b) produce programs
// bit-identical to both the baseline oracle and the greedy c2 partition
// across the interpreter, the parallel executor and (on a subset) the
// native JIT, and (c) achieve an objective — contracted bytes — at
// least as large as greedy FUSION-FOR-CONTRACTION's. The solver is
// exact up to its node budget, and its incumbent is seeded with the
// greedy solution, so (c) must hold on every seed, budget or not.
TEST_P(StressSweepTest, IlpStrategyAgrees) {
  uint64_t Seed = GetParam();
  GeneratorConfig Cfg = sweepConfig(Seed);
  auto P = generateRandomProgram(Cfg);
  unsigned NumThreads = 1 + static_cast<unsigned>(Seed % 4); // 1..4
  driver::Pipeline PL(*P, fullVerifyOptions(NumThreads));
  ASSERT_TRUE(isWellFormed(PL.program())) << P->str();

  uint64_t RunSeed = Seed ^ 0xfeed;
  driver::CompileStatus BaseSt =
      compileFor(PL, Strategy::Baseline, ExecMode::Sequential);
  ASSERT_TRUE(certified(BaseSt)) << "baseline\n" << P->str();
  RunResult BaseRes = run(BaseSt.Artifact->LP, RunSeed);

  driver::CompileStatus GreedySt =
      compileFor(PL, Strategy::C2, ExecMode::Sequential);
  ASSERT_TRUE(certified(GreedySt)) << "c2\n" << P->str();
  driver::CompileStatus IlpSt =
      compileFor(PL, Strategy::IlpOptimal, ExecMode::Parallel);
  ASSERT_TRUE(certified(IlpSt)) << "ilp\n" << P->str();
  const StrategyResult &Greedy = *GreedySt.SR;
  const StrategyResult &Ilp = *IlpSt.SR;
  ASSERT_TRUE(isValidPartition(Ilp.Partition)) << P->str();

  // The optimality property: never a smaller objective than greedy.
  double GreedyBytes = contractedBytes(Greedy.Partition, Greedy.Contracted);
  double IlpBytes = contractedBytes(Ilp.Partition, Ilp.Contracted);
  EXPECT_GE(IlpBytes, GreedyBytes)
      << "ilp objective regressed below greedy\n" << P->str();

  // Differential execution: greedy-partitioned and ILP-partitioned
  // programs must be bit-identical to the unoptimized baseline (and so
  // to each other) on every executor.
  const auto &GreedyLP = GreedySt.Artifact->LP;
  const auto &IlpLP = IlpSt.Artifact->LP;
  std::string Why;
  ASSERT_TRUE(resultsMatch(BaseRes, run(GreedyLP, RunSeed), 0.0, &Why))
      << "greedy sequential diverged: " << Why << "\n" << P->str();
  ASSERT_TRUE(resultsMatch(BaseRes, run(IlpLP, RunSeed), 0.0, &Why))
      << "ilp sequential diverged: " << Why << "\n" << P->str();
  ASSERT_TRUE(resultsMatch(BaseRes, IlpSt.Artifact->run(RunSeed), 0.0, &Why))
      << "ilp parallel (" << NumThreads << " threads) diverged: " << Why
      << "\n" << P->str();
  if (Seed % 10 == 0 && JitEngine::compilerAvailable()) {
    driver::CompileStatus JitSt =
        compileFor(PL, Strategy::IlpOptimal, ExecMode::NativeJit);
    ASSERT_TRUE(certified(JitSt)) << "ilp jit\n" << P->str();
    JitRunInfo Info;
    RunResult JitRes = JitSt.Artifact->run(RunSeed, &Info);
    ASSERT_TRUE(Info.UsedJit) << "ilp jit fell back: " << Info.FallbackReason
                              << "\n" << P->str();
    ASSERT_TRUE(resultsMatch(BaseRes, JitRes, 0.0, &Why))
        << "ilp jit diverged: " << Why << "\n" << P->str();
  }
}

/// Rebuilds an IR right-hand side as a runtime expression over the given
/// handles. The generator emits exactly the normal-form node kinds the
/// runtime API can express.
runtime::Ex toRuntimeEx(const Expr *E,
                        const std::map<std::string, runtime::Array> &H) {
  switch (E->getKind()) {
  case Expr::ExprKind::Const:
    return runtime::Ex(cast<ConstExpr>(E)->getValue());
  case Expr::ExprKind::ArrayRef: {
    const auto *A = cast<ArrayRefExpr>(E);
    return runtime::shift(H.at(A->getSymbol()->getName()), A->getOffset());
  }
  case Expr::ExprKind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    runtime::Ex Op = toRuntimeEx(U->getOperand(), H);
    switch (U->getOpcode()) {
    case UnaryExpr::Opcode::Neg:
      return -Op;
    case UnaryExpr::Opcode::Abs:
      return runtime::eabs(Op);
    case UnaryExpr::Opcode::Sqrt:
      return runtime::esqrt(Op);
    case UnaryExpr::Opcode::Exp:
      return runtime::eexp(Op);
    case UnaryExpr::Opcode::Log:
      return runtime::elog(Op);
    case UnaryExpr::Opcode::Sin:
      return runtime::esin(Op);
    case UnaryExpr::Opcode::Cos:
      return runtime::ecos(Op);
    case UnaryExpr::Opcode::Recip:
      return runtime::recip(Op);
    }
    break;
  }
  case Expr::ExprKind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    runtime::Ex L = toRuntimeEx(B->getLHS(), H);
    runtime::Ex R = toRuntimeEx(B->getRHS(), H);
    switch (B->getOpcode()) {
    case BinaryExpr::Opcode::Add:
      return L + R;
    case BinaryExpr::Opcode::Sub:
      return L - R;
    case BinaryExpr::Opcode::Mul:
      return L * R;
    case BinaryExpr::Opcode::Div:
      return L / R;
    case BinaryExpr::Opcode::Min:
      return runtime::emin(L, R);
    case BinaryExpr::Opcode::Max:
      return runtime::emax(L, R);
    }
    break;
  }
  case Expr::ExprKind::ScalarRef:
    break;
  }
  ADD_FAILURE() << "unexpected expression kind in generated program";
  return runtime::Ex(0.0);
}

// The same generated programs replayed through the deferred-evaluation
// engine: inputs seeded exactly as the eager run seeds them, every
// statement recorded via Engine::update, live-out values compared
// bit-exactly against the eager baseline — across flush policies
// (per-statement cap, small cap, explicit-only), execution modes, with
// the trace cache cold (first replay) and warm (second replay through
// the same engine, which must add no cache misses).
TEST_P(StressSweepTest, RuntimeEngineAgrees) {
  uint64_t Seed = GetParam();
  GeneratorConfig Cfg = sweepConfig(Seed);
  Cfg.AddOpaque = false; // the runtime records normal-form statements only

  // Eager oracle.
  auto NP = generateRandomProgram(Cfg);
  normalizeProgram(*NP);
  ASDG G = ASDG::build(*NP);
  uint64_t RunSeed = Seed ^ 0xfeed;
  auto Base = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  RunResult BaseRes = run(Base, RunSeed);

  // The exact storage the eager run started from: footprint bounds and
  // seeded live-in contents, keyed by array name.
  Storage Init = allocateStorage(Base, RunSeed);
  std::map<std::string, const ArrayBuffer *> InitBuf;
  for (const ArraySymbol *A : Base.source().arrays())
    if (const ArrayBuffer *Buf = Init.buffer(A))
      InitBuf.emplace(A->getName(), Buf);

  // Pristine (pre-normalization) copy to replay statement by statement;
  // the engine's own pipeline re-derives the normalization.
  auto P = generateRandomProgram(Cfg);

  struct Policy {
    unsigned MaxTraceLen;
    ExecMode Mode;
  };
  std::vector<Policy> Policies = {
      {1, ExecMode::Sequential}, // flush per statement
      {3, ExecMode::Sequential}, // short batches
      {0, ExecMode::Sequential}, // one whole-program flush
      {0, ExecMode::Parallel},
  };
  // A few seeds also run through the native JIT so the sweep covers the
  // kernel path without compiling hundreds of kernels.
  if (Seed % 10 == 0 && JitEngine::compilerAvailable())
    Policies.push_back({0, ExecMode::NativeJit});

  for (const Policy &PC : Policies) {
    runtime::EngineOptions O;
    O.MaxTraceLen = PC.MaxTraceLen;
    O.Mode = PC.Mode;
    // Every flush's pipeline re-proves its analysis, strategy and (for
    // the parallel policy) schedule; a failed proof aborts the test.
    O.Verify = verify::VerifyLevel::Full;
    O.Parallel.NumThreads = 1 + static_cast<unsigned>(Seed % 4);
    if (PC.Mode == ExecMode::NativeJit)
      O.Jit.CacheDir = (std::filesystem::temp_directory_path() /
                        ("alf-sweep-jit-" + std::to_string(getpid())))
                           .string();
    runtime::Engine E(O);
    uint64_t MissesAfterCold = 0;

    for (int Pass = 0; Pass < 2; ++Pass) {
      std::map<std::string, runtime::Array> H;
      for (const ArraySymbol *A : P->arrays()) {
        auto It = InitBuf.find(A->getName());
        if (It == InitBuf.end())
          continue; // never referenced by any statement
        runtime::Array RA = E.input(A->getName(), It->second->bounds());
        if (A->isLiveIn())
          RA.setAll({It->second->raw().begin(), It->second->raw().end()});
        H.emplace(A->getName(), std::move(RA));
      }

      for (const Stmt *S : P->stmts()) {
        const auto *NS = dyn_cast<NormalizedStmt>(S);
        ASSERT_NE(NS, nullptr);
        E.update(H.at(NS->getLHS()->getName()), NS->getLHSOffset(),
                 *NS->getRegion(), toRuntimeEx(NS->getRHS(), H));
      }
      E.flush();

      for (const auto &[Name, Expect] : BaseRes.LiveOut) {
        auto It = H.find(Name);
        if (It == H.end())
          continue; // live-out array never referenced: all zero both ways
        std::vector<double> Got = It->second.values();
        ASSERT_EQ(Got.size(), Expect.size()) << Name;
        for (size_t I = 0; I < Got.size(); ++I)
          ASSERT_EQ(Got[I], Expect[I])
              << Name << "[" << I << "] diverged (pass " << Pass
              << ", cap=" << PC.MaxTraceLen
              << ", mode=" << getExecModeName(PC.Mode) << ")\n"
              << P->str();
      }

      if (Pass == 0)
        MissesAfterCold = E.stats().CacheMisses;
      else
        // The warm replay is structurally identical: every flush must be
        // served by the trace cache.
        EXPECT_EQ(E.stats().CacheMisses, MissesAfterCold)
            << "warm replay re-analyzed a trace (cap=" << PC.MaxTraceLen
            << ")";
    }
  }
}

// Observability must never perturb results: a subset of the sweep's
// seeds runs every executor mode once at ObsLevel::Off and once at
// ObsLevel::Trace, and the outputs must be bit-identical. Tracing adds
// clock reads and buffer appends around the kernels, so a divergence
// here means instrumentation leaked into evaluation order or storage.
TEST_P(StressSweepTest, TracedRunsAreBitIdentical) {
  uint64_t Seed = GetParam();
  if (Seed % 5 != 0)
    GTEST_SKIP() << "traced-identity subset runs every fifth seed";

  GeneratorConfig Cfg = sweepConfig(Seed);
  auto P = generateRandomProgram(Cfg);
  driver::Pipeline PL(*P, fullVerifyOptions(4));
  ASSERT_TRUE(isWellFormed(PL.program())) << P->str();
  uint64_t RunSeed = Seed ^ 0xfeed;

  // Compile and run under the current obs level, so preparation (the JIT
  // emission included) is traced along with the run.
  auto RunMode = [&](ExecMode Mode) {
    driver::CompileStatus St = compileFor(PL, Strategy::C2F3, Mode);
    EXPECT_TRUE(certified(St)) << getExecModeName(Mode) << "\n" << P->str();
    return St.ok() ? St.Artifact->run(RunSeed) : RunResult();
  };

  std::vector<ExecMode> Modes = {ExecMode::Sequential, ExecMode::Parallel};
  // JIT on a thinner subset so a cold cache compiles a bounded number of
  // kernels ($ALF_JIT_CACHE_DIR keeps CI reruns warm).
  if (Seed % 10 == 0 && JitEngine::compilerAvailable())
    Modes.push_back(ExecMode::NativeJit);

  for (ExecMode Mode : Modes) {
    RunResult Untraced, Traced;
    {
      obs::ScopedLevel Off(obs::ObsLevel::Off);
      Untraced = RunMode(Mode);
    }
    size_t EventsBefore = obs::numTraceEvents();
    {
      obs::ScopedLevel Trace(obs::ObsLevel::Trace);
      Traced = RunMode(Mode);
    }
    EXPECT_GT(obs::numTraceEvents(), EventsBefore)
        << "traced run recorded no events (" << getExecModeName(Mode)
        << ")";
    std::string Why;
    ASSERT_TRUE(resultsMatch(Untraced, Traced, 0.0, &Why))
        << getExecModeName(Mode)
        << " results changed under tracing: " << Why << "\n"
        << P->str();
  }

  // The runtime engine: replay the program once untraced, once traced,
  // and diff every handle's materialized values bit-exactly.
  {
    Cfg.AddOpaque = false;
    auto RP = generateRandomProgram(Cfg);
    normalizeProgram(*RP);
    ASDG RG = ASDG::build(*RP);
    auto Base =
        scalarize::scalarize(RG, applyStrategy(RG, Strategy::Baseline));
    Storage Init = allocateStorage(Base, RunSeed);
    std::map<std::string, const ArrayBuffer *> InitBuf;
    for (const ArraySymbol *A : Base.source().arrays())
      if (const ArrayBuffer *Buf = Init.buffer(A))
        InitBuf.emplace(A->getName(), Buf);
    auto Pristine = generateRandomProgram(Cfg);

    auto Replay = [&](obs::ObsLevel L) {
      obs::ScopedLevel Scoped(L);
      runtime::EngineOptions O;
      O.Verify = verify::VerifyLevel::Full;
      runtime::Engine E(O);
      std::map<std::string, runtime::Array> H;
      for (const ArraySymbol *A : Pristine->arrays()) {
        auto It = InitBuf.find(A->getName());
        if (It == InitBuf.end())
          continue;
        runtime::Array RA = E.input(A->getName(), It->second->bounds());
        if (A->isLiveIn())
          RA.setAll({It->second->raw().begin(), It->second->raw().end()});
        H.emplace(A->getName(), std::move(RA));
      }
      for (const Stmt *S : Pristine->stmts()) {
        const auto *NS = dyn_cast<NormalizedStmt>(S);
        EXPECT_NE(NS, nullptr);
        E.update(H.at(NS->getLHS()->getName()), NS->getLHSOffset(),
                 *NS->getRegion(), toRuntimeEx(NS->getRHS(), H));
      }
      E.flush();
      std::map<std::string, std::vector<double>> Values;
      for (auto &[Name, A] : H)
        Values.emplace(Name, A.values());
      return Values;
    };

    auto Untraced = Replay(obs::ObsLevel::Off);
    auto Traced = Replay(obs::ObsLevel::Trace);
    ASSERT_EQ(Untraced.size(), Traced.size());
    for (const auto &[Name, Expect] : Untraced) {
      const std::vector<double> &Got = Traced.at(Name);
      ASSERT_EQ(Got.size(), Expect.size()) << Name;
      for (size_t I = 0; I < Got.size(); ++I)
        ASSERT_EQ(Got[I], Expect[I])
            << Name << "[" << I
            << "] diverged between traced and untraced runtime replays\n"
            << Pristine->str();
    }
  }
}

// The safety-tier soak: every seed's program (with reductions appended so
// accumulator-init obligations exist) must certify under the static
// safety checker on every strategy, each scalarizer fault class the hook
// can plant in it must be rejected statically before anything executes,
// and a seed subset cross-checks the analyzer's "clean" verdict against
// the sanitizer-tier JIT oracle: the emitted kernel, compiled standalone
// with ASan/UBSan, must run clean out-of-process.
TEST_P(StressSweepTest, SafetyAgrees) {
  uint64_t Seed = GetParam();
  GeneratorConfig Cfg = sweepConfig(Seed);
  const auto &Regs = semiring::all();
  Cfg.NumReduce = 1 + static_cast<unsigned>(Seed % 2);
  Cfg.ReduceSemiring = Regs[Seed % Regs.size()];
  auto P = generateRandomProgram(Cfg);
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);

  // Analyzer-clean: every strategy's scalarization certifies.
  for (Strategy S : allStrategiesForTest()) {
    StrategyResult SR = applyStrategy(G, S);
    auto LP = scalarize::scalarize(G, SR);
    verify::VerifyReport R = verify::verifySafety(LP, &G);
    EXPECT_TRUE(R.ok()) << getStrategyName(S) << " reported findings on a "
                        << "clean program:\n" << R.str() << P->str();
  }

  // Each fault class the hook can plant in this seed's program must be
  // caught statically. Not every generated program has a site for every
  // mode (an edge-touching access, a surviving accumulator init, an
  // uncovered live-out plane); scalarizeCorruptionAppliedForTest
  // distinguishes "no site" from "planted and must reject".
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  using SC = scalarize::ScalarizeCorruption;
  for (SC Mode : {SC::OffByOneBound, SC::SkipAccumulatorInit,
                  SC::ShrunkenCopyOut}) {
    scalarize::setScalarizeCorruptionForTest(Mode);
    auto Bad = scalarize::scalarize(G, SR);
    bool Planted = scalarize::scalarizeCorruptionAppliedForTest();
    scalarize::setScalarizeCorruptionForTest(SC::None);
    if (!Planted)
      continue;
    EXPECT_FALSE(verify::verifySafety(Bad, &G).ok())
        << "corruption mode " << static_cast<int>(Mode)
        << " planted a memory-safety bug the checker missed\n" << P->str();
  }

  // The dynamic oracle agrees with the static verdict: analyzer-clean
  // kernels run sanitizer-clean. A thin subset keeps the number of
  // sanitizer compiles (never disk-cached) bounded.
  if (Seed % 10 == 0 && JitEngine::compilerAvailable()) {
    auto LP = scalarize::scalarize(G, SR);
    ASSERT_TRUE(verify::verifySafety(LP, &G).ok());
    SanitizedRunResult San = runSanitized(LP, Seed ^ 0xfeed);
    ASSERT_TRUE(San.Ran) << "sanitizer oracle did not run: " << San.Output;
    EXPECT_TRUE(San.Clean)
        << "analyzer-clean kernel tripped the sanitizer (exit "
        << San.ExitCode << "):\n" << San.Output << P->str();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, StressSweepTest,
                         ::testing::Range<uint64_t>(1, 51));

} // namespace

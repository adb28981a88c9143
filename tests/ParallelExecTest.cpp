//===- tests/ParallelExecTest.cpp - Parallel executor tests -----------------===//
//
// The parallel executor's contract: bit-identical results to the
// sequential interpreter for every thread count, with the UDV-based
// legality analysis deciding per nest, and contracted temporaries kept
// thread-private.
//
//===----------------------------------------------------------------------===//

#include "exec/ParallelExecutor.h"

#include "driver/Pipeline.h"
#include "exec/Interpreter.h"
#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "scalarize/Scalarize.h"
#include "obs/Obs.h"
#include "support/ThreadPool.h"
#include "xform/Parallelize.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

using namespace alf;
using namespace alf::analysis;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::xform;

namespace {

const unsigned ThreadCounts[] = {1, 2, 4, 7};

/// Sequential vs. parallel on every thread count, exact comparison.
void expectParallelMatches(const lir::LoopProgram &LP, uint64_t Seed) {
  RunResult Base = run(LP, Seed);
  for (unsigned T : ThreadCounts) {
    ParallelOptions Opts;
    Opts.NumThreads = T;
    std::string Why;
    EXPECT_TRUE(resultsMatch(Base, runParallel(LP, Seed, Opts), 0.0, &Why))
        << "threads=" << T << ": " << Why;
  }
}

TEST(ThreadPoolTest, ChunksPartitionTheRange) {
  for (int64_t Begin : {0, -3, 7}) {
    for (int64_t Size : {0, 1, 5, 16, 31}) {
      for (unsigned N : {1u, 2u, 4u, 7u}) {
        int64_t Covered = 0;
        int64_t PrevHi = Begin - 1;
        for (unsigned C = 0; C < N; ++C) {
          int64_t Lo, Hi;
          if (!ThreadPool::chunkBounds(Begin, Begin + Size, N, C, Lo, Hi))
            continue;
          EXPECT_EQ(Lo, PrevHi + 1); // contiguous, in order
          EXPECT_LE(Lo, Hi);
          Covered += Hi - Lo + 1;
          PrevHi = Hi;
        }
        EXPECT_EQ(Covered, Size);
        if (Size > 0)
          EXPECT_EQ(PrevHi, Begin + Size - 1);
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::vector<std::atomic<int>> Hits(100);
  Pool.parallelFor(0, 100, [&](int64_t B, int64_t E, unsigned Worker) {
    EXPECT_LT(Worker, 4u);
    for (int64_t I = B; I < E; ++I)
      Hits[static_cast<size_t>(I)]++;
  });
  for (const auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossManyDispatches) {
  // Tile-with-barriers issues one dispatch per outer iteration; the pool
  // must survive hundreds of small jobs.
  ThreadPool Pool(3);
  std::atomic<int64_t> Sum{0};
  for (int Round = 0; Round < 200; ++Round)
    Pool.parallelFor(0, 10, [&](int64_t B, int64_t E, unsigned) {
      for (int64_t I = B; I < E; ++I)
        Sum += I;
    });
  EXPECT_EQ(Sum.load(), 200 * 45);
}

TEST(ParallelLegalityTest, ZeroDistancesParallelizeOutermost) {
  NestParallelInput In;
  In.LSV = LoopStructureVector::identity(2);
  In.UDVs = {Offset{0, 0}};
  NestParallelPlan Plan = analyzeNestParallelism(In);
  EXPECT_EQ(Plan.ParallelLoop, 0);
  EXPECT_EQ(Plan.Decision, ParallelDecision::OuterParallel);
}

TEST(ParallelLegalityTest, OuterCarriedFallsBackToInnerLoop) {
  NestParallelInput In;
  In.LSV = LoopStructureVector::identity(2);
  In.UDVs = {Offset{1, 0}};
  NestParallelPlan Plan = analyzeNestParallelism(In);
  EXPECT_EQ(Plan.ParallelLoop, 1);
  EXPECT_EQ(Plan.Decision, ParallelDecision::InnerParallel);
  EXPECT_TRUE(Plan.needsBarriers());
}

TEST(ParallelLegalityTest, InnerCarriedStillParallelizesOutermost) {
  // (0,1): carried by the inner loop only; the outer loop is free.
  NestParallelInput In;
  In.LSV = LoopStructureVector::identity(2);
  In.UDVs = {Offset{0, 1}};
  NestParallelPlan Plan = analyzeNestParallelism(In);
  EXPECT_EQ(Plan.ParallelLoop, 0);
}

TEST(ParallelLegalityTest, EveryLoopCarriedMeansSequential) {
  NestParallelInput In;
  In.LSV = LoopStructureVector::identity(2);
  In.UDVs = {Offset{1, 0}, Offset{0, 1}};
  NestParallelPlan Plan = analyzeNestParallelism(In);
  EXPECT_FALSE(Plan.isParallel());
  EXPECT_EQ(Plan.Decision, ParallelDecision::SeqCarried);
}

TEST(ParallelLegalityTest, ReductionIsNeverParallelized) {
  NestParallelInput In;
  In.LSV = LoopStructureVector::identity(2);
  In.UDVs = {Offset{0, 0}};
  In.HasReduction = true;
  NestParallelPlan Plan = analyzeNestParallelism(In);
  EXPECT_FALSE(Plan.isParallel());
  EXPECT_EQ(Plan.Decision, ParallelDecision::SeqReduction);
}

TEST(ParallelLegalityTest, WrappedDimensionIsSkipped) {
  NestParallelInput In;
  In.LSV = LoopStructureVector::identity(2);
  In.UDVs = {Offset{0, 0}};
  In.WrappedDims = {true, false};
  NestParallelPlan Plan = analyzeNestParallelism(In);
  EXPECT_EQ(Plan.ParallelLoop, 1);
  EXPECT_EQ(Plan.Decision, ParallelDecision::InnerParallel);
}

TEST(ParallelLegalityTest, ReversedLoopRespectsConstrainedDistance) {
  // LSV (-1,2): loop 0 runs dimension 1 downward, so UDV (-1,0) becomes
  // constrained distance (1,0) — carried by the (reversed) outer loop.
  NestParallelInput In;
  In.LSV = LoopStructureVector({-1, 2});
  In.UDVs = {Offset{-1, 0}};
  NestParallelPlan Plan = analyzeNestParallelism(In);
  EXPECT_EQ(Plan.ParallelLoop, 1);
}

TEST(ParallelExecTest, ElementwiseProgramMatchesAllThreadCounts) {
  auto P = tp::makeFigure2(12, 9);
  ASDG G = ASDG::build(*P);
  for (Strategy S : allStrategiesForTest()) {
    auto LP = scalarize::scalarizeWithStrategy(G, S);
    expectParallelMatches(LP, 101);
  }
}

TEST(ParallelExecTest, ContractedTempStaysThreadPrivate) {
  // Under C2 the user temp B contracts to a scalar; every worker must see
  // its own copy or tiles would clobber each other's element values.
  auto P = tp::makeUserTempPair(33); // not divisible by 2 or 4: ragged tiles
  ASDG G = ASDG::build(*P);
  auto LP = scalarize::scalarizeWithStrategy(G, Strategy::C2);

  // The temp really is contracted, and its nest really runs parallel —
  // otherwise this test exercises nothing.
  bool SawContraction = false;
  for (const ArraySymbol *A : LP.source().arrays())
    SawContraction |= LP.isContracted(A);
  ASSERT_TRUE(SawContraction);
  ParallelSchedule Sched = planParallelism(LP);
  ASSERT_GE(Sched.numParallelNests(), 1u);

  expectParallelMatches(LP, 202);
}

TEST(ParallelExecTest, OuterCarriedNestUsesBarriersAndMatches) {
  // S1 writes A, which S0 reads at @(1,0): an anti dependence with UDV
  // (1,0). Fusing both statements is legal (the identity LSV preserves
  // it), but the merged nest's outermost loop carries the dependence, so
  // the executor must fall back to tile-with-barriers on the inner loop.
  Program P("outer-carried");
  const Region *R = P.regionFromExtents({9, 7});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  ArraySymbol *C = P.makeArray("C", 2);
  P.assign(R, C, aref(A, {1, 0}));
  P.assign(R, A, add(aref(B), cst(1.0)));
  ASDG G = ASDG::build(P);

  StrategyResult SR;
  SR.Partition = FusionPartition::trivial(G);
  SR.Partition.merge({0, 1});
  ASSERT_TRUE(isValidPartition(SR.Partition));
  auto LP = scalarize::scalarize(G, SR);

  ParallelSchedule Sched = planParallelism(LP);
  const NestParallelPlan *Plan = Sched.planForNest(LP, 0);
  ASSERT_NE(Plan, nullptr);
  EXPECT_EQ(Plan->Decision, ParallelDecision::InnerParallel);
  EXPECT_EQ(Plan->ParallelLoop, 1);

  expectParallelMatches(LP, 303);
}

TEST(ParallelExecTest, FullyCarriedNestDetectedAndRunSequentially) {
  // Anti dependences with UDVs (1,0) and (0,1): every loop of the fused
  // nest carries one of them, so no loop is parallelizable.
  Program P("fully-carried");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  ArraySymbol *C = P.makeArray("C", 2);
  ArraySymbol *D = P.makeArray("D", 2);
  P.assign(R, C, aref(A, {1, 0}));
  P.assign(R, D, aref(A, {0, 1}));
  P.assign(R, A, aref(B));
  ASDG G = ASDG::build(P);

  StrategyResult SR;
  SR.Partition = FusionPartition::trivial(G);
  SR.Partition.merge({0, 1, 2});
  ASSERT_TRUE(isValidPartition(SR.Partition));
  auto LP = scalarize::scalarize(G, SR);

  ParallelSchedule Sched = planParallelism(LP);
  const NestParallelPlan *Plan = Sched.planForNest(LP, 0);
  ASSERT_NE(Plan, nullptr);
  EXPECT_FALSE(Plan->isParallel());
  EXPECT_EQ(Plan->Decision, ParallelDecision::SeqCarried);

  expectParallelMatches(LP, 404);
}

TEST(ParallelExecTest, ReductionNestMatchesBitwise) {
  // The reducing nest stays sequential (legality), so even the scalar
  // accumulator is bitwise identical, not merely within tolerance.
  Program P("reduce");
  const Region *R = P.regionFromExtents({16, 16});
  ArraySymbol *A = P.makeArray("A", 2);
  ScalarSymbol *S = P.makeScalar("s");
  P.reduce(R, S, ReduceStmt::ReduceOpKind::Sum, aref(A));
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarizeWithStrategy(G, Strategy::Baseline);

  ParallelSchedule Sched = planParallelism(LP);
  const NestParallelPlan *Plan = Sched.planForNest(LP, 0);
  ASSERT_NE(Plan, nullptr);
  EXPECT_EQ(Plan->Decision, ParallelDecision::SeqReduction);

  RunResult Base = run(LP, 7);
  for (unsigned T : ThreadCounts) {
    ParallelOptions Opts;
    Opts.NumThreads = T;
    RunResult Par = runParallel(LP, 7, Opts);
    ASSERT_EQ(Base.ScalarsOut.count("s"), 1u);
    EXPECT_EQ(Base.ScalarsOut.at("s"), Par.ScalarsOut.at("s"));
  }
}

TEST(ParallelExecTest, PartialContractionWrapsStayCorrect) {
  auto P = tp::makeFigure2(10, 10);
  ASDG G = ASDG::build(*P);
  auto LP = scalarize::scalarizeWithPartialContraction(
      G, Strategy::C2, SequentialDims::dims({0, 1}));
  expectParallelMatches(LP, 505);
}

TEST(ParallelExecTest, RandomProgramsMatchOnAllThreadCounts) {
  for (uint64_t Seed : {11u, 23u, 37u}) {
    GeneratorConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.NumStmts = 8;
    Cfg.Extent = 7;
    Cfg.UseTwoRegions = Seed % 2 == 1;
    auto P = generateRandomProgram(Cfg);
    normalizeProgram(*P);
    ASDG G = ASDG::build(*P);
    for (Strategy S : {Strategy::Baseline, Strategy::C2, Strategy::C2F4}) {
      auto LP = scalarize::scalarizeWithStrategy(G, S);
      expectParallelMatches(LP, Seed ^ 0xabcd);
    }
  }
}

TEST(ParallelExecTest, ExecModeDispatchAndNames) {
  EXPECT_STREQ(getExecModeName(ExecMode::Sequential), "sequential");
  EXPECT_STREQ(getExecModeName(ExecMode::Parallel), "parallel");
  EXPECT_STREQ(getExecModeName(ExecMode::NativeJit), "jit");
  EXPECT_STREQ(getExecModeName(ExecMode::NativeJitSimd), "jit-simd");
  EXPECT_EQ(allExecModes().size(), 4u);
  ASSERT_TRUE(execModeNamed("jit").has_value());
  EXPECT_EQ(*execModeNamed("jit"), ExecMode::NativeJit);
  ASSERT_TRUE(execModeNamed("jit-simd").has_value());
  EXPECT_EQ(*execModeNamed("jit-simd"), ExecMode::NativeJitSimd);
  EXPECT_FALSE(execModeNamed("warp").has_value());

  auto P = tp::makeUserTempPair();
  driver::PipelineOptions PO;
  PO.Parallel.NumThreads = 4;
  driver::Pipeline PL(*P, PO);
  driver::CompileStatus SeqSt =
      PL.tryCompile(driver::CompileRequest{Strategy::C2, ExecMode::Sequential});
  driver::CompileStatus ParSt =
      PL.tryCompile(driver::CompileRequest{Strategy::C2, ExecMode::Parallel});
  ASSERT_TRUE(SeqSt.ok()) << SeqSt.Message;
  ASSERT_TRUE(ParSt.ok()) << ParSt.Message;
  EXPECT_FALSE(SeqSt.Artifact->Sched.has_value()); // no work for Sequential
  ASSERT_TRUE(ParSt.Artifact->Sched.has_value());
  RunResult Seq = SeqSt.Artifact->run(9);
  RunResult Par = ParSt.Artifact->run(9);
  EXPECT_TRUE(resultsMatch(Seq, Par));
}

TEST(ParallelExecTest, ScheduleIsReportedAndCounted) {
  obs::reset();
  auto P = tp::makeUserTempPair();
  ASDG G = ASDG::build(*P);
  auto LP = scalarize::scalarizeWithStrategy(G, Strategy::C2);
  ParallelSchedule Sched = planParallelism(LP);

  std::string Report = describeSchedule(LP, Sched);
  EXPECT_NE(Report.find("outer-parallel"), std::string::npos) << Report;
  EXPECT_NE(Report.find("no dependence carried"), std::string::npos) << Report;

  EXPECT_GE(obs::counterValue("parallel.nests_outer"), 1u);
  ParallelOptions Opts;
  Opts.NumThreads = 2;
  runParallel(LP, 1, Opts, Sched);
  EXPECT_GE(obs::counterValue("parallel.runs"), 1u);
}

} // namespace

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
#include "exec/NativeJit.h"
#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "scalarize/Scalarize.h"
#include "obs/Obs.h"
#include "support/ThreadPool.h"
#include "xform/Parallelize.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

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
        if (Size > 0) {
          EXPECT_EQ(PrevHi, Begin + Size - 1);
        }
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForRunsEveryIndexOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::vector<std::atomic<int>> Hits(100);
  Pool.parallelFor(0, 100, 4, [&](int64_t B, int64_t E, unsigned Chunk) {
    EXPECT_LT(Chunk, 4u);
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
    Pool.parallelFor(0, 10, 3, [&](int64_t B, int64_t E, unsigned) {
      for (int64_t I = B; I < E; ++I)
        Sum += I;
    });
  EXPECT_EQ(Sum.load(), 200 * 45);
}

TEST(ThreadPoolTest, TwoCallersAtOnceRunEveryIndexOnce) {
  // Two threads dispatch on one pool at once, with more chunks than
  // threads: whichever finds the pool busy runs its chunks itself.
  ThreadPool Pool(4);
  auto Dispatch = [&](std::vector<std::atomic<int>> &Hits) {
    for (int Round = 0; Round < 200; ++Round)
      Pool.parallelFor(0, 70, 7, [&](int64_t B, int64_t E, unsigned Chunk) {
        EXPECT_LT(Chunk, 7u);
        for (int64_t I = B; I < E; ++I)
          Hits[static_cast<size_t>(I)]++;
      });
  };
  std::vector<std::atomic<int>> HitsA(70), HitsB(70);
  std::thread Other([&] { Dispatch(HitsB); });
  Dispatch(HitsA);
  Other.join();
  for (size_t I = 0; I < 70; ++I) {
    EXPECT_EQ(HitsA[I].load(), 200) << I;
    EXPECT_EQ(HitsB[I].load(), 200) << I;
  }
}

TEST(ThreadPoolTest, BusyPoolRunsTheCallersChunksInOrder) {
  // One job holds the pool until a second caller's dispatch returns; that
  // dispatch must run every chunk on its own thread, in chunk order.
  ThreadPool Pool(4);
  std::atomic<bool> Holding{false}, SecondDone{false};
  std::thread Holder([&] {
    Pool.parallelFor(0, 4, 4, [&](int64_t, int64_t, unsigned Chunk) {
      if (Chunk != 0)
        return;
      Holding = true;
      while (!SecondDone)
        std::this_thread::yield();
    });
  });
  while (!Holding)
    std::this_thread::yield();
  std::vector<unsigned> Order;
  std::set<std::thread::id> Threads;
  std::vector<int> Hits(20, 0);
  Pool.parallelFor(0, 20, 5, [&](int64_t B, int64_t E, unsigned Chunk) {
    Order.push_back(Chunk);
    Threads.insert(std::this_thread::get_id());
    for (int64_t I = B; I < E; ++I)
      ++Hits[static_cast<size_t>(I)];
  });
  SecondDone = true;
  Holder.join();
  EXPECT_EQ(Order, (std::vector<unsigned>{0, 1, 2, 3, 4}));
  EXPECT_EQ(Threads, (std::set<std::thread::id>{std::this_thread::get_id()}));
  EXPECT_EQ(Hits, std::vector<int>(20, 1));
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  // A body that dispatches on its own pool runs the inner chunks itself,
  // in order, instead of waiting for workers that are busy running it.
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(4 * 30);
  std::mutex M;
  std::vector<std::string> Failures;
  Pool.parallelFor(0, 4, 4, [&](int64_t Outer, int64_t, unsigned) {
    std::vector<unsigned> Order;
    std::thread::id Self = std::this_thread::get_id();
    bool SameThread = true;
    Pool.parallelFor(0, 30, 3, [&](int64_t B, int64_t E, unsigned Chunk) {
      Order.push_back(Chunk);
      SameThread &= std::this_thread::get_id() == Self;
      for (int64_t I = B; I < E; ++I)
        Hits[static_cast<size_t>(Outer * 30 + I)]++;
    });
    if (Order != std::vector<unsigned>{0, 1, 2} || !SameThread) {
      std::lock_guard<std::mutex> Lock(M);
      Failures.push_back("outer chunk " + std::to_string(Outer));
    }
  });
  EXPECT_TRUE(Failures.empty()) << Failures.front();
  for (const auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

/// A split-nest body as an emitted kernel has it, compiled into the
/// test so the thread sanitizer sees its accesses: element I of the
/// double array at Env becomes 2 * I + 1 (plain, non-atomic stores).
void fillOddNumbers(void *Env, long Begin, long End) {
  double *Out = static_cast<double *>(Env);
  for (long I = Begin; I < End; ++I)
    Out[I] = 2.0 * static_cast<double>(I) + 1.0;
}

TEST(KernelRuntimeTest, PoolParallelForWritesEveryElementOnce) {
  // The runtime table native kernels call: chunks of the range run on the
  // shared pool, and the caller reads what they wrote once it returns.
  const exec::KernelRuntime &RT = exec::poolKernelRuntime();
  uint64_t Before = obs::counterValue("jit.parallel_dispatches");
  std::vector<double> Out(1000, -1.0);
  for (int Round = 0; Round < 20; ++Round)
    RT.ParallelFor(&RT, 3, 997, fillOddNumbers, Out.data());
  EXPECT_EQ(obs::counterValue("jit.parallel_dispatches"), Before + 20);
  for (long I = 0; I < 1000; ++I)
    EXPECT_EQ(Out[static_cast<size_t>(I)],
              I < 3 || I >= 997 ? -1.0 : 2.0 * static_cast<double>(I) + 1.0)
        << I;
}

TEST(KernelRuntimeTest, ConcurrentKernelsShareThePool) {
  // Four kernels dispatch at once: one gets the pool, the others find it
  // busy and run their chunks inline, and every buffer is complete.
  const exec::KernelRuntime &RT = exec::poolKernelRuntime();
  std::vector<std::vector<double>> Outs(4, std::vector<double>(4096, 0.0));
  std::vector<std::thread> Threads;
  for (auto &Out : Outs)
    Threads.emplace_back([&RT, &Out] {
      for (int Round = 0; Round < 50; ++Round)
        RT.ParallelFor(&RT, 0, 4096, fillOddNumbers, Out.data());
    });
  for (std::thread &T : Threads)
    T.join();
  for (const auto &Out : Outs)
    for (size_t I = 0; I < Out.size(); ++I)
      ASSERT_EQ(Out[I], 2.0 * static_cast<double>(I) + 1.0) << I;
}

TEST(ThreadPoolTest, ChunkExceptionReachesTheCaller) {
  // A chunk that throws, on a worker or on the caller, fails the
  // dispatch once every joined worker is done; the pool stays usable.
  ThreadPool Pool(4);
  for (unsigned Thrower = 0; Thrower < 8; ++Thrower)
    EXPECT_THROW(Pool.parallelFor(0, 8, 8,
                                  [&](int64_t, int64_t, unsigned Chunk) {
                                    if (Chunk == Thrower)
                                      throw std::runtime_error("chunk");
                                  }),
                 std::runtime_error);
  std::vector<std::atomic<int>> Hits(40);
  Pool.parallelFor(0, 40, 8, [&](int64_t B, int64_t E, unsigned) {
    for (int64_t I = B; I < E; ++I)
      Hits[static_cast<size_t>(I)]++;
  });
  for (const auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
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

/// The ids of this process's threads.
std::set<std::string> taskIds() {
  std::set<std::string> Ids;
  for (const auto &E : std::filesystem::directory_iterator("/proc/self/task"))
    Ids.insert(E.path().filename().string());
  return Ids;
}

TEST(ParallelExecTest, SecondRunStartsNoThread) {
  // Every parallel run shares the process-wide pool: once one run has
  // started it, a second run starts no thread. A poller lists the tasks
  // throughout the second run, so a thread started and joined inside the
  // run is seen too.
  auto P = tp::makeFigure2(400, 400);
  ASDG G = ASDG::build(*P);
  auto LP = scalarize::scalarizeWithStrategy(G, Strategy::C2);
  ParallelSchedule Sched = planParallelism(LP);
  ASSERT_GE(Sched.numParallelNests(), 1u);
  ParallelOptions Opts;
  Opts.NumThreads = 4;
  runParallel(LP, 1, Opts, Sched);

  std::atomic<bool> Done{false};
  std::set<std::string> Seen;
  std::thread Poller([&] {
    while (!Done)
      for (const std::string &Id : taskIds())
        Seen.insert(Id);
  });
  std::set<std::string> Before = taskIds(); // the poller included
  runParallel(LP, 1, Opts, Sched);
  Done = true;
  Poller.join();
  std::set<std::string> After = taskIds();

  for (const std::string &Id : Seen)
    EXPECT_TRUE(Before.count(Id)) << "thread " << Id << " started in the run";
  EXPECT_EQ(After.size() + 1, Before.size()); // all but the poller remain
}

} // namespace

//===- tests/RuntimeEngineTest.cpp - Deferred-evaluation engine tests -------===//
//
// The runtime engine's contract: recording is free (no execution until a
// flush trigger), handle liveness decides which traced arrays contract
// away, the structural trace cache makes repeated trace shapes pay
// analysis and kernel compilation once (constants and buffer contents do
// not participate in the key), and every execution mode and flush policy
// produces identical values.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include "exec/NativeJit.h"
#include "obs/Obs.h"

#include <filesystem>
#include <gtest/gtest.h>
#include <unistd.h>

using namespace alf;
using namespace alf::runtime;

namespace {

ir::Region r1(int64_t Lo, int64_t Hi) { return ir::Region({Lo}, {Hi}); }

ir::Region r2(int64_t Lo0, int64_t Hi0, int64_t Lo1, int64_t Hi1) {
  return ir::Region({Lo0, Lo1}, {Hi0, Hi1});
}

/// A 1-D input over [0..N-1] holding value i at index i.
Array rampInput(Engine &E, int64_t N, const std::string &Name = "A") {
  Array A = E.input(Name, r1(0, N - 1));
  for (int64_t I = 0; I < N; ++I)
    A.set({I}, static_cast<double>(I));
  return A;
}

TEST(RuntimeEngineTest, RecordingIsLazyAndObservationFlushes) {
  Engine E;
  Array A = rampInput(E, 6);
  Array B = E.compute(r1(1, 4), (shift(A, {-1}) + shift(A, {1})) * Ex(0.5));

  EXPECT_TRUE(B.deferred());
  EXPECT_EQ(E.pending(), 1u);
  EXPECT_EQ(E.stats().Flushes, 0u);

  EXPECT_DOUBLE_EQ(B.get({2}), (1.0 + 3.0) * 0.5);
  EXPECT_FALSE(B.deferred());
  EXPECT_EQ(E.pending(), 0u);
  EXPECT_EQ(E.stats().Flushes, 1u);
  EXPECT_EQ(E.lastFlush().Trigger, FlushTrigger::Observe);
  for (int64_t I = 1; I <= 4; ++I)
    EXPECT_DOUBLE_EQ(B.get({I}), static_cast<double>(I));
}

TEST(RuntimeEngineTest, DroppedHandlesContractHeldHandlesSurvive) {
  Engine E;
  Array A = rampInput(E, 10);
  Array C;
  {
    Array T = E.compute(r1(1, 8), Ex(A) * Ex(2.0));
    C = E.compute(r1(1, 8), Ex(T) + Ex(1.0));
  } // T dropped: dead at flush, a contraction candidate
  E.flush();
  EXPECT_EQ(E.lastFlush().Trigger, FlushTrigger::Explicit);
  EXPECT_GE(E.lastFlush().Contracted, 1u);
  for (int64_t I = 1; I <= 8; ++I)
    EXPECT_DOUBLE_EQ(C.get({I}), 2.0 * static_cast<double>(I) + 1.0);

  // Same chain with the intermediate handle held: it is live-out, cannot
  // contract, and its values are observable.
  Array T2 = E.compute(r1(1, 8), Ex(A) * Ex(2.0));
  Array C2 = E.compute(r1(1, 8), Ex(T2) + Ex(1.0));
  E.flush();
  EXPECT_EQ(E.lastFlush().Contracted, 0u);
  EXPECT_DOUBLE_EQ(T2.get({3}), 6.0);
  EXPECT_DOUBLE_EQ(C2.get({3}), 7.0);
}

TEST(RuntimeEngineTest, TraceCacheHitsOnSameStructureDifferentConstants) {
  Engine E;
  Array A = rampInput(E, 10);

  Array B1 = E.compute(r1(1, 8), Ex(A) * Ex(3.0));
  E.flush();
  EXPECT_FALSE(E.lastFlush().CacheHit);

  Array B2 = E.compute(r1(1, 8), Ex(A) * Ex(5.0));
  E.flush();
  EXPECT_TRUE(E.lastFlush().CacheHit);
  for (int64_t I = 1; I <= 8; ++I) {
    EXPECT_DOUBLE_EQ(B1.get({I}), 3.0 * static_cast<double>(I));
    EXPECT_DOUBLE_EQ(B2.get({I}), 5.0 * static_cast<double>(I));
  }

  // A different offset is a different structure: full analysis again.
  Array B3 = E.compute(r1(1, 8), shift(A, {1}) * Ex(3.0));
  E.flush();
  EXPECT_FALSE(E.lastFlush().CacheHit);
  EXPECT_DOUBLE_EQ(B3.get({4}), 15.0);
  EXPECT_EQ(E.stats().CacheHits, 1u);
  EXPECT_EQ(E.stats().CacheMisses, 2u);
}

TEST(RuntimeEngineTest, TraceLengthCapAutoFlushes) {
  EngineOptions O;
  O.MaxTraceLen = 2;
  Engine E(O);
  Array A = rampInput(E, 10);

  Array B = E.compute(r1(1, 8), Ex(A) + Ex(1.0));
  EXPECT_EQ(E.pending(), 1u);
  Array C = E.compute(r1(1, 8), Ex(B) * Ex(2.0));
  EXPECT_EQ(E.pending(), 0u); // cap reached: flushed inline
  EXPECT_EQ(E.lastFlush().Trigger, FlushTrigger::Cap);
  EXPECT_EQ(E.lastFlush().TraceLen, 2u);
  EXPECT_FALSE(B.deferred());
  EXPECT_DOUBLE_EQ(C.get({5}), 12.0);
}

TEST(RuntimeEngineTest, DirectMutationFlushesFirst) {
  Engine E;
  Array A = rampInput(E, 6);
  Array B = E.compute(r1(1, 4), Ex(A) * Ex(10.0));
  A.set({2}, 100.0); // must not retroactively change the traced B
  EXPECT_EQ(E.lastFlush().Trigger, FlushTrigger::Mutate);
  EXPECT_DOUBLE_EQ(B.get({2}), 20.0);
  Array C = E.compute(r1(1, 4), Ex(A) * Ex(10.0));
  EXPECT_DOUBLE_EQ(C.get({2}), 1000.0);
}

TEST(RuntimeEngineTest, ReductionsDeferAndResolve) {
  Engine E;
  Array A = rampInput(E, 6); // 0..5
  Scalar Sum = E.reduce(RedOp::Sum, r1(0, 5), Ex(A));
  Scalar Mx = E.reduce(RedOp::Max, r1(0, 5), Ex(A));
  EXPECT_TRUE(Sum.deferred());
  EXPECT_EQ(E.pending(), 2u);
  EXPECT_DOUBLE_EQ(Sum.value(), 15.0);
  EXPECT_FALSE(Mx.deferred()); // same flush resolved both
  EXPECT_DOUBLE_EQ(Mx.value(), 5.0);
  EXPECT_EQ(E.stats().Flushes, 1u);
}

TEST(RuntimeEngineTest, PendingScalarUsableInLaterStatements) {
  Engine E;
  Array A = rampInput(E, 5); // 0..4, sum 10
  Scalar Sum = E.reduce(RedOp::Sum, r1(0, 4), Ex(A));
  Array B = E.compute(r1(0, 4), Ex(A) * Ex(Sum));
  E.flush();
  EXPECT_EQ(E.stats().Flushes, 1u);
  for (int64_t I = 0; I <= 4; ++I)
    EXPECT_DOUBLE_EQ(B.get({I}), static_cast<double>(I) * 10.0);
}

TEST(RuntimeEngineTest, ZeroHaloSemantics) {
  Engine E;
  Array A = rampInput(E, 5); // domain [0..4]
  Array B = E.compute(r1(0, 4), shift(A, {1}) + Ex(0.0));
  // B[4] reads A[5], outside A's domain: zero halo.
  EXPECT_DOUBLE_EQ(B.get({4}), 0.0);
  EXPECT_DOUBLE_EQ(B.get({3}), 4.0);
  // Reads outside B's own domain are zero too.
  EXPECT_DOUBLE_EQ(B.get({100}), 0.0);
}

TEST(RuntimeEngineTest, InPlaceUpdateHasJacobiSemantics) {
  Engine E;
  Array A = rampInput(E, 10);
  // [1..8] A := (A@-1 + A@1)/2 — self-referencing, so normalization
  // splits it through a compiler temporary: every read sees the old A.
  E.update(A, ir::Offset({0}), r1(1, 8),
           (shift(A, {-1}) + shift(A, {1})) * Ex(0.5));
  E.flush();
  EXPECT_DOUBLE_EQ(A.get({0}), 0.0); // outside the update region: kept
  EXPECT_DOUBLE_EQ(A.get({9}), 9.0);
  for (int64_t I = 1; I <= 8; ++I)
    EXPECT_DOUBLE_EQ(A.get({I}), static_cast<double>(I)); // ramp average
}

TEST(RuntimeEngineTest, Rank2Stencil) {
  Engine E;
  Array A = E.input("A", r2(0, 5, 0, 5));
  for (int64_t I = 0; I <= 5; ++I)
    for (int64_t J = 0; J <= 5; ++J)
      A.set({I, J}, static_cast<double>(I * 10 + J));
  Array B = E.compute(r2(1, 4, 1, 4),
                      (shift(A, {-1, 0}) + shift(A, {1, 0}) +
                       shift(A, {0, -1}) + shift(A, {0, 1})) *
                          Ex(0.25));
  EXPECT_DOUBLE_EQ(B.get({2, 3}), (13.0 + 33.0 + 22.0 + 24.0) * 0.25);
  std::vector<double> Vals = B.values();
  ASSERT_EQ(Vals.size(), 16u);
  EXPECT_DOUBLE_EQ(Vals[0], B.get({1, 1}));
  EXPECT_DOUBLE_EQ(Vals[15], B.get({4, 4}));
}

/// The same three-statement chain under every flush policy must produce
/// bit-identical results: per-element arithmetic is unchanged by where
/// the trace is cut, what fuses, and what contracts.
TEST(RuntimeEngineTest, FlushPolicyDoesNotChangeValues) {
  auto RunChain = [](unsigned MaxTraceLen) {
    EngineOptions O;
    O.MaxTraceLen = MaxTraceLen;
    Engine E(O);
    Array A = rampInput(E, 12);
    Array B = E.compute(r1(1, 10), (shift(A, {-1}) + shift(A, {1})) * Ex(0.5));
    Array C = E.compute(r1(1, 10), Ex(B) * Ex(2.0) - Ex(A));
    Array D = E.compute(r1(2, 9), shift(C, {-1}) + shift(C, {1}));
    return D.values();
  };
  std::vector<double> Batched = RunChain(64);
  std::vector<double> Single = RunChain(1);
  ASSERT_EQ(Batched.size(), Single.size());
  for (size_t I = 0; I < Batched.size(); ++I)
    EXPECT_EQ(Batched[I], Single[I]) << "element " << I;
}

TEST(RuntimeEngineTest, ParallelModeMatchesSequential) {
  auto RunChain = [](xform::ExecMode Mode) {
    EngineOptions O;
    O.Mode = Mode;
    Engine E(O);
    Array A = rampInput(E, 32);
    Array B = E.compute(r1(1, 30), (shift(A, {-1}) + shift(A, {1})) * Ex(0.5));
    Array C = E.compute(r1(1, 30), Ex(B) * Ex(B) + Ex(1.0));
    return C.values();
  };
  std::vector<double> Seq = RunChain(xform::ExecMode::Sequential);
  std::vector<double> Par = RunChain(xform::ExecMode::Parallel);
  ASSERT_EQ(Seq.size(), Par.size());
  for (size_t I = 0; I < Seq.size(); ++I)
    EXPECT_EQ(Seq[I], Par[I]) << "element " << I;
}

TEST(RuntimeEngineTest, EngineDestructionMaterializesSurvivors) {
  Array B;
  {
    Engine E;
    Array A = rampInput(E, 6);
    B = E.compute(r1(1, 4), Ex(A) + Ex(100.0));
    EXPECT_TRUE(B.deferred());
  }
  EXPECT_FALSE(B.deferred());
  EXPECT_DOUBLE_EQ(B.get({3}), 103.0);
}

TEST(RuntimeEngineTest, WarmJitFlushesCompileNothing) {
  if (!exec::JitEngine::compilerAvailable())
    GTEST_SKIP() << "no usable system C compiler";
  std::string CacheDir =
      (std::filesystem::temp_directory_path() /
       ("alf-rt-jit-test-" + std::to_string(getpid())))
          .string();
  std::filesystem::remove_all(CacheDir);

  EngineOptions O;
  O.Mode = xform::ExecMode::NativeJit;
  O.Jit.CacheDir = CacheDir;
  Engine E(O);
  Array A = rampInput(E, 16);
  for (int Iter = 0; Iter < 3; ++Iter) {
    Array B =
        E.compute(r1(1, 14), (shift(A, {-1}) + shift(A, {1})) * Ex(0.5));
    E.flush();
    ASSERT_TRUE(E.lastFlush().UsedJit);
    if (Iter == 0) {
      EXPECT_FALSE(E.lastFlush().CacheHit);
      EXPECT_TRUE(E.lastFlush().Compiled);
    } else {
      // Structurally identical trace: served by the trace cache, the
      // loaded kernel reruns, the compiler is never invoked.
      EXPECT_TRUE(E.lastFlush().CacheHit);
      EXPECT_FALSE(E.lastFlush().Compiled);
    }
    EXPECT_DOUBLE_EQ(B.get({7}), 7.0);
  }
  EXPECT_EQ(E.stats().KernelCompiles, 1u);

  std::error_code EC;
  std::filesystem::remove_all(CacheDir, EC);
}

// A cached trace's artifact carries its loaded kernel, so a warm flush is
// marshal plus kernel call: only the first flush emits C (and compiles),
// every later one records no jit.emit span.
TEST(RuntimeEngineTest, WarmJitFlushesEmitNothing) {
  if (!exec::JitEngine::compilerAvailable())
    GTEST_SKIP() << "no usable system C compiler";
  std::string CacheDir =
      (std::filesystem::temp_directory_path() /
       ("alf-rt-emit-test-" + std::to_string(getpid())))
          .string();
  std::filesystem::remove_all(CacheDir);
  obs::reset();
  obs::ScopedLevel Level(obs::ObsLevel::Trace);
  auto Emits = [] {
    std::optional<obs::MetricRow> Row = obs::metricsFor("jit.emit");
    return Row ? Row->Count : 0;
  };

  EngineOptions O;
  O.Mode = xform::ExecMode::NativeJit;
  O.Jit.CacheDir = CacheDir;
  Engine E(O);
  Array A = rampInput(E, 16);
  for (int Iter = 0; Iter < 4; ++Iter) {
    Array B =
        E.compute(r1(1, 14), (shift(A, {-1}) + shift(A, {1})) * Ex(0.5));
    E.flush();
    ASSERT_TRUE(E.lastFlush().UsedJit);
    EXPECT_EQ(E.lastFlush().Compiled, Iter == 0);
    EXPECT_EQ(Emits(), 1u) << "flush " << Iter << " re-emitted the kernel";
    EXPECT_DOUBLE_EQ(B.get({7}), 7.0);
  }
  EXPECT_EQ(E.stats().KernelCompiles, 1u);

  obs::reset();
  std::error_code EC;
  std::filesystem::remove_all(CacheDir, EC);
}

TEST(RuntimeEngineTest, FlushNeverTruncatesMaterializedArrays) {
  Engine E;
  Array A = rampInput(E, 6);
  // The trace only touches A over [2..3]; A's data outside that footprint
  // must survive the flush untouched.
  Array B = E.compute(r1(2, 3), Ex(A) * Ex(2.0));
  E.flush();
  EXPECT_DOUBLE_EQ(A.get({0}), 0.0);
  EXPECT_DOUBLE_EQ(A.get({5}), 5.0);
  EXPECT_DOUBLE_EQ(B.get({3}), 6.0);

  // An in-place update of a sub-region merges: new values inside, prior
  // values outside.
  E.update(A, ir::Offset({0}), r1(4, 5), Ex(A) * Ex(2.0));
  E.flush();
  EXPECT_DOUBLE_EQ(A.get({1}), 1.0);
  EXPECT_DOUBLE_EQ(A.get({4}), 8.0);
  EXPECT_DOUBLE_EQ(A.get({5}), 10.0);
  EXPECT_DOUBLE_EQ(A.get({0}), 0.0);
}

TEST(RuntimeEngineTest, StatisticsAccumulate) {
  uint64_t Flushes0 = obs::counterValue("runtime.flushes");
  uint64_t Stmts0 = obs::counterValue("runtime.record");
  Engine E;
  Array A = rampInput(E, 6);
  Array B = E.compute(r1(1, 4), Ex(A) + Ex(1.0));
  E.flush();
  (void)B;
  EXPECT_EQ(obs::counterValue("runtime.flushes"), Flushes0 + 1);
  EXPECT_EQ(obs::counterValue("runtime.record"), Stmts0 + 1);
  EXPECT_EQ(E.stats().Flushes, 1u);
  EXPECT_EQ(E.stats().StmtsRecorded, 1u);
  EXPECT_EQ(E.stats().CacheHits + E.stats().CacheMisses, E.stats().Flushes);
}

// The obs rows for record/flush/memoize events must agree with the
// `runtime.*` counters over the same window: one miss on the first
// trace shape, one memoized hit on the structurally identical second one.
TEST(RuntimeEngineTest, ObsCountersMatchRuntimeStatistics) {
  obs::ScopedLevel Lvl(obs::ObsLevel::Counters);
  obs::reset();
  uint64_t Flushes0 = obs::counterValue("runtime.flushes");
  uint64_t Stmts0 = obs::counterValue("runtime.record");
  uint64_t Hits0 = obs::counterValue("runtime.cache.hit");
  uint64_t Misses0 = obs::counterValue("runtime.cache.miss");

  Engine E;
  Array A = rampInput(E, 8);
  Array B = E.compute(r1(1, 6), Ex(A) * Ex(2.0));
  E.flush();
  Array C = E.compute(r1(1, 6), Ex(A) * Ex(3.0));
  E.flush();
  (void)B;
  (void)C;

  uint64_t FlushDelta =
      obs::counterValue("runtime.flushes") - Flushes0;
  uint64_t StmtDelta = obs::counterValue("runtime.record") - Stmts0;
  uint64_t HitDelta =
      obs::counterValue("runtime.cache.hit") - Hits0;
  uint64_t MissDelta =
      obs::counterValue("runtime.cache.miss") - Misses0;
  ASSERT_EQ(FlushDelta, 2u);
  ASSERT_EQ(StmtDelta, 2u);
  ASSERT_EQ(MissDelta, 1u);
  ASSERT_EQ(HitDelta, 1u);

  auto Flush = obs::metricsFor("runtime.flush");
  ASSERT_TRUE(Flush.has_value());
  EXPECT_EQ(Flush->Count, FlushDelta);
  auto Record = obs::metricsFor("runtime.record");
  ASSERT_TRUE(Record.has_value());
  EXPECT_EQ(Record->Count, StmtDelta);
  auto Miss = obs::metricsFor("runtime.cache.miss");
  ASSERT_TRUE(Miss.has_value());
  EXPECT_EQ(Miss->Count, MissDelta);
  auto Hit = obs::metricsFor("runtime.cache.hit");
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Count, HitDelta);
  // The trace-cache entry is built exactly once per miss.
  auto Build = obs::metricsFor("runtime.build");
  ASSERT_TRUE(Build.has_value());
  EXPECT_EQ(Build->Count, MissDelta);

  EXPECT_EQ(E.stats().Flushes, FlushDelta);
  EXPECT_EQ(E.stats().StmtsRecorded, StmtDelta);
  EXPECT_EQ(E.stats().CacheHits, HitDelta);
  EXPECT_EQ(E.stats().CacheMisses, MissDelta);
  obs::reset();
}

} // namespace

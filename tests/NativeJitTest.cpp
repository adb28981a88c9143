//===- tests/NativeJitTest.cpp - Native JIT backend tests -------------------===//
//
// The native backend's contract: bit-identity with the sequential
// interpreter, a two-level kernel cache (memory within an engine, disk
// across engines and processes) keyed by content hash, and a fallback
// ladder that degrades every failure — missing compiler, failed compile,
// corrupt cache entry — to the interpreter with the reason recorded.
//
//===----------------------------------------------------------------------===//

#include "exec/NativeJit.h"

#include "analysis/ASDG.h"
#include "benchprogs/Benchmarks.h"
#include "driver/Pipeline.h"
#include "exec/Eval.h"
#include "exec/ParallelExecutor.h"
#include "ir/Normalize.h"
#include "obs/Obs.h"
#include "scalarize/Scalarize.h"
#include "scalarize/Schedule.h"
#include "xform/Strategy.h"

#include "TestPrograms.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <thread>
#include <unistd.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::exec;
using namespace alf::xform;

namespace {

bool HaveCompiler = JitEngine::compilerAvailable();

/// A fresh cache directory unique to this test process, removed on
/// destruction so runs never see each other's kernels.
struct TempCacheDir {
  std::string Path;
  TempCacheDir() {
    Path = (std::filesystem::temp_directory_path() /
            ("alf-jit-test-" + std::to_string(getpid())))
               .string();
    std::filesystem::remove_all(Path);
  }
  ~TempCacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

lir::LoopProgram makeLoopProgram(ir::Program &P, Strategy S = Strategy::C2) {
  ir::normalizeProgram(P);
  ASDG G = ASDG::build(P);
  return scalarize::scalarizeWithStrategy(G, S);
}

TEST(NativeJitTest, BitIdenticalToInterpreterAcrossStrategies) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;
  JitEngine Engine(Opts);

  auto P = tp::makeUserTempPair();
  ir::normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  for (Strategy S : allStrategiesForTest()) {
    auto LP = scalarize::scalarizeWithStrategy(G, S);
    RunResult Interp = run(LP, 7);
    JitRunInfo Info;
    RunResult Jit = Engine.run(LP, 7, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
    std::string Why;
    EXPECT_TRUE(resultsMatch(Interp, Jit, 0.0, &Why))
        << getStrategyName(S) << ": " << Why;
  }
}

TEST(NativeJitTest, CacheMissThenMemoryHitThenDiskHit) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;

  auto P = tp::makeFigure2();
  auto LP = makeLoopProgram(*P);

  JitEngine First(Opts);
  JitRunInfo Info;
  First.run(LP, 3, &Info);
  ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
  EXPECT_TRUE(Info.Compiled);
  EXPECT_FALSE(Info.CacheHitMemory);
  EXPECT_FALSE(Info.CacheHitDisk);
  EXPECT_TRUE(std::filesystem::exists(Info.SoPath));
  EXPECT_EQ(Info.SoPath, First.cachePathFor(LP));

  // Same engine, same kernel: served from memory, not recompiled.
  First.run(LP, 4, &Info);
  EXPECT_TRUE(Info.UsedJit);
  EXPECT_FALSE(Info.Compiled);
  EXPECT_TRUE(Info.CacheHitMemory);

  // A second engine over the same directory: loaded from disk.
  JitEngine Second(Opts);
  Second.run(LP, 5, &Info);
  EXPECT_TRUE(Info.UsedJit);
  EXPECT_FALSE(Info.Compiled);
  EXPECT_TRUE(Info.CacheHitDisk);
}

TEST(NativeJitTest, CachePathForFollowsTheVectorizeMode) {
  // A SIMD engine compiles the vectorized source; the cache entry it
  // names must be the one that source hashes to, not the scalar one.
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;
  Opts.Vectorize = true;
  JitEngine Engine(Opts);

  auto P = tp::makeUserTempPair();
  auto LP = makeLoopProgram(*P);
  JitRunInfo Info;
  Engine.run(LP, 3, &Info);
  ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
  ASSERT_GT(Info.VectorizedNests, 0u);
  EXPECT_EQ(Info.SoPath, Engine.cachePathFor(LP));
}

TEST(NativeJitTest, CorruptCacheEntryIsDiscardedAndRecompiled) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;

  auto P = tp::makeFigure2();
  auto LP = makeLoopProgram(*P);

  {
    JitEngine Engine(Opts);
    JitRunInfo Info;
    Engine.run(LP, 3, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
  }

  // Truncate the entry: dlopen must reject it, the engine must discard
  // it, recompile, and still produce the right answer.
  JitEngine Engine(Opts);
  std::string So = Engine.cachePathFor(LP);
  ASSERT_FALSE(So.empty());
  { std::ofstream(So, std::ios::trunc) << "not a shared object"; }

  uint64_t CorruptBefore = obs::counterValue("jit.cache.corrupt");
  JitRunInfo Info;
  RunResult Jit = Engine.run(LP, 3, &Info);
  EXPECT_TRUE(Info.UsedJit) << Info.FallbackReason;
  EXPECT_TRUE(Info.Compiled);
  EXPECT_FALSE(Info.CacheHitDisk);
  EXPECT_EQ(obs::counterValue("jit.cache.corrupt"),
            CorruptBefore + 1);
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(LP, 3), Jit, 0.0, &Why)) << Why;
}

TEST(NativeJitTest, CompileFailureFallsBackToInterpreter) {
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;
  Opts.Compiler = "/nonexistent/alf-no-such-compiler";
  JitEngine Engine(Opts);

  auto P = tp::makeFigure2();
  auto LP = makeLoopProgram(*P);

  uint64_t FallbacksBefore = obs::counterValue("jit.fallbacks");
  JitRunInfo Info;
  RunResult Res = Engine.run(LP, 11, &Info);
  EXPECT_FALSE(Info.UsedJit);
  EXPECT_NE(Info.FallbackReason.find("not available"), std::string::npos)
      << Info.FallbackReason;
  EXPECT_EQ(obs::counterValue("jit.fallbacks"), FallbacksBefore + 1);

  // The fallback result is the interpreter's, exactly.
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(LP, 11), Res, 0.0, &Why)) << Why;
}

TEST(NativeJitTest, BadFlagsCountAsCompileFailure) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;
  Opts.Flags = "-std=c99 -fPIC -shared --alf-definitely-not-a-flag";
  JitEngine Engine(Opts);

  auto P = tp::makeFigure2();
  auto LP = makeLoopProgram(*P);

  uint64_t FailuresBefore =
      obs::counterValue("jit.compile_failures");
  JitRunInfo Info;
  RunResult Res = Engine.run(LP, 13, &Info);
  EXPECT_FALSE(Info.UsedJit);
  EXPECT_TRUE(Info.Compiled);
  EXPECT_NE(Info.FallbackReason.find("compile failed"), std::string::npos)
      << Info.FallbackReason;
  EXPECT_EQ(obs::counterValue("jit.compile_failures"),
            FailuresBefore + 1);
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(LP, 13), Res, 0.0, &Why)) << Why;
}

TEST(NativeJitTest, SizeBoundEvictsOldestKeepsNewest) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;

  auto PA = tp::makeFigure2();
  auto LPA = makeLoopProgram(*PA, Strategy::Baseline);
  auto PB = tp::makeUserTempPair();
  auto LPB = makeLoopProgram(*PB, Strategy::C2);

  // With no bound, both kernels stay on disk.
  std::string SoA, SoB;
  {
    JitEngine Engine(Opts);
    JitRunInfo Info;
    Engine.run(LPA, 3, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
    SoA = Info.SoPath;
    Engine.run(LPB, 3, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
    SoB = Info.SoPath;
  }
  ASSERT_NE(SoA, SoB);
  EXPECT_TRUE(std::filesystem::exists(SoA));
  EXPECT_TRUE(std::filesystem::exists(SoB));

  // A bound too small for even one kernel still keeps the entry just
  // installed: evicting the kernel we are about to run would thrash.
  Opts.MaxCacheBytes = 1;
  uint64_t EvictBefore = obs::counterValue("jit.cache.evictions");
  JitEngine Bounded(Opts);
  auto PC = tp::makeTomcatvFragment();
  auto LPC = makeLoopProgram(*PC, Strategy::C2F3);
  JitRunInfo Info;
  Bounded.run(LPC, 3, &Info);
  ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
  ASSERT_TRUE(Info.Compiled);
  EXPECT_TRUE(std::filesystem::exists(Info.SoPath));
  EXPECT_FALSE(std::filesystem::exists(SoA)); // both older entries evicted
  EXPECT_FALSE(std::filesystem::exists(SoB));
  EXPECT_EQ(obs::counterValue("jit.cache.evictions"),
            EvictBefore + 2);
}

TEST(NativeJitTest, DiskHitRefreshesRecencyForEviction) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;

  auto PA = tp::makeFigure2();
  auto LPA = makeLoopProgram(*PA, Strategy::Baseline);
  auto PB = tp::makeUserTempPair();
  auto LPB = makeLoopProgram(*PB, Strategy::C2);

  auto PC = tp::makeTomcatvFragment();
  auto LPC = makeLoopProgram(*PC, Strategy::C2F3);

  // An entry is the .so plus its retained .c source.
  auto pairBytes = [](const std::string &So) {
    uint64_t N = std::filesystem::file_size(So);
    std::filesystem::path C = std::filesystem::path(So).replace_extension(".c");
    std::error_code EC;
    uint64_t CN = std::filesystem::file_size(C, EC);
    return EC ? N : N + CN;
  };

  std::string SoA, SoB, SoC;
  uint64_t BytesA, BytesC;
  {
    JitEngine Engine(Opts);
    JitRunInfo Info;
    Engine.run(LPA, 3, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
    SoA = Info.SoPath;
    BytesA = pairBytes(SoA);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Engine.run(LPB, 3, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
    SoB = Info.SoPath;
    // Compile C once just to learn its on-disk size, then drop it so the
    // bounded engine below re-installs it.
    Engine.run(LPC, 3, &Info);
    ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
    SoC = Info.SoPath;
    BytesC = pairBytes(SoC);
    std::filesystem::remove(SoC);
    std::filesystem::remove(
        std::filesystem::path(SoC).replace_extension(".c"));
  }

  // Touch A from a fresh engine (a disk hit): A becomes more recently
  // used than B even though it was installed earlier.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  {
    JitEngine Engine(Opts);
    JitRunInfo Info;
    Engine.run(LPA, 4, &Info);
    ASSERT_TRUE(Info.CacheHitDisk) << Info.FallbackReason;
  }

  // Budget fits A and C but not B as well: installing C must evict
  // exactly one entry, and LRU order says that is B.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Opts.MaxCacheBytes = BytesA + BytesC;
  JitEngine Bounded(Opts);
  JitRunInfo Info;
  Bounded.run(LPC, 3, &Info);
  ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
  ASSERT_TRUE(Info.Compiled);
  EXPECT_TRUE(std::filesystem::exists(SoA));  // recently used: survives
  EXPECT_FALSE(std::filesystem::exists(SoB)); // LRU: evicted
  EXPECT_TRUE(std::filesystem::exists(Info.SoPath));
}

TEST(NativeJitTest, ExecModeDispatchesToJit) {
  auto P = tp::makeTomcatvFragment();
  driver::Pipeline PL(*P);
  driver::CompileStatus St = PL.tryCompile(
      driver::CompileRequest{Strategy::C2F3, ExecMode::NativeJit});
  ASSERT_TRUE(St.ok()) << St.Message;
  ASSERT_TRUE(St.Artifact->Kernel.has_value());
  // Works with or without a compiler: NativeJit degrades to the
  // interpreter, so the artifact's run always agrees with exec::run.
  RunResult Seq = run(St.Artifact->LP, 21);
  RunResult Jit = St.Artifact->run(21);
  std::string Why;
  EXPECT_TRUE(resultsMatch(Seq, Jit, 0.0, &Why)) << Why;
}

// The vectorizer's legality check is only trustworthy if a nest it
// should refuse actually takes the scalar fallback. The emitter-side
// fault hook plants a cross-lane carried-dependence verdict in every
// nest of a program that demonstrably vectorizes without it; the engine
// must emit the scalar spelling instead (counted per nest in the
// jit.vectorize fallback statistic), and the faulted kernel must still
// match the interpreter bit-for-bit.
TEST(NativeJitTest, PlantedCarriedDependenceForcesScalarFallback) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;
  Opts.Vectorize = true;
  JitEngine Engine(Opts);

  auto P = tp::makeUserTempPair();
  auto LP = makeLoopProgram(*P);
  ASSERT_EQ(scalarize::simdToleranceFor(LP), support::Tolerance::Exact);

  // Control: with no fault planted, this program vectorizes.
  JitRunInfo Clean;
  RunResult CleanRes = Engine.run(LP, 29, &Clean);
  ASSERT_TRUE(Clean.UsedJit) << Clean.FallbackReason;
  ASSERT_GT(Clean.VectorizedNests, 0u);

  uint64_t FallbacksBefore =
      obs::counterValue("jit.vectorize.fallback");
  scalarize::setVectorizeFaultForTest(
      scalarize::VectorizeFault::CarriedInnermost);
  JitRunInfo Info;
  RunResult Faulted = Engine.run(LP, 29, &Info);
  bool Applied = scalarize::vectorizeFaultAppliedForTest();
  scalarize::setVectorizeFaultForTest(scalarize::VectorizeFault::None);

  ASSERT_TRUE(Applied) << "fault hook never reached the legality check";
  ASSERT_TRUE(Info.UsedJit) << Info.FallbackReason;
  EXPECT_EQ(Info.VectorizedNests, 0u);
  EXPECT_GE(Info.VectorFallbacks, Clean.VectorizedNests);
  EXPECT_GE(obs::counterValue("jit.vectorize.fallback"),
            FallbacksBefore + Info.VectorFallbacks);

  // The refused nests ran in their scalar spelling; this program is
  // declared Exact, so the faulted run, the vectorized control and the
  // interpreter all agree bit-for-bit.
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(LP, 29), Faulted, 0.0, &Why)) << Why;
  EXPECT_TRUE(resultsMatch(CleanRes, Faulted, 0.0, &Why)) << Why;
}

// jit-simd through the mode dispatcher, compiler or not: NativeJitSimd
// degrades to the interpreter exactly like NativeJit.
TEST(NativeJitTest, ExecModeDispatchesToJitSimd) {
  auto P = tp::makeTomcatvFragment();
  driver::Pipeline PL(*P);
  driver::CompileStatus St = PL.tryCompile(
      driver::CompileRequest{Strategy::C2F3, ExecMode::NativeJitSimd});
  ASSERT_TRUE(St.ok()) << St.Message;
  ASSERT_TRUE(St.Artifact->Kernel.has_value());
  const lir::LoopProgram &LP = St.Artifact->LP;
  ASSERT_EQ(scalarize::simdToleranceFor(LP), support::Tolerance::Exact);
  RunResult Seq = run(LP, 23);
  RunResult Simd = St.Artifact->run(23);
  std::string Why;
  EXPECT_TRUE(resultsMatch(Seq, Simd, 0.0, &Why)) << Why;
}

TEST(NativeJitTest, ScalarizeCheckedReportsSuccess) {
  auto P = tp::makeFigure2();
  ir::normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  std::string Error;
  auto LP = scalarize::scalarizeChecked(G, SR, &Error);
  ASSERT_TRUE(LP.has_value()) << Error;
  EXPECT_TRUE(Error.empty());
}

TEST(NativeJitTest, ContractedLookupMatchesLinearScan) {
  auto P = tp::makeUserTempPair();
  ir::normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  ASSERT_FALSE(SR.Contracted.empty());
  for (const auto *A : SR.Contracted)
    EXPECT_TRUE(SR.isContracted(A));
  for (const ir::ArraySymbol *Sym : G.getProgram().arrays()) {
    bool Linear = std::find(SR.Contracted.begin(), SR.Contracted.end(),
                            Sym) != SR.Contracted.end();
    EXPECT_EQ(SR.isContracted(Sym), Linear) << Sym->getName();
  }
}

// The obs metrics must let a reader tell a cold dispatch (one compile,
// no cache hits) apart from a warm one (zero compiles, one memory hit).
TEST(NativeJitTest, ObsMetricsDistinguishCompileFromCacheHit) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;
  JitEngine Engine(Opts);

  auto P = tp::makeUserTempPair();
  auto LP = makeLoopProgram(*P);

  obs::ScopedLevel Lvl(obs::ObsLevel::Counters);

  obs::reset();
  JitRunInfo Cold;
  Engine.run(LP, 11, &Cold);
  ASSERT_TRUE(Cold.UsedJit) << Cold.FallbackReason;
  ASSERT_TRUE(Cold.Compiled);
  auto Compile = obs::metricsFor("jit.compile");
  ASSERT_TRUE(Compile.has_value());
  EXPECT_EQ(Compile->Count, 1u);
  EXPECT_GT(Compile->TotalNs, 0u);
  auto Emit = obs::metricsFor("jit.emit");
  ASSERT_TRUE(Emit.has_value());
  EXPECT_EQ(Emit->Count, 1u);
  auto Dispatch = obs::metricsFor("jit.dispatch");
  ASSERT_TRUE(Dispatch.has_value());
  EXPECT_EQ(Dispatch->Count, 1u);
  EXPECT_GT(Dispatch->Bytes, 0u);
  EXPECT_EQ(obs::counterValue("jit.cache.memory_hit"), 0u);

  // Warm: the same engine serves the kernel from memory. Zero compiles,
  // nonzero cache hits. Emission still happens once per run because the
  // cache key is the content hash of the emitted source.
  obs::reset();
  JitRunInfo Warm;
  Engine.run(LP, 12, &Warm);
  ASSERT_TRUE(Warm.UsedJit);
  ASSERT_TRUE(Warm.CacheHitMemory);
  EXPECT_FALSE(obs::metricsFor("jit.compile").has_value());
  auto Hit = obs::metricsFor("jit.cache.memory_hit");
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Count, 1u);
  auto WarmDispatch = obs::metricsFor("jit.dispatch");
  ASSERT_TRUE(WarmDispatch.has_value());
  EXPECT_EQ(WarmDispatch->Count, 1u);
  obs::reset();
}

//===----------------------------------------------------------------------===//
// Split nests: large outer-parallel nests run in chunks on the shared pool
//===----------------------------------------------------------------------===//

/// One benchmark compiled at c2+f3, the IR kept alive with its loop
/// program.
struct SplitProgram {
  std::unique_ptr<ir::Program> P;
  std::optional<driver::CompiledProgram> CP;

  const lir::LoopProgram &LP() const { return CP->LP; }
};

SplitProgram compileC2F3(std::unique_ptr<ir::Program> P) {
  SplitProgram SP;
  SP.P = std::move(P);
  driver::Pipeline PL(*SP.P);
  driver::CompileStatus St =
      PL.tryCompile(driver::CompileRequest{Strategy::C2F3});
  EXPECT_TRUE(St.ok()) << St.Message;
  SP.CP = std::move(St.Artifact);
  return SP;
}

/// The runtime workload's grid: a 64 x 64 Jacobi sweep plus copy-back.
std::unique_ptr<ir::Program> makeJacobi64() {
  auto P = std::make_unique<ir::Program>("jacobi64");
  const ir::Region *R = P->regionFromExtents({64, 64});
  ir::ArraySymbol *A = P->makeArray("A", 2);
  ir::ArraySymbol *B = P->makeArray("B", 2);
  using namespace ir;
  P->assign(R, B,
            mul(add(add(aref(A, {-1, 0}), aref(A, {1, 0})),
                    add(aref(A, {0, -1}), aref(A, {0, 1}))),
                cst(0.25)));
  P->assign(R, A, aref(B, {0, 0}));
  return P;
}

// The nests the kernels workload's programs split at their benchmark
// sizes, and that nothing reducing or small splits.
TEST(NativeJitTest, SplitCountsAtTheKernelsSizes) {
  const auto &B = benchprogs::allBenchmarks();
  const auto &Zoo = benchprogs::zooBenchmarks();
  struct Case {
    const benchprogs::BenchmarkInfo *Info;
    int64_t N;
    unsigned Split;
  } Cases[] = {{&B[2], 256, 87},    {&B[4], 384, 35},   {&B[1], 512, 1},
               {&B[0], 1 << 18, 0}, {&B[3], 512, 0},    {&B[5], 512, 0},
               {&Zoo[2], 1 << 18, 0}};
  for (const Case &C : Cases) {
    SplitProgram SP = compileC2F3(C.Info->Build(C.N));
    ASSERT_TRUE(SP.CP.has_value());
    EXPECT_EQ(lir::splitSchedule(SP.LP()).numParallelNests(), C.Split)
        << C.Info->Name;
    for (bool Vectorize : {false, true}) {
      scalarize::CEmitOptions EO;
      EO.Vectorize = Vectorize;
      scalarize::CModule M = scalarize::emitCModule(SP.LP(), "k", EO);
      ASSERT_TRUE(M.ok()) << M.Error;
      EXPECT_EQ(M.NumParallelNests, C.Split) << C.Info->Name;
    }
  }
  SplitProgram Jacobi = compileC2F3(makeJacobi64());
  ASSERT_TRUE(Jacobi.CP.has_value());
  EXPECT_GT(planParallelism(Jacobi.LP()).numParallelNests(), 0u);
  EXPECT_EQ(lir::splitSchedule(Jacobi.LP()).numParallelNests(), 0u);
  scalarize::CEmitResult C = scalarize::emitC(Jacobi.LP(), "kernel");
  ASSERT_TRUE(C.ok()) << C.Error;
  const std::string &Src = C.Source;
  EXPECT_EQ(Src.find("alf_rt"), std::string::npos) << Src;
}

// At --verify=full a JIT compile proves the nests its kernel will split
// race-free, as it proves the parallel executor's schedule; at
// structural it does not.
TEST(NativeJitTest, FullVerifyProvesTheSplitNests) {
  for (verify::VerifyLevel Level :
       {verify::VerifyLevel::Structural, verify::VerifyLevel::Full}) {
    auto P = benchprogs::buildFrac(512);
    driver::PipelineOptions PO;
    PO.Verify = Level;
    driver::Pipeline PL(*P, PO);
    uint64_t Checks = obs::counterValue("verify.race_checks");
    uint64_t Certified = obs::counterValue("verify.nests_certified_parallel");
    driver::CompileStatus St = PL.tryCompile(
        driver::CompileRequest{Strategy::C2F3, ExecMode::NativeJit});
    ASSERT_TRUE(St.ok()) << St.Message;
    bool Full = Level == verify::VerifyLevel::Full;
    EXPECT_EQ(obs::counterValue("verify.race_checks"), Checks + Full);
    EXPECT_EQ(obs::counterValue("verify.nests_certified_parallel"),
              Certified + Full);
  }
}

/// The run of \p K on storage seeded with \p Seed under \p Runtime.
RunResult runSplit(const PreparedKernel &K, const lir::LoopProgram &LP,
                   uint64_t Seed, const KernelRuntime *Runtime,
                   JitRunInfo *Info = nullptr) {
  Storage Store = allocateStorage(LP, Seed);
  JitEngine::runPrepared(K, LP, Store, Info, Runtime);
  return collectResults(LP, Store);
}

// Both tiers: the kernels' split programs give the same bits with the
// pool's runtime as with no runtime (each split nest in one call), and
// the scalar tier matches the interpreter exactly.
TEST(NativeJitTest, SplitKernelsAreBitIdenticalWithAndWithoutThePool) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  const auto &B = benchprogs::allBenchmarks();
  struct Case {
    const benchprogs::BenchmarkInfo *Info;
    int64_t N;
    unsigned Split;
  } Cases[] = {{&B[2], 256, 87}, {&B[4], 384, 35}, {&B[1], 512, 1}};
  for (bool Vectorize : {false, true}) {
    JitOptions Opts;
    Opts.CacheDir = Cache.Path;
    Opts.Vectorize = Vectorize;
    JitEngine Engine(Opts);
    for (const Case &C : Cases) {
      SCOPED_TRACE(C.Info->Name + (Vectorize ? " jit-simd" : " jit"));
      SplitProgram SP = compileC2F3(C.Info->Build(C.N));
      ASSERT_TRUE(SP.CP.has_value());
      PreparedKernel K = Engine.prepare(SP.LP());
      ASSERT_TRUE(K.Entry) << K.Info.FallbackReason;
      EXPECT_EQ(K.Info.ParallelNests, C.Split);

      uint64_t Before = obs::counterValue("jit.parallel_dispatches");
      JitRunInfo Info;
      RunResult Pooled =
          runSplit(K, SP.LP(), 5, &poolKernelRuntime(), &Info);
      EXPECT_TRUE(Info.UsedJit);
      EXPECT_EQ(Info.ParallelNests, C.Split);
      EXPECT_GE(obs::counterValue("jit.parallel_dispatches"),
                Before + C.Split);
      RunResult Serial = runSplit(K, SP.LP(), 5, nullptr);
      std::string Why;
      EXPECT_TRUE(resultsMatch(Serial, Pooled, 0.0, &Why)) << Why;
      if (!Vectorize) {
        EXPECT_TRUE(resultsMatch(run(SP.LP(), 5), Pooled, 0.0, &Why)) << Why;
      }
    }
  }
}

// One prepared kernel run by four threads at once: the pool takes one
// caller's nests and the others run theirs inline, and every result is
// the serial one.
TEST(NativeJitTest, ConcurrentRunsOfOneSplitKernelAgree) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  JitOptions Opts;
  Opts.CacheDir = Cache.Path;
  Opts.Vectorize = true;
  JitEngine Engine(Opts);
  SplitProgram SP = compileC2F3(benchprogs::buildSP(256));
  ASSERT_TRUE(SP.CP.has_value());
  PreparedKernel K = Engine.prepare(SP.LP());
  ASSERT_TRUE(K.Entry) << K.Info.FallbackReason;
  ASSERT_GT(K.Info.ParallelNests, 0u);

  RunResult Reference = runSplit(K, SP.LP(), 9, nullptr);
  std::vector<RunResult> Got(4);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Got.size(); ++T)
    Threads.emplace_back([&, T] {
      Got[T] = runSplit(K, SP.LP(), 9, &poolKernelRuntime());
    });
  for (std::thread &T : Threads)
    T.join();
  for (const RunResult &R : Got) {
    std::string Why;
    EXPECT_TRUE(resultsMatch(Reference, R, 0.0, &Why)) << Why;
  }
}

// The sanitizer harness runs split nests through their functions, one
// serial call each, and the split kernel stays clean under ASan/UBSan.
TEST(NativeJitTest, SplitProgramRunsSanitizerClean) {
  if (!HaveCompiler)
    GTEST_SKIP() << "no usable system C compiler";
  TempCacheDir Cache;
  SplitProgram SP = compileC2F3(benchprogs::buildFrac(512));
  ASSERT_TRUE(SP.CP.has_value());
  ASSERT_EQ(lir::splitSchedule(SP.LP()).numParallelNests(), 1u);
  for (bool Vectorize : {false, true}) {
    JitOptions Opts;
    Opts.CacheDir = Cache.Path;
    Opts.Vectorize = Vectorize;
    SanitizedRunResult R = runSanitized(SP.LP(), 3, Opts);
    if (!R.Ran)
      GTEST_SKIP() << "sanitized build unavailable: " << R.Output;
    EXPECT_TRUE(R.Clean) << R.Output;
  }
}

} // namespace

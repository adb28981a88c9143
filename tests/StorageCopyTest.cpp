//===- tests/StorageCopyTest.cpp - No copies on the result path --------------===//
//
// Every run(Seed) path allocates storage, runs, and hands the live-out
// buffers to RunResult by moving them: the always-on counter
// exec.storage.bytes_copied must not move across exec::run,
// JitEngine::run and CompiledProgram::run(Seed) in every exec mode. The
// runtime engine's flush still copies its slots in and out of handles
// and counts those bytes; that is the one copy path left. The last test
// runs every exec mode on storages large enough to live in a slab.
//
//===----------------------------------------------------------------------===//

#include "benchprogs/Benchmarks.h"
#include "driver/Pipeline.h"
#include "exec/Eval.h"
#include "exec/NativeJit.h"
#include "obs/Obs.h"
#include "runtime/Runtime.h"
#include "scalarize/CEmitter.h"
#include "support/Ulp.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <unistd.h>

using namespace alf;
using namespace alf::exec;
using namespace alf::xform;

namespace {

uint64_t bytesCopied() {
  return obs::counterValue("exec.storage.bytes_copied");
}

/// A fresh JIT cache directory unique to this test process.
struct TempCacheDir {
  std::string Path;
  TempCacheDir() {
    Path = (std::filesystem::temp_directory_path() /
            ("alf-storage-copy-test-" + std::to_string(getpid())))
               .string();
    std::filesystem::remove_all(Path);
  }
  ~TempCacheDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
};

/// Total elements over every live-out array of \p R.
size_t liveOutElements(const RunResult &R) {
  size_t N = 0;
  for (const auto &[Name, Data] : R.LiveOut)
    N += Data.size();
  return N;
}

TEST(StorageCopyTest, RunPathsCopyNoBytes) {
  TempCacheDir Cache;
  JitOptions JO;
  JO.CacheDir = Cache.Path;
  JitEngine Jit(JO);
  driver::PipelineOptions PO;
  PO.Jit.CacheDir = Cache.Path;

  size_t Moved = 0;
  for (const benchprogs::BenchmarkInfo &Info : benchprogs::allBenchmarks()) {
    auto P = Info.Build(8);
    driver::Pipeline PL(*P, PO);
    const uint64_t Seed = 3;
    uint64_t Before = bytesCopied();

    lir::LoopProgram LP = PL.scalarize(Strategy::C2F3);
    RunResult Ref = exec::run(LP, Seed);
    Moved += liveOutElements(Ref);
    Storage Store = allocateStorage(LP, Seed);
    uint64_t Allocated = Store.totalBytes();
    runOnStorage(LP, Store);
    EXPECT_EQ(liveOutElements(collectResults(LP, Store)),
              liveOutElements(Ref));
    EXPECT_EQ(Store.totalBytes(), Allocated)
        << Info.Name << ": taking live-outs changed totalBytes()";
    EXPECT_EQ(liveOutElements(Jit.run(LP, Seed)), liveOutElements(Ref))
        << Info.Name << " JitEngine::run";

    for (ExecMode M : {ExecMode::Sequential, ExecMode::Parallel,
                       ExecMode::NativeJit, ExecMode::NativeJitSimd}) {
      driver::CompileStatus St =
          PL.tryCompile(driver::CompileRequest{Strategy::C2F3, M});
      ASSERT_TRUE(St.ok() && St.Artifact)
          << Info.Name << " " << getExecModeName(M) << ": " << St.Message;
      EXPECT_EQ(liveOutElements(St.Artifact->run(Seed)),
                liveOutElements(Ref))
          << Info.Name << " " << getExecModeName(M);
    }
    EXPECT_EQ(bytesCopied(), Before)
        << Info.Name << ": a run(Seed) path copied array bytes";
  }
  EXPECT_GT(Moved, 0u) << "no benchmark returned a live-out array";
}

TEST(StorageCopyTest, RuntimeFlushStillCopies) {
  // The runtime engine copies a materialized live-in handle into its
  // slot's buffer and the written slot back out to its handle.
  runtime::Engine E;
  runtime::Array A = E.input("a", ir::Region({1}, {8}));
  for (int64_t I = 1; I <= 8; ++I)
    A.set({I}, static_cast<double>(I));
  uint64_t Before = bytesCopied();
  runtime::Array B =
      E.compute(ir::Region({1}, {8}), runtime::Ex(A) * runtime::Ex(2.0));
  E.flush();
  EXPECT_DOUBLE_EQ(B.get({8}), 16.0);
  EXPECT_EQ(bytesCopied() - Before, 2 * 8 * sizeof(double))
      << "8 elements copied in for a, 8 copied out for b";
}

/// True when every live-out value and scalar of \p A and \p B agree
/// under \p Tol (the SIMD tier's declared 16384-ULP budget for
/// ReassociatedFloat); otherwise describes the first difference in \p Why.
bool agreeUnder(const RunResult &A, const RunResult &B, support::Tolerance Tol,
                std::string &Why) {
  auto Agree = [Tol](double X, double Y) {
    return support::agreeWithin(X, Y, Tol, /*MaxUlps=*/16384);
  };
  if (A.LiveOut.size() != B.LiveOut.size() ||
      A.ScalarsOut.size() != B.ScalarsOut.size()) {
    Why = "different result sets";
    return false;
  }
  for (const auto &[Name, Data] : A.LiveOut) {
    auto It = B.LiveOut.find(Name);
    if (It == B.LiveOut.end() || It->second.size() != Data.size()) {
      Why = "array " + Name + " missing or resized";
      return false;
    }
    for (size_t I = 0; I < Data.size(); ++I)
      if (!Agree(Data[I], It->second[I])) {
        Why = "array " + Name + " differs at element " + std::to_string(I);
        return false;
      }
  }
  for (const auto &[Name, V] : A.ScalarsOut)
    if (!Agree(V, B.ScalarsOut.at(Name))) {
      Why = "scalar " + Name + " differs";
      return false;
    }
  return true;
}

TEST(StorageCopyTest, ExecModesAgreeAtSlabSize) {
  // The other cross-backend tests run below one huge page, on heap
  // payloads. Tomcatv at N = 200 (7 arrays, 2.2 MiB) and SP at N = 80
  // (2.9 MiB) put every payload in a slab; each mode must still match
  // the interpreter bit for bit, except jit-simd's + folds, which get
  // the declared ULP budget.
  TempCacheDir Cache;
  driver::PipelineOptions PO;
  PO.Jit.CacheDir = Cache.Path;
  const auto &Benchmarks = benchprogs::allBenchmarks();
  const std::pair<const benchprogs::BenchmarkInfo *, int64_t> Cases[] = {
      {&Benchmarks[3], 200}, {&Benchmarks[2], 80}};
  for (const auto &[Info, N] : Cases) {
    ASSERT_TRUE(Info->Name == "Tomcatv" || Info->Name == "SP") << Info->Name;
    auto P = Info->Build(N);
    driver::Pipeline PL(*P, PO);
    const uint64_t Seed = 9;
    uint64_t SlabBefore = obs::counterValue("exec.storage.slab_bytes");
    RunResult Ref = exec::run(PL.scalarize(Strategy::C2F3), Seed);
    ASSERT_GT(obs::counterValue("exec.storage.slab_bytes"), SlabBefore)
        << Info->Name << " at N = " << N << " fits below one huge page";
    for (ExecMode M : {ExecMode::Sequential, ExecMode::Parallel,
                       ExecMode::NativeJit, ExecMode::NativeJitSimd}) {
      driver::CompileStatus St =
          PL.tryCompile(driver::CompileRequest{Strategy::C2F3, M});
      ASSERT_TRUE(St.ok() && St.Artifact)
          << Info->Name << " " << getExecModeName(M) << ": " << St.Message;
      support::Tolerance Tol =
          M == ExecMode::NativeJitSimd
              ? scalarize::simdToleranceFor(St.Artifact->LP)
              : support::Tolerance::Exact;
      std::string Why;
      EXPECT_TRUE(agreeUnder(Ref, St.Artifact->run(Seed), Tol, Why))
          << Info->Name << " " << getExecModeName(M) << ": " << Why;
    }
  }
}

} // namespace

//===- perfbench/src/KernelsWorkload.cpp - The kernels workload -------------===//
//
// The six paper benchmarks plus k-NN, compiled once at c2+f3 during
// set-up and then executed warm through the jit-simd tier with
// JitEngine::run(LP, seed): seeded inputs in, results out. Sizes put the
// largest footprints at tens of MB (well past a per-core L2) and every
// kernel above about half a millisecond, so the exec layers (allocation
// and input seeding, kernel, result collection) do the work and no
// analysis runs in the timed region. Each program alternates between two
// input seeds derived from the run seed.
//
// A traced run alternates untraced rounds with traced rounds. A traced
// round takes JitEngine::run apart into the public calls it is made of:
// exec::allocateStorage, JitEngine::runOnStorage on that storage,
// exec::collectResults and the storage's release, and additionally times
// one scalarize::emitCModule, the C re-emission runOnStorage repeats on
// every warm call.
//
// Check (after the timed region): every timed result hashes bit-equal to
// an untimed re-run of the same (program, seed), and that re-run matches
// the Baseline strategy (no fusion, no contraction) on the scalar JIT
// within scalarize::simdToleranceFor.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "benchprogs/Benchmarks.h"
#include "driver/Pipeline.h"
#include "exec/Eval.h"
#include "exec/Interpreter.h"
#include "exec/NativeJit.h"
#include "scalarize/CEmitter.h"
#include "support/Ulp.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <iostream>
#include <map>

using namespace alf;
using namespace perfbench;

namespace {

struct KernelSpec {
  const char *Name;
  const benchprogs::BenchmarkInfo *Info;
  int64_t N;
};

std::vector<KernelSpec> kernelSpecs() {
  const auto &B = benchprogs::allBenchmarks();
  const auto &Zoo = benchprogs::zooBenchmarks();
  return {{"ep", &B[0], 1 << 18},    {"frac", &B[1], 512},
          {"sp", &B[2], 256},        {"tomcatv", &B[3], 512},
          {"simple", &B[4], 384},    {"fibro", &B[5], 512},
          {"knn", &Zoo[2], 1 << 18}};
}

/// One compiled program: the IR must outlive its loop program.
struct Kernel {
  KernelSpec Spec;
  std::string Name;
  std::unique_ptr<ir::Program> P;
  std::optional<driver::CompiledProgram> CP;
  uint64_t StorageBytes = 0;
};

struct KernelsState {
  std::unique_ptr<PrivateDir> Dir;
  std::unique_ptr<exec::JitEngine> Jit;
  std::vector<Kernel> Kernels;
  double ColdCompileSec = 0;
  unsigned VectorizedNests = 0, VectorFallbacks = 0;
};

driver::PipelineOptions pipelineOptions() {
  driver::PipelineOptions PO;
  PO.Verify = verify::VerifyLevel::Structural;
  return PO;
}

/// Compiles every program at c2+f3 and primes a fresh jit-simd engine
/// (private kernel cache, so every set-up pays its cc invocations).
std::unique_ptr<KernelsState> setUp(unsigned Rep, Report &R) {
  auto S = std::make_unique<KernelsState>();
  S->Dir = std::make_unique<PrivateDir>("kernels-cache-" + std::to_string(Rep));
  exec::JitOptions JO;
  JO.CacheDir = S->Dir->path();
  JO.Vectorize = true;
  S->Jit = std::make_unique<exec::JitEngine>(JO);
  for (const KernelSpec &Spec : kernelSpecs()) {
    Kernel K;
    K.Spec = Spec;
    K.Name = Spec.Name;
    K.P = Spec.Info->Build(Spec.N);
    {
      driver::Pipeline PL(*K.P, pipelineOptions());
      driver::CompileStatus St =
          PL.tryCompile(driver::CompileRequest{xform::Strategy::C2F3});
      if (!St.ok() || !St.Artifact) {
        R.problem(K.Name + ": c2+f3 compile failed: " + St.Message);
        continue;
      }
      K.CP = std::move(St.Artifact);
    }
    exec::Storage Store = exec::allocateStorage(K.CP->LP, 0);
    K.StorageBytes = Store.totalBytes();
    exec::JitRunInfo Info;
    double T0 = nowSec();
    S->Jit->runOnStorage(K.CP->LP, Store, &Info);
    S->ColdCompileSec += nowSec() - T0;
    if (!Info.UsedJit)
      R.problem(K.Name + ": jit-simd fell back: " + Info.FallbackReason);
    S->VectorizedNests += Info.VectorizedNests;
    S->VectorFallbacks += Info.VectorFallbacks;
    S->Kernels.push_back(std::move(K));
  }
  return S;
}

/// Exact fingerprint of a result: every bit of every value, in order.
uint64_t digest(const exec::RunResult &RR) {
  uint64_t H = 1469598103934665603ULL;
  auto Mix = [&H](double D) {
    uint64_t Bits;
    std::memcpy(&Bits, &D, sizeof(Bits));
    H = (H ^ Bits) * 1099511628211ULL;
  };
  for (const auto &[Name, Data] : RR.LiveOut)
    for (double D : Data)
      Mix(D);
  for (const auto &[Name, V] : RR.ScalarsOut)
    Mix(V);
  return H;
}

/// True when \p A and \p B agree under \p Tol. Exact means bit-equal.
/// ReassociatedFloat allows the SIMD tier's ULP budget or, for sums too
/// long for it, the rounding bound of reordering an \p Terms-term sum.
bool agree(double A, double B, support::Tolerance Tol, double Terms) {
  const uint64_t MaxUlps = 16384; // the SIMD tier's declared budget
  if (support::agreeWithin(A, B, Tol, MaxUlps))
    return true;
  if (Tol == support::Tolerance::Exact)
    return false;
  double Scale = std::max({1.0, std::fabs(A), std::fabs(B)});
  return std::fabs(A - B) <= Terms * DBL_EPSILON * Scale;
}

/// Compares a jit-simd result with the Baseline reference; "" when they
/// agree.
std::string compareToReference(const exec::RunResult &Got,
                               const exec::RunResult &Ref,
                               support::Tolerance Tol, double Terms) {
  if (Got.LiveOut.size() != Ref.LiveOut.size() ||
      Got.ScalarsOut.size() != Ref.ScalarsOut.size())
    return "different live-out sets";
  for (const auto &[Name, Data] : Ref.LiveOut) {
    auto It = Got.LiveOut.find(Name);
    if (It == Got.LiveOut.end() || It->second.size() != Data.size())
      return "array " + Name + " missing or resized";
    for (size_t I = 0; I < Data.size(); ++I)
      if (!agree(It->second[I], Data[I], Tol, Terms))
        return "array " + Name + " differs at element " + std::to_string(I);
  }
  for (const auto &[Name, V] : Ref.ScalarsOut) {
    auto It = Got.ScalarsOut.find(Name);
    if (It == Got.ScalarsOut.end() || !agree(It->second, V, Tol, Terms))
      return "scalar " + Name + " differs";
  }
  return "";
}

struct RoundLayers {
  double Alloc = 0, Emit = 0, Dispatch = 0, Collect = 0, Release = 0;
  double total() const { return Alloc + Emit + Dispatch + Collect + Release; }
};

} // namespace

void perfbench::runKernelsWorkload(const Options &Opts, Report &R) {
  double SetupSec = 0;
  std::unique_ptr<KernelsState> S =
      repeatSetup([&](unsigned Rep) { return setUp(Rep, R); }, SetupSec);
  std::vector<Kernel> &Ks = S->Kernels;
  const size_t NK = Ks.size();
  auto SeedOf = [&](size_t K, unsigned Which) {
    return mixSeed(Opts.Seed, 2 * K + Which);
  };

  std::vector<std::vector<double>> RunSec(NK);
  std::map<std::pair<size_t, unsigned>, std::vector<uint64_t>> Digests;
  std::vector<double> RoundSec, TracedRoundSec;
  std::vector<RoundLayers> Traced;
  scalarize::CEmitOptions EmitOpts;
  EmitOpts.Vectorize = true;

  double Deadline = nowSec() + Opts.Seconds;
  for (unsigned Round = 0;; ++Round) {
    bool IsTraced = Opts.Trace && Round % 2 == 1;
    unsigned Which = (Round / (Opts.Trace ? 2 : 1)) % 2;
    RoundLayers L;
    double CheckSec = 0;
    double Start = nowSec();
    for (size_t K = 0; K < NK; ++K) {
      const lir::LoopProgram &LP = Ks[K].CP->LP;
      uint64_t Seed = SeedOf(K, Which);
      exec::RunResult RR;
      if (!IsTraced) {
        double T0 = nowSec();
        RR = S->Jit->run(LP, Seed);
        RunSec[K].push_back(nowSec() - T0);
      } else {
        double T0 = nowSec();
        double T4;
        {
          exec::Storage Store = exec::allocateStorage(LP, Seed);
          double T1 = nowSec();
          scalarize::CModule M = scalarize::emitCModule(LP, "alf_kernel",
                                                        EmitOpts);
          double T2 = nowSec();
          S->Jit->runOnStorage(LP, Store);
          double T3 = nowSec();
          RR = exec::collectResults(LP, Store);
          T4 = nowSec();
          L.Alloc += T1 - T0;
          L.Emit += T2 - T1;
          L.Dispatch += T3 - T2;
          L.Collect += T4 - T3;
        }
        L.Release += nowSec() - T4;
      }
      CheckTimer Check(CheckSec);
      R.attempted();
      Digests[{K, Which}].push_back(digest(RR));
    }
    double Sec = nowSec() - Start - CheckSec;
    if (IsTraced) {
      Traced.push_back(L);
      TracedRoundSec.push_back(Sec);
    } else {
      RoundSec.push_back(Sec);
    }
    if (nowSec() >= Deadline && (!Opts.Trace || Round >= 1))
      break;
  }
  double PeakRss = peakRssMb();

  // Correctness, outside the timed region: every timed result must equal
  // a re-run bit for bit, and the re-run must match the Baseline program
  // (separately built, no fusion or contraction) on the scalar JIT.
  PrivateDir RefDir("kernels-reference");
  exec::JitOptions RefJO;
  RefJO.CacheDir = RefDir.path();
  exec::JitEngine RefJit(RefJO);
  double CheckStart = nowSec();
  for (size_t K = 0; K < NK; ++K) {
    const lir::LoopProgram &LP = Ks[K].CP->LP;
    const KernelSpec &Spec = Ks[K].Spec;
    std::unique_ptr<ir::Program> BaseP = Spec.Info->Build(Spec.N);
    double Terms = static_cast<double>(Spec.N) * (Spec.Info->Rank == 1 ? 1 : Spec.N);
    driver::Pipeline BasePL(*BaseP, pipelineOptions());
    driver::CompileStatus BaseSt =
        BasePL.tryCompile(driver::CompileRequest{xform::Strategy::Baseline});
    support::Tolerance Tol = scalarize::simdToleranceFor(LP);
    for (unsigned Which = 0; Which < 2; ++Which) {
      auto It = Digests.find({K, Which});
      if (It == Digests.end())
        continue;
      uint64_t Seed = SeedOf(K, Which);
      exec::RunResult Again = S->Jit->run(LP, Seed);
      uint64_t Want = digest(Again);
      for (uint64_t D : It->second)
        if (D != Want)
          R.fail(Ks[K].Name + ": a timed run differs from its re-run");
      std::string Why = "baseline compile failed";
      if (BaseSt.ok() && BaseSt.Artifact) {
        exec::JitRunInfo Info;
        exec::RunResult Ref = RefJit.run(BaseSt.Artifact->LP, Seed, &Info);
        Why = compareToReference(Again, Ref, Tol, Terms);
      }
      if (!Why.empty()) {
        // Every timed run of this (program, seed) returned this result.
        for (size_t I = 0; I < It->second.size(); ++I)
          R.fail(Ks[K].Name + " vs baseline: " + Why);
      }
    }
  }

  std::cerr << "kernels: set-up " << SetupSec << " s (median of "
            << SetupReps << "), check "
            << nowSec() - CheckStart << " s\n";

  // End-to-end: one operation is one warm JitEngine::run.
  std::vector<double> Med;
  double StorageMb = 0;
  for (size_t K = 0; K < NK; ++K) {
    Med.push_back(median(RunSec[K]));
    StorageMb += static_cast<double>(Ks[K].StorageBytes) / (1 << 20);
    std::cerr << "kernels: " << Ks[K].Name << " storage "
              << static_cast<double>(Ks[K].StorageBytes) / (1 << 20)
              << " MiB, run p10/p50/p90 "
              << percentile(RunSec[K], 0.1) * 1e3 << "/" << Med.back() * 1e3
              << "/" << percentile(RunSec[K], 0.9) * 1e3 << " ms over "
              << RunSec[K].size() << " runs\n";
  }
  reportEndToEnd(R, SetupSec, PeakRss, RunSec, sum(RoundSec), 0.9);

  // Per-layer: each call's share of the traced rounds' wall time.
  const double TracedSec = sum(TracedRoundSec);
  auto Share = [&](double RoundLayers::*F) {
    double Sec = 0;
    for (const RoundLayers &L : Traced)
      Sec += L.*F;
    return Sec / TracedSec;
  };
  R.layer("exec.alloc_frac", Share(&RoundLayers::Alloc), "frac");
  R.layer("scalarize.emit_frac", Share(&RoundLayers::Emit), "frac");
  R.layer("exec.jit_dispatch_frac", Share(&RoundLayers::Dispatch), "frac");
  R.layer("exec.collect_frac", Share(&RoundLayers::Collect), "frac");
  R.layer("exec.release_frac", Share(&RoundLayers::Release), "frac");
  double Attributed = 0;
  for (const RoundLayers &L : Traced)
    Attributed += L.total();
  R.layer("trace.unattributed_frac", 1 - Attributed / TracedSec, "frac");
  // Each program's share of an untraced round: its median run against the
  // sum over the seven.
  for (size_t K = 0; K < NK; ++K)
    R.layer("exec.run." + Ks[K].Name + "_frac", Med[K] / sum(Med), "frac");
  R.layer("exec.storage_mb", StorageMb, "MiB");
  R.mustRepeat("exec.storage_mb", StorageMb);
  R.count("exec.jit_vectorized_nests", S->VectorizedNests);
  R.layer("exec.jit_vector_fallbacks", S->VectorFallbacks, "count");
  R.layer("exec.jit_cold_compile_frac", S->ColdCompileSec / SetupSec, "frac");
  R.layer("trace.overhead_frac",
          median(TracedRoundSec) / median(RoundSec) - 1, "frac");
}

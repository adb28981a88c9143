//===- tools/alf_bench.cpp - Deterministic perf-regression harness -----------===//
//
// Runs a pinned suite of end-to-end pipeline configurations — the
// paper's six benchmarks compiled and executed under C2F3, a fig8-style
// problem-size sweep, the parallel executor, native-JIT cold-compile vs
// warm-dispatch, the runtime engine's steady state, and an
// observability-overhead pair — and writes one BENCH_10.json with
// per-benchmark medians plus the aggregated obs metrics table.
//
// Usage: alf_bench [--out=BENCH_10.json] [--compare=baseline.json]
//                  [--tolerance=2.0] [--repeat=5] [--reduced]
//                  [--filter=substr] [--trace=out.json] [--metrics]
//                  [--list] [--selftest]
//
// The suite, its names and its seeds are pinned: two runs of the same
// binary execute exactly the same work, so medians are comparable run
// to run and file to file. `--compare` reloads a previous BENCH_10.json
// and exits 1 when any shared benchmark's median regressed by more than
// the tolerance ratio (generous by default: wall time on shared CI is
// noisy). Checksums are cross-checked with a relative tolerance and
// reported — but never fail the run, since baselines may come from a
// different libm.
//
// `--selftest` re-parses the file just written and validates the pinned
// schema; CI runs it so the schema stays load-bearing.
//
//===----------------------------------------------------------------------===//

#include "ToolOptions.h"

#include "analysis/ASDG.h"
#include "benchprogs/Benchmarks.h"
#include "driver/Pipeline.h"
#include "ir/Normalize.h"
#include "exec/Eval.h"
#include "exec/Interpreter.h"
#include "exec/NativeJit.h"
#include "exec/ParallelExecutor.h"
#include "ir/Region.h"
#include "obs/Obs.h"
#include "runtime/Runtime.h"
#include "support/Json.h"
#include "support/StringUtil.h"
#include "xform/IlpStrategy.h"
#include "xform/Strategy.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

using namespace alf;
using namespace alf::benchprogs;
using namespace alf::exec;
using namespace alf::xform;

namespace {

constexpr uint64_t BenchSeed = 0xa1fbe7c5;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double checksum(const RunResult &R) {
  double Sum = 0.0;
  for (const auto &[Name, V] : R.ScalarsOut)
    Sum += V;
  for (const auto &[Name, Vs] : R.LiveOut)
    for (double V : Vs)
      Sum += V;
  return Sum;
}

/// One measured configuration. Run does its own (untimed) setup, then
/// produces Repeats wall-time samples of the measured region and the
/// workload's checksum; it reports a skip (e.g. no C compiler) through
/// the result instead of failing the suite.
struct CaseResult {
  std::vector<uint64_t> Ns;
  double Checksum = 0.0;
  bool Skipped = false;
  std::string SkipReason;
};

struct Case {
  std::string Name;
  std::function<CaseResult(unsigned Repeats)> Run;
};

driver::PipelineOptions benchPipelineOptions() {
  driver::PipelineOptions PO;
  // Benchmarks measure the pipeline itself, not the prover.
  PO.Verify = verify::VerifyLevel::Off;
  return PO;
}

std::string lowerName(std::string S) {
  for (char &C : S)
    C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  return S;
}

/// The pinned suite's programs always compile; a rejection is a bug
/// and ends the run with exit status 1.
driver::CompiledProgram compileOrDie(driver::Pipeline &PL, Strategy S,
                                     ExecMode Mode) {
  driver::CompileStatus St = PL.tryCompile(driver::CompileRequest{S, Mode});
  if (!St.ok()) {
    std::cerr << "alf_bench: compile failed: " << St.Message << '\n';
    std::exit(1);
  }
  return std::move(*St.Artifact);
}

/// Compile for \p Mode (untimed), then time runs of the artifact of one
/// paper benchmark under the given strategy.
Case execCase(const BenchmarkInfo &B, int64_t N, Strategy S, ExecMode Mode,
              std::string NameSuffix) {
  std::string Name = "exec." + lowerName(B.Name) + "." +
                     getStrategyName(S) + "." + std::move(NameSuffix);
  return {Name, [&B, N, S, Mode](unsigned Repeats) {
            auto P = B.Build(N);
            driver::Pipeline PL(*P, benchPipelineOptions());
            driver::CompiledProgram CP = compileOrDie(PL, S, Mode);
            CaseResult R;
            for (unsigned I = 0; I < Repeats; ++I) {
              uint64_t T0 = nowNs();
              RunResult Res = CP.run(BenchSeed);
              R.Ns.push_back(nowNs() - T0);
              R.Checksum = checksum(Res);
            }
            return R;
          }};
}

/// Time the compile half (normalize -> ASDG -> strategy -> scalarize);
/// each repeat rebuilds the program so no analysis is amortized.
Case compileCase(const BenchmarkInfo &B, int64_t N, Strategy S,
                 verify::VerifyLevel V) {
  std::string Name = "compile." + lowerName(B.Name) + "." +
                     getStrategyName(S);
  if (V >= verify::VerifyLevel::Full)
    Name += ".verified";
  return {Name, [&B, N, S, V](unsigned Repeats) {
            CaseResult R;
            for (unsigned I = 0; I < Repeats; ++I) {
              auto P = B.Build(N);
              driver::PipelineOptions PO = benchPipelineOptions();
              PO.Verify = V;
              uint64_t T0 = nowNs();
              driver::Pipeline PL(*P, PO);
              driver::CompiledProgram CP =
                  compileOrDie(PL, S, ExecMode::Sequential);
              R.Ns.push_back(nowNs() - T0);
              R.Checksum = static_cast<double>(CP.NumClusters);
            }
            return R;
          }};
}

/// Native JIT, cold: every repeat gets a fresh cache directory and a
/// fresh engine, so each sample pays emission + compiler + dlopen.
Case jitColdCase(const BenchmarkInfo &B, int64_t N) {
  std::string Name = "jit." + lowerName(B.Name) + ".cold";
  return {Name, [&B, N](unsigned Repeats) {
            CaseResult R;
            if (!JitEngine::compilerAvailable()) {
              R.Skipped = true;
              R.SkipReason = "no system C compiler";
              return R;
            }
            auto P = B.Build(N);
            driver::Pipeline PL(*P, benchPipelineOptions());
            lir::LoopProgram LP =
                compileOrDie(PL, Strategy::C2F3, ExecMode::Sequential).LP;
            for (unsigned I = 0; I < Repeats; ++I) {
              std::string Dir = formatString(
                  "/tmp/alf_bench_cold_%d_%u", getpid(), I);
              JitOptions JO;
              JO.CacheDir = Dir;
              JitEngine Jit(JO);
              JitRunInfo Info;
              uint64_t T0 = nowNs();
              RunResult Res = Jit.run(LP, BenchSeed, &Info);
              R.Ns.push_back(nowNs() - T0);
              R.Checksum = checksum(Res);
              std::error_code EC;
              std::filesystem::remove_all(Dir, EC);
              if (!Info.UsedJit) {
                R.Skipped = true;
                R.SkipReason = "jit fell back: " + Info.FallbackReason;
                return R;
              }
            }
            return R;
          }};
}

/// Native JIT, warm: one shared engine, primed untimed; every sample is
/// a pure cache-hit dispatch.
Case jitWarmCase(const BenchmarkInfo &B, int64_t N) {
  std::string Name = "jit." + lowerName(B.Name) + ".warm";
  return {Name, [&B, N](unsigned Repeats) {
            CaseResult R;
            if (!JitEngine::compilerAvailable()) {
              R.Skipped = true;
              R.SkipReason = "no system C compiler";
              return R;
            }
            auto P = B.Build(N);
            driver::Pipeline PL(*P, benchPipelineOptions());
            lir::LoopProgram LP =
                compileOrDie(PL, Strategy::C2F3, ExecMode::Sequential).LP;
            std::string Dir = formatString("/tmp/alf_bench_warm_%d",
                                           getpid());
            JitOptions JO;
            JO.CacheDir = Dir;
            JitEngine Jit(JO);
            JitRunInfo Prime;
            Jit.run(LP, BenchSeed, &Prime); // compile once, untimed
            if (!Prime.UsedJit) {
              R.Skipped = true;
              R.SkipReason = "jit fell back: " + Prime.FallbackReason;
            } else {
              for (unsigned I = 0; I < Repeats; ++I) {
                uint64_t T0 = nowNs();
                RunResult Res = Jit.run(LP, BenchSeed);
                R.Ns.push_back(nowNs() - T0);
                R.Checksum = checksum(Res);
              }
            }
            std::error_code EC;
            std::filesystem::remove_all(Dir, EC);
            return R;
          }};
}

/// One jit tier (scalar or vectorizing emission) of the same loop
/// program, warm: the engine is primed untimed, every sample is a pure
/// cache-hit dispatch into the compiled kernel. The paired
/// jit.scalar.*/jit.simd.* rows are the vectorizer's speedup
/// measurement, so the workloads are chosen reduction-heavy (float +
/// for EP, max-times for k-NN) — loops -O2 alone will not vectorize —
/// at sizes where kernel time dominates dispatch overhead.
Case jitTierCase(const BenchmarkInfo &B, int64_t N, bool Vectorize,
                 std::string Work) {
  std::string Name = std::string(Vectorize ? "jit.simd." : "jit.scalar.") +
                     std::move(Work) + ".warm";
  return {Name, [&B, N, Vectorize](unsigned Repeats) {
            CaseResult R;
            if (!JitEngine::compilerAvailable()) {
              R.Skipped = true;
              R.SkipReason = "no system C compiler";
              return R;
            }
            auto P = B.Build(N);
            driver::Pipeline PL(*P, benchPipelineOptions());
            lir::LoopProgram LP =
                compileOrDie(PL, Strategy::C2F3, ExecMode::Sequential).LP;
            std::string Dir = formatString("/tmp/alf_bench_tier_%d_%d",
                                           getpid(), Vectorize ? 1 : 0);
            JitOptions JO;
            JO.CacheDir = Dir;
            JO.Vectorize = Vectorize;
            JitEngine Jit(JO);
            JitRunInfo Prime;
            Jit.run(LP, BenchSeed, &Prime); // compile once, untimed
            if (!Prime.UsedJit) {
              R.Skipped = true;
              R.SkipReason = "jit fell back: " + Prime.FallbackReason;
            } else if (Vectorize && Prime.VectorizedNests == 0) {
              R.Skipped = true;
              R.SkipReason = "no nest vectorized";
            } else {
              // Time the warm dispatch against pre-allocated storage so
              // the samples measure hash-lookup + kernel execution, not
              // the RNG refill of multi-megabyte inputs.
              exec::Storage Store = exec::allocateStorage(LP, BenchSeed);
              for (unsigned I = 0; I < Repeats; ++I) {
                uint64_t T0 = nowNs();
                Jit.runOnStorage(LP, Store);
                R.Ns.push_back(nowNs() - T0);
              }
              RunResult Res = Jit.run(LP, BenchSeed);
              R.Checksum = checksum(Res);
            }
            std::error_code EC;
            std::filesystem::remove_all(Dir, EC);
            return R;
          }};
}

/// Runtime engine in steady state: a Jacobi relaxation loop whose trace
/// repeats structurally, so after the first (untimed) iteration every
/// flush is a structural-cache hit. Each sample is Steps iterations.
Case runtimeWarmCase(int64_t Extent, unsigned Steps) {
  return {"runtime.jacobi.warm", [Extent, Steps](unsigned Repeats) {
            using namespace alf::runtime;
            ir::Region R = ir::Region::fromExtents({Extent, Extent});
            EngineOptions EO;
            EO.Strat = Strategy::C2F3;
            EO.Verify = verify::VerifyLevel::Off;
            Engine E(EO);
            Array U = E.input("U", R);
            std::vector<double> Init(R.size());
            for (size_t I = 0; I < Init.size(); ++I)
              Init[I] = 1e-3 * static_cast<double>(I % 17);
            U.setAll(Init);

            auto Step = [&](Array &Cur) {
              Ex Stencil = (shift(Cur, ir::Offset({-1, 0})) +
                            shift(Cur, ir::Offset({1, 0})) +
                            shift(Cur, ir::Offset({0, -1})) +
                            shift(Cur, ir::Offset({0, 1}))) *
                           0.25;
              Array Next = E.compute(R, Cur + (Stencil - Cur) * 0.8);
              E.flush();
              return Next;
            };

            U = Step(U); // prime the structural cache, untimed

            CaseResult Res;
            for (unsigned I = 0; I < Repeats; ++I) {
              uint64_t T0 = nowNs();
              for (unsigned K = 0; K < Steps; ++K)
                U = Step(U);
              Res.Ns.push_back(nowNs() - T0);
            }
            Res.Checksum = U.get({Extent / 2, Extent / 2});
            return Res;
          }};
}

/// The observability-overhead pair: the same workload under a forced
/// level. Comparing obs.off vs obs.trace medians is the acceptance
/// check that Off costs nothing measurable.
Case obsLevelCase(const BenchmarkInfo &B, int64_t N, obs::ObsLevel L) {
  std::string Name = std::string("obs.") + obs::getObsLevelName(L) + "." +
                     lowerName(B.Name);
  return {Name, [&B, N, L](unsigned Repeats) {
            auto P = B.Build(N);
            driver::Pipeline PL(*P, benchPipelineOptions());
            lir::LoopProgram LP =
                compileOrDie(PL, Strategy::C2F3, ExecMode::Sequential).LP;
            CaseResult R;
            obs::ScopedLevel Scoped(L);
            for (unsigned I = 0; I < Repeats; ++I) {
              uint64_t T0 = nowNs();
              RunResult Res = run(LP, BenchSeed);
              R.Ns.push_back(nowNs() - T0);
              R.Checksum = checksum(Res);
            }
            return R;
          }};
}

/// Times just the partitioning decision (applyStrategy on a prebuilt
/// ASDG), isolating greedy FUSION-FOR-CONTRACTION vs the exact
/// branch-and-bound so the solver's cost is visible in BENCH_10 metrics.
/// Checksum = contracted bytes, so a baseline comparison also catches a
/// solver that silently changes its answer.
Case strategyCase(const BenchmarkInfo &B, int64_t N, Strategy S,
                  std::string Label) {
  return {"strategy." + std::move(Label), [&B, N, S](unsigned Repeats) {
            auto P = B.Build(N);
            ir::normalizeProgram(*P);
            analysis::ASDG G = analysis::ASDG::build(*P);
            CaseResult R;
            for (unsigned I = 0; I < Repeats; ++I) {
              uint64_t T0 = nowNs();
              StrategyResult SR = applyStrategy(G, S);
              R.Ns.push_back(nowNs() - T0);
              R.Checksum = contractedBytes(SR.Partition, SR.Contracted);
            }
            return R;
          }};
}

/// The pinned suite. Order and names are part of the BENCH_10.json
/// contract: append new cases at the end, never rename existing ones.
std::vector<Case> buildSuite(bool Reduced) {
  const int64_t N = Reduced ? 8 : 16;
  std::vector<Case> Suite;
  for (const BenchmarkInfo &B : allBenchmarks()) {
    Suite.push_back(execCase(B, N, Strategy::C2F3, ExecMode::Sequential,
                             "seq"));
    Suite.push_back(compileCase(B, N, Strategy::C2F3,
                                verify::VerifyLevel::Off));
  }
  const BenchmarkInfo &Tomcatv = allBenchmarks()[3];
  const BenchmarkInfo &SP = allBenchmarks()[2];

  // fig8-style problem-size scaling (execution only; one benchmark).
  for (int64_t Size : Reduced ? std::vector<int64_t>{6, 10}
                              : std::vector<int64_t>{8, 16, 24})
    Suite.push_back(execCase(Tomcatv, Size, Strategy::C2F3,
                             ExecMode::Sequential,
                             formatString("n%lld", (long long)Size)));

  // Baseline (unfused) vs contracted execution of the same program.
  Suite.push_back(execCase(Tomcatv, N, Strategy::Baseline,
                           ExecMode::Sequential, "seq"));

  // Parallel executor.
  Suite.push_back(execCase(Tomcatv, N, Strategy::C2F3, ExecMode::Parallel,
                           "par"));

  // A verified compile, so the pipeline.verify span shows up in the
  // metrics table.
  Suite.push_back(compileCase(SP, N, Strategy::C2F3,
                              verify::VerifyLevel::Full));

  // JIT compile-vs-dispatch split.
  Suite.push_back(jitColdCase(Tomcatv, N));
  Suite.push_back(jitWarmCase(Tomcatv, N));

  // Runtime engine steady state.
  Suite.push_back(runtimeWarmCase(Reduced ? 16 : 32, Reduced ? 4 : 10));

  // Observability overhead pair.
  Suite.push_back(obsLevelCase(Tomcatv, N, obs::ObsLevel::Off));
  Suite.push_back(obsLevelCase(Tomcatv, N, obs::ObsLevel::Trace));

  // Greedy vs exact branch-and-bound partitioning on the same ASDG: the
  // price of optimality in the compile pipeline.
  Suite.push_back(strategyCase(Tomcatv, N, Strategy::C2, "greedy"));
  Suite.push_back(strategyCase(Tomcatv, N, Strategy::IlpOptimal, "ilp"));

  // Semiring workload zoo (appended last per the BENCH_10 contract):
  // contracted execution of the non-(+,×) kernels — Floyd–Warshall under
  // min-plus and transitive closure under or-and — so accumulator-init
  // and combine specialization stay on the regression radar.
  {
    const std::vector<BenchmarkInfo> &Zoo = zooBenchmarks();
    Case FW =
        execCase(Zoo[0], N, Strategy::C2F3, ExecMode::Sequential, "seq");
    FW.Name = "semiring.minplus";
    Suite.push_back(std::move(FW));
    Case TC =
        execCase(Zoo[1], N, Strategy::C2F3, ExecMode::Sequential, "seq");
    TC.Name = "semiring.orand";
    Suite.push_back(std::move(TC));
  }

  // Scalar vs vectorizing JIT (appended last per the pinned-suite
  // contract): warm dispatch of the same kernels under both emission
  // tiers, on workloads big enough that the SIMD inner loops, not
  // dispatch, set the median. The spread is deliberate. k-NN's
  // max-times folds and Tomcatv's stencil-plus-residual are
  // reduction-carrying loops the scalar tier's compiler cannot
  // auto-vectorize (that would reassociate), so they show the full
  // tier gap: k-NN's max-times folds stay in the exact tier, Fibro's
  // pattern-energy sum is the reassociated float tier. Tomcatv is
  // stencil arithmetic writing eight live-out fields per element —
  // store-bandwidth-bound, so its row shows the bounded win on
  // memory-limited nests. EP is the degenerate contrast: full
  // contraction leaves its loop body dependent only on the seed
  // scalar, and the row measures how well each tier exposes that
  // invariance (the scalar tier accumulates through non-restrict
  // scalar pointers and cannot hoist).
  {
    const BenchmarkInfo &EP = allBenchmarks()[0];
    const BenchmarkInfo &Tom = allBenchmarks()[3];
    const BenchmarkInfo &Fibro = allBenchmarks()[5];
    const BenchmarkInfo &Knn = zooBenchmarks()[2];
    const int64_t EpN = Reduced ? 1 << 14 : 1 << 17;
    const int64_t KnnN = Reduced ? 1 << 15 : 1 << 18;
    const int64_t TomN = Reduced ? 192 : 512;
    const int64_t FibroN = Reduced ? 128 : 512;
    Suite.push_back(jitTierCase(EP, EpN, /*Vectorize=*/false, "ep"));
    Suite.push_back(jitTierCase(EP, EpN, /*Vectorize=*/true, "ep"));
    Suite.push_back(jitTierCase(Knn, KnnN, /*Vectorize=*/false, "knn"));
    Suite.push_back(jitTierCase(Knn, KnnN, /*Vectorize=*/true, "knn"));
    Suite.push_back(jitTierCase(Fibro, FibroN, /*Vectorize=*/false,
                                "fibro"));
    Suite.push_back(jitTierCase(Fibro, FibroN, /*Vectorize=*/true,
                                "fibro"));
    Suite.push_back(jitTierCase(Tom, TomN, /*Vectorize=*/false, "tomcatv"));
    Suite.push_back(jitTierCase(Tom, TomN, /*Vectorize=*/true, "tomcatv"));
  }
  return Suite;
}

uint64_t median(std::vector<uint64_t> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

uint64_t minOf(const std::vector<uint64_t> &V) {
  return V.empty() ? 0 : *std::min_element(V.begin(), V.end());
}

uint64_t meanOf(const std::vector<uint64_t> &V) {
  if (V.empty())
    return 0;
  uint64_t Sum = 0;
  for (uint64_t X : V)
    Sum += X;
  return Sum / V.size();
}

//===----------------------------------------------------------------------===//
// BENCH_10.json schema
//===----------------------------------------------------------------------===//

json::Value resultsToJson(const std::vector<Case> &Suite,
                          const std::vector<CaseResult> &Results,
                          bool Reduced, unsigned Repeats) {
  json::Value Root = json::Value::object();
  Root.set("schema", json::Value::str("alf-bench/1"));
  Root.set("suite", json::Value::str(Reduced ? "reduced" : "full"));
  Root.set("repeat", json::Value::number(Repeats));

  json::Value Benchmarks = json::Value::array();
  for (size_t I = 0; I < Suite.size(); ++I) {
    const CaseResult &R = Results[I];
    json::Value B = json::Value::object();
    B.set("name", json::Value::str(Suite[I].Name));
    B.set("repeats",
          json::Value::number(static_cast<double>(R.Ns.size())));
    B.set("median_ns",
          json::Value::number(static_cast<double>(median(R.Ns))));
    B.set("min_ns", json::Value::number(static_cast<double>(minOf(R.Ns))));
    B.set("mean_ns",
          json::Value::number(static_cast<double>(meanOf(R.Ns))));
    B.set("checksum", json::Value::number(R.Checksum));
    B.set("skipped", json::Value::boolean(R.Skipped));
    if (R.Skipped)
      B.set("skip_reason", json::Value::str(R.SkipReason));
    Benchmarks.push(std::move(B));
  }
  Root.set("benchmarks", std::move(Benchmarks));

  json::Value Metrics = json::Value::array();
  for (const obs::MetricRow &Row : obs::metricsTable()) {
    json::Value M = obs::toJson(Row, obs::TimeUnit::Ns);
    M.set("name", json::Value::str(Row.Name));
    Metrics.push(std::move(M));
  }
  Root.set("metrics", std::move(Metrics));
  return Root;
}

/// Validates the pinned BENCH_10.json schema; the contract alf_bench
/// --selftest and the CI compare step rely on.
bool validateBenchJson(const json::Value &Root, std::string &Why) {
  auto Fail = [&Why](const std::string &Msg) {
    Why = Msg;
    return false;
  };
  if (!Root.isObject())
    return Fail("root is not an object");
  if (Root.getString("schema").value_or("") != "alf-bench/1")
    return Fail("schema key missing or not alf-bench/1");
  std::string Suite = Root.getString("suite").value_or("");
  if (Suite != "full" && Suite != "reduced")
    return Fail("suite must be 'full' or 'reduced'");
  if (!Root.getNumber("repeat"))
    return Fail("repeat missing");
  const json::Value *Benchmarks = Root.get("benchmarks");
  if (!Benchmarks || !Benchmarks->isArray() || Benchmarks->size() == 0)
    return Fail("benchmarks missing or empty");
  for (const json::Value &B : Benchmarks->items()) {
    if (!B.getString("name"))
      return Fail("benchmark entry without name");
    for (const char *Key :
         {"repeats", "median_ns", "min_ns", "mean_ns", "checksum"})
      if (!B.getNumber(Key))
        return Fail("benchmark '" + *B.getString("name") + "' missing " +
                    Key);
    if (!B.getBool("skipped"))
      return Fail("benchmark '" + *B.getString("name") +
                  "' missing skipped");
  }
  const json::Value *Metrics = Root.get("metrics");
  if (!Metrics || !Metrics->isArray())
    return Fail("metrics missing");
  for (const json::Value &M : Metrics->items()) {
    if (!M.getString("name"))
      return Fail("metric row without name");
    for (const char *Key :
         {"count", "total_ns", "p50_ns", "p95_ns", "bytes"})
      if (!M.getNumber(Key))
        return Fail("metric '" + *M.getString("name") + "' missing " + Key);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// --compare
//===----------------------------------------------------------------------===//

struct BaselineRow {
  double MedianNs = 0;
  double Checksum = 0;
  bool Skipped = false;
};

int compareAgainst(const json::Value &Current, const std::string &Path,
                   double Tolerance) {
  std::ifstream In(Path);
  if (!In) {
    std::cerr << "alf_bench: cannot open baseline " << Path << '\n';
    return 1;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Error;
  std::optional<json::Value> Base = json::parse(Buf.str(), &Error);
  if (!Base) {
    std::cerr << "alf_bench: malformed baseline " << Path << ": " << Error
              << '\n';
    return 1;
  }
  std::string Why;
  if (!validateBenchJson(*Base, Why)) {
    std::cerr << "alf_bench: baseline " << Path
              << " fails schema validation: " << Why << '\n';
    return 1;
  }

  std::map<std::string, BaselineRow> Rows;
  for (const json::Value &B : Base->get("benchmarks")->items()) {
    BaselineRow Row;
    Row.MedianNs = B.getNumber("median_ns").value_or(0);
    Row.Checksum = B.getNumber("checksum").value_or(0);
    Row.Skipped = B.getBool("skipped").value_or(false);
    Rows[*B.getString("name")] = Row;
  }

  unsigned Regressions = 0, Compared = 0;
  std::cout << formatString("%-34s %12s %12s %8s\n", "benchmark",
                            "base_ms", "now_ms", "ratio");
  for (const json::Value &B : Current.get("benchmarks")->items()) {
    std::string Name = *B.getString("name");
    auto It = Rows.find(Name);
    if (It == Rows.end() || It->second.Skipped ||
        B.getBool("skipped").value_or(false))
      continue;
    double Now = B.getNumber("median_ns").value_or(0);
    double Before = It->second.MedianNs;
    if (Before <= 0)
      continue;
    double Ratio = Now / Before;
    ++Compared;
    bool Regressed = Ratio > Tolerance;
    Regressions += Regressed;
    std::cout << formatString("%-34s %12.3f %12.3f %7.2fx%s\n",
                              Name.c_str(), Before / 1e6, Now / 1e6, Ratio,
                              Regressed ? "  REGRESSED" : "");
    double CS = B.getNumber("checksum").value_or(0);
    double BaseCS = It->second.Checksum;
    if (std::fabs(CS - BaseCS) > 1e-9 * (std::fabs(BaseCS) + 1.0))
      std::cout << formatString(
          "  note: %s checksum drifted (%.17g vs baseline %.17g)\n",
          Name.c_str(), CS, BaseCS);
  }
  std::cout << formatString(
      "compared %u benchmarks against %s (tolerance %.2fx): %u regressed\n",
      Compared, Path.c_str(), Tolerance, Regressions);
  return Regressions ? 1 : 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string OutFile = "BENCH_10.json";
  std::string CompareFile;
  std::string Filter;
  double Tolerance = 2.0;
  unsigned Repeats = 5;
  bool Reduced = false, List = false, SelfTest = false;
  constexpr unsigned BenchFlags =
      tool::TF_Trace | tool::TF_Metrics | tool::TF_Semiring;
  tool::ToolOptions TO;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    std::string FlagError;
    switch (tool::parseToolFlag(Arg, BenchFlags, TO, FlagError)) {
    case tool::FlagParse::Consumed:
      continue;
    case tool::FlagParse::Error:
      std::cerr << "alf_bench: " << FlagError << '\n';
      return 2;
    case tool::FlagParse::NotMine:
      break;
    }
    if (Arg.rfind("--out=", 0) == 0)
      OutFile = Arg.substr(6);
    else if (Arg.rfind("--compare=", 0) == 0)
      CompareFile = Arg.substr(10);
    else if (Arg.rfind("--tolerance=", 0) == 0)
      Tolerance = std::atof(Arg.c_str() + 12);
    else if (Arg.rfind("--repeat=", 0) == 0)
      Repeats = static_cast<unsigned>(std::atoi(Arg.c_str() + 9));
    else if (Arg.rfind("--filter=", 0) == 0)
      Filter = Arg.substr(9);
    else if (Arg == "--reduced")
      Reduced = true;
    else if (Arg == "--list")
      List = true;
    else if (Arg == "--selftest")
      SelfTest = true;
    else {
      std::cerr << "usage: alf_bench [--out=BENCH_10.json] "
                   "[--compare=baseline.json] [--tolerance=X] "
                   "[--repeat=N] [--reduced] [--filter=substr] "
                   "[--list] [--selftest]\n"
                << tool::toolFlagsHelp(BenchFlags);
      return 2;
    }
  }
  if (Repeats == 0 || Tolerance <= 0) {
    std::cerr << "alf_bench: --repeat and --tolerance must be positive\n";
    return 2;
  }

  std::vector<Case> Suite = buildSuite(Reduced);
  if (TO.SemiringSel) {
    // --semiring=NAME keeps just that algebra's workload-zoo rows: the
    // case name is "semiring." + the registry name with dashes dropped
    // (min-plus -> semiring.minplus).
    std::string Want = "semiring.";
    for (char C : TO.SemiringSel->Name)
      if (C != '-')
        Want += C;
    std::vector<Case> Kept;
    for (Case &C : Suite)
      if (C.Name.rfind(Want, 0) == 0)
        Kept.push_back(std::move(C));
    Suite = std::move(Kept);
  }
  if (!Filter.empty()) {
    std::vector<Case> Kept;
    for (Case &C : Suite)
      if (C.Name.find(Filter) != std::string::npos)
        Kept.push_back(std::move(C));
    Suite = std::move(Kept);
  }
  if (List) {
    for (const Case &C : Suite)
      std::cout << C.Name << '\n';
    return 0;
  }
  if (Suite.empty()) {
    std::cerr << "alf_bench: filter matched no benchmarks\n";
    return 2;
  }

  // Metrics aggregate across the whole suite (the JSON always embeds
  // them, so the level is at least Counters regardless of --metrics);
  // the obs.* pair overrides the level locally through ScopedLevel.
  obs::setLevel(TO.TraceFile.empty() ? obs::ObsLevel::Counters
                                     : obs::ObsLevel::Trace);
  obs::reset();

  std::vector<CaseResult> Results;
  Results.reserve(Suite.size());
  for (const Case &C : Suite) {
    std::cout << C.Name << " ..." << std::flush;
    CaseResult R = C.Run(Repeats);
    if (R.Skipped)
      std::cout << " SKIPPED (" << R.SkipReason << ")\n";
    else
      std::cout << formatString(" median %.3f ms (%zu samples)\n",
                                static_cast<double>(median(R.Ns)) / 1e6,
                                R.Ns.size());
    Results.push_back(std::move(R));
  }

  json::Value Root = resultsToJson(Suite, Results, Reduced, Repeats);
  {
    std::ofstream Out(OutFile);
    if (!Out) {
      std::cerr << "alf_bench: cannot write " << OutFile << '\n';
      return 1;
    }
    Root.write(Out);
    Out << '\n';
  }
  std::cout << "wrote " << OutFile << '\n';

  if (!tool::emitObsOutputs(TO, std::cout, std::cerr, "alf_bench"))
    return 1;
  if (!TO.TraceFile.empty())
    std::cout << "trace: " << obs::numTraceEvents() << " events -> "
              << TO.TraceFile << '\n';

  if (SelfTest) {
    std::ifstream In(OutFile);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    std::string Error, Why;
    std::optional<json::Value> Reparsed = json::parse(Buf.str(), &Error);
    if (!Reparsed) {
      std::cerr << "alf_bench: selftest: emitted file does not parse: "
                << Error << '\n';
      return 1;
    }
    if (!validateBenchJson(*Reparsed, Why)) {
      std::cerr << "alf_bench: selftest: schema violation: " << Why << '\n';
      return 1;
    }
    std::cout << "selftest: schema OK\n";
  }

  if (!CompareFile.empty())
    return compareAgainst(Root, CompareFile, Tolerance);
  return 0;
}

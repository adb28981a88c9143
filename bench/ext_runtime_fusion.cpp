//===- bench/ext_runtime_fusion.cpp - Lazy traces vs eager execution ---------===//
//
// Extension benchmark: what run-time fusion-for-contraction buys. A
// Jacobi-style sweep (stencil, pointwise residual, max-reduction,
// write-back) is driven through the runtime engine twice — "eager" with
// a trace cap of one statement, so every operation executes alone
// exactly as an unfused array library would, and "traced" with whole
// sweeps batched per flush, so the pipeline fuses the sweep and
// contracts the residual temporary. Both must produce bit-identical
// grids; the table reports the speedup.
//
// With a usable system C compiler the traced configuration is also run
// through the native JIT: after the first flush compiles the sweep
// kernel, every further flush must be a trace-cache hit with ZERO
// compiler invocations (asserted via the "jit" statistic group and the
// engine's own counters); the per-flush latency of that steady state is
// reported.
//
// Exits nonzero on divergence or on any warm-flush compile.
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include "obs/Obs.h"
#include "support/StringUtil.h"
#include "support/TextTable.h"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <unistd.h>

using namespace alf;
using namespace alf::runtime;

namespace {

constexpr int64_t N = 160;
constexpr unsigned WarmupSweeps = 2;
constexpr unsigned TimedSweeps = 30;

double secondsOf(const std::function<void()> &Fn) {
  auto T0 = std::chrono::steady_clock::now();
  Fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// One Jacobi sweep recorded into \p E: four-point average, pointwise
/// residual (a contraction candidate), its max-reduction, write-back.
Scalar recordSweep(Engine &E, Array &U, const ir::Region &Interior) {
  Scalar Residual;
  {
    Array V = E.compute(Interior,
                        (shift(U, {-1, 0}) + shift(U, {1, 0}) +
                         shift(U, {0, -1}) + shift(U, {0, 1})) *
                            Ex(0.25));
    Array D = E.compute(Interior, eabs(Ex(V) - Ex(U)));
    Residual = E.reduce(RedOp::Max, Interior, Ex(D));
    E.update(U, ir::Offset({0, 0}), Interior, Ex(V));
  }
  return Residual;
}

struct SweepRun {
  std::vector<double> FinalGrid;
  double SecondsPerSweep = 0.0;
  double LastResidual = 0.0;
  EngineStats Stats;
  FlushInfo LastFlush;
};

SweepRun runSweeps(const EngineOptions &Opts) {
  Engine E(Opts);
  Array U = E.input("U", ir::Region({0, 0}, {N + 1, N + 1}));
  for (int64_t I = 0; I <= N + 1; ++I)
    U.set({I, 0}, 1.0);
  ir::Region Interior({1, 1}, {N, N});

  SweepRun Out;
  for (unsigned S = 0; S < WarmupSweeps; ++S)
    Out.LastResidual = recordSweep(E, U, Interior).value();
  Out.SecondsPerSweep = secondsOf([&] {
                          for (unsigned S = 0; S < TimedSweeps; ++S)
                            Out.LastResidual =
                                recordSweep(E, U, Interior).value();
                        }) /
                        TimedSweeps;
  Out.FinalGrid = U.values();
  Out.Stats = E.stats();
  Out.LastFlush = E.lastFlush();
  return Out;
}

} // namespace

int main() {
  std::cout << "Runtime lazy evaluation: eager statements vs fused traces\n"
            << "(Jacobi sweep on a " << N << "x" << N << " grid, "
            << TimedSweeps << " timed sweeps, 4 statements each)\n\n";

  EngineOptions Eager;
  Eager.MaxTraceLen = 1; // every statement flushes alone: no fusion
  SweepRun EagerRun = runSweeps(Eager);

  EngineOptions Traced; // whole sweeps per flush (observation-triggered)
  SweepRun TracedRun = runSweeps(Traced);

  if (EagerRun.FinalGrid != TracedRun.FinalGrid) {
    std::cerr << "FAIL: traced grid diverged from eager grid\n";
    return 1;
  }
  if (TracedRun.LastFlush.Contracted == 0) {
    std::cerr << "FAIL: the traced sweep contracted nothing\n";
    return 1;
  }

  TextTable Table;
  Table.setHeader({"configuration", "ms/sweep", "speedup", "clusters",
                   "contracted", "cache hits"});
  auto addRow = [&](const char *Name, const SweepRun &R) {
    Table.addRow(
        {Name, formatString("%.3f", R.SecondsPerSweep * 1e3),
         formatString("%.2fx",
                      EagerRun.SecondsPerSweep / R.SecondsPerSweep),
         formatString("%u", R.LastFlush.Clusters),
         formatString("%u", R.LastFlush.Contracted),
         formatString("%llu/%llu",
                      static_cast<unsigned long long>(R.Stats.CacheHits),
                      static_cast<unsigned long long>(R.Stats.Flushes))});
  };
  addRow("eager (cap=1)", EagerRun);
  addRow("traced", TracedRun);

  if (!exec::JitEngine::compilerAvailable()) {
    Table.print(std::cout);
    std::cout << "\n(no usable system C compiler; skipping the native JIT "
                 "configuration)\n";
    return 0;
  }

  std::string CacheDir =
      (std::filesystem::temp_directory_path() /
       ("alf-runtime-bench-" + std::to_string(getpid())))
          .string();
  if (const char *Env = std::getenv("ALF_JIT_CACHE_DIR"))
    if (*Env)
      CacheDir = Env;

  EngineOptions Jit;
  Jit.Mode = xform::ExecMode::NativeJit;
  Jit.Jit.CacheDir = CacheDir;

  uint64_t CompilesBefore = obs::counterValue("jit.compiles");
  SweepRun JitRun = runSweeps(Jit);
  uint64_t Compiles =
      obs::counterValue("jit.compiles") - CompilesBefore;

  if (JitRun.FinalGrid != EagerRun.FinalGrid) {
    std::cerr << "FAIL: native traced grid diverged from eager grid\n";
    return 1;
  }
  // The steady state must be: first flush analyzed (and possibly
  // compiled), every other flush a structural cache hit running the
  // already-loaded kernel.
  if (JitRun.Stats.CacheMisses != 1) {
    std::cerr << "FAIL: expected exactly 1 trace-cache miss, saw "
              << JitRun.Stats.CacheMisses << "\n";
    return 1;
  }
  if (Compiles > 1) {
    std::cerr << "FAIL: warm flushes invoked the compiler ("
              << Compiles << " total compiles for one trace shape)\n";
    return 1;
  }
  addRow("traced + native JIT", JitRun);
  Table.print(std::cout);

  std::cout << "\nwarm-flush steady state: "
            << formatString("%.3f", JitRun.SecondsPerSweep * 1e3)
            << " ms/sweep with " << Compiles << " kernel compile(s) across "
            << JitRun.Stats.Flushes
            << " flushes (every post-warmup flush: 0 analysis, 0 compiles; "
               "kernel cache: "
            << CacheDir << ")\n";
  return 0;
}

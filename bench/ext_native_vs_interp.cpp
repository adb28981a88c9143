//===- bench/ext_native_vs_interp.cpp - Native kernels vs interpreter --------===//
//
// Extension benchmark: the paper's eight strategies executed as real
// machine code. Every benchmark/strategy pair is scalarized, JIT-compiled
// through exec::JitEngine, verified bit-identical to the sequential
// interpreter, and then timed under both executors; the table reports the
// native speedup per strategy. A second pass with a fresh engine over the
// same (now warm) kernel cache re-runs everything and asserts — via the
// `jit.compiles` obs counter — that the compiler was never invoked again.
//
// Exits nonzero on any divergence or on a compile during the warm pass;
// exits 0 with a note when the machine has no usable C compiler.
//
//===----------------------------------------------------------------------===//

#include "benchprogs/Benchmarks.h"

#include "FigureCommon.h"
#include "obs/Obs.h"
#include "support/StringUtil.h"
#include "support/TextTable.h"

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <unistd.h>

using namespace alf;
using namespace alf::benchprogs;
using namespace alf::driver;
using namespace alf::exec;
using namespace alf::xform;

namespace {

double secondsOf(const std::function<void()> &Fn) {
  auto T0 = std::chrono::steady_clock::now();
  Fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

int64_t problemSize(const BenchmarkInfo &B) {
  return B.Rank == 1 ? 1 << 16 : 96;
}

} // namespace

int main() {
  if (!JitEngine::compilerAvailable()) {
    std::cout << "ext_native_vs_interp: no usable system C compiler; "
                 "nothing to measure\n";
    return 0;
  }

  const uint64_t Seed = 42;
  std::string CacheDir =
      (std::filesystem::temp_directory_path() /
       ("alf-native-bench-" + std::to_string(getpid())))
          .string();
  if (const char *Env = std::getenv("ALF_JIT_CACHE_DIR"))
    if (*Env)
      CacheDir = Env;

  JitOptions JOpts;
  JOpts.CacheDir = CacheDir;

  std::cout << "Native JIT kernels vs the sequential interpreter\n"
            << "(every native result verified bit-identical before "
               "timing; kernel cache: "
            << CacheDir << ")\n\n";

  unsigned Pairs = 0;

  // Pass 1 (cold or CI-warmed cache): verify and time everything.
  {
    JitEngine Engine(JOpts);
    for (const BenchmarkInfo &B : allBenchmarks()) {
      auto P = B.Build(problemSize(B));
      Pipeline PL(*P);

      TextTable Table;
      Table.setHeader(
          {"strategy", "interp (s)", "native (s)", "speedup", "kernel"});
      for (Strategy S : allStrategies()) {
        lir::LoopProgram LP =
            std::move(figures::compileOrExit(PL, S).Artifact->LP);

        RunResult InterpRes = run(LP, Seed);
        JitRunInfo Info;
        RunResult JitRes = Engine.run(LP, Seed, &Info);
        if (!Info.UsedJit) {
          std::cerr << "FAIL: " << B.Name << "/" << getStrategyName(S)
                    << " fell back to the interpreter: "
                    << Info.FallbackReason << "\n";
          return 1;
        }
        std::string Why;
        if (!resultsMatch(InterpRes, JitRes, 0.0, &Why)) {
          std::cerr << "FAIL: " << B.Name << "/" << getStrategyName(S)
                    << " native result diverged: " << Why << "\n";
          return 1;
        }
        ++Pairs;

        double TInterp = secondsOf([&] { run(LP, Seed); });
        double TNative = secondsOf([&] { Engine.run(LP, Seed); });
        Table.addRow({getStrategyName(S), formatString("%.4f", TInterp),
                      formatString("%.4f", TNative),
                      TNative > 0.0
                          ? formatString("%.1fx", TInterp / TNative)
                          : "inf",
                      Info.Compiled      ? "compiled"
                      : Info.CacheHitDisk ? "disk cache"
                                          : "memory cache"});
      }
      std::cout << B.Name << " (N=" << problemSize(B) << "):\n";
      Table.print(std::cout);
      std::cout << '\n';
    }
  }

  // Pass 2: a fresh engine over the warm cache must serve every kernel
  // from disk without one compiler invocation.
  uint64_t CompilesBefore = obs::counterValue("jit.compiles");
  {
    JitEngine Engine(JOpts);
    for (const BenchmarkInfo &B : allBenchmarks()) {
      auto P = B.Build(problemSize(B));
      Pipeline PL(*P);
      for (Strategy S : allStrategies()) {
        JitRunInfo Info;
        Engine.run(figures::compileOrExit(PL, S).Artifact->LP, Seed, &Info);
        if (!Info.UsedJit) {
          std::cerr << "FAIL: warm-cache rerun of " << B.Name << "/"
                    << getStrategyName(S)
                    << " fell back: " << Info.FallbackReason << "\n";
          return 1;
        }
      }
    }
  }
  uint64_t WarmCompiles =
      obs::counterValue("jit.compiles") - CompilesBefore;
  if (WarmCompiles != 0) {
    std::cerr << "FAIL: warm-cache rerun invoked the compiler "
              << WarmCompiles << " time(s)\n";
    return 1;
  }

  std::cout << Pairs << " benchmark/strategy pairs verified bit-identical; "
            << "warm-cache rerun performed 0 compiler invocations ("
            << obs::counterValue("jit.cache.disk_hit")
            << " disk hits, "
            << obs::counterValue("jit.cache.memory_hit")
            << " memory hits overall)\n";
  return 0;
}

//===- bench/ext_thread_scaling.cpp - Parallel executor strong scaling ------===//
//
// Extension: thread-level strong scaling of the tiled parallel executor
// on the Figure-8 benchmark programs at fixed problem size. Fusion and
// contraction hand the executor nests whose dependence structure (the
// UDVs of Definition 2) is known exactly, so each nest's outermost
// dependence-free loop is split into row-tiles across worker threads —
// the same information-reuse argument Sewall & Pennycook make for fused
// kernels. Every parallel run is verified bit-identical to the
// sequential interpreter before its time is reported.
//
// Usage: ext_thread_scaling [N] [maxthreads]
//
//===----------------------------------------------------------------------===//

#include "FigureCommon.h"
#include "ToolOptions.h"

#include "exec/Interpreter.h"
#include "exec/ParallelExecutor.h"
#include "support/StringUtil.h"
#include "support/TextTable.h"

#include <chrono>
#include <iostream>
#include <thread>

using namespace alf;
using namespace alf::exec;
using namespace alf::xform;

namespace {

double secondsOf(const std::function<void()> &Fn) {
  auto T0 = std::chrono::steady_clock::now();
  Fn();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

/// Best of three runs, to damp scheduler noise.
double bestSecondsOf(const std::function<void()> &Fn) {
  double Best = secondsOf(Fn);
  for (int I = 0; I < 2; ++I)
    Best = std::min(Best, secondsOf(Fn));
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  unsigned N = 160, MaxThreads = 8;
  std::string Error;
  if ((argc > 1 && !tool::parseNumberArg("N", argv[1], N, Error, 1)) ||
      (argc > 2 &&
       !tool::parseNumberArg("maxthreads", argv[2], MaxThreads, Error, 1))) {
    std::cerr << "ext_thread_scaling: " << Error << '\n';
    return 2;
  }
  const uint64_t Seed = 0xa11f;

  std::cout << "Extension: thread scaling of the parallel executor "
            << "(strategy c2+f4, N=" << N << ")\n"
            << "hardware concurrency: " << std::thread::hardware_concurrency()
            << "\n\n";

  for (const benchprogs::BenchmarkInfo &B : benchprogs::allBenchmarks()) {
    // EP is a scalar reduction (never parallelized) and Frac rank-1
    // trivial; the rank-2 stencil codes are where tiles pay off.
    if (B.Rank != 2)
      continue;
    auto P = B.Build(N);
    driver::Pipeline PL(*P);
    driver::CompileStatus St = figures::compileOrExit(PL, Strategy::C2F4);
    const lir::LoopProgram &LP = St.Artifact->LP;
    ParallelSchedule Sched = planParallelism(LP);

    std::cout << B.Name << ": " << Sched.numParallelNests()
              << " parallel nests\n"
              << describeSchedule(LP, Sched);

    RunResult Oracle;
    double SeqTime = bestSecondsOf([&] { Oracle = run(LP, Seed); });

    TextTable Table;
    Table.setHeader({"threads", "time (ms)", "speedup", "efficiency",
                     "identical"});
    Table.addRow({"seq", formatString("%.2f", SeqTime * 1e3), "1.00", "-",
                  "-"});
    for (unsigned T = 1; T <= MaxThreads; T *= 2) {
      ParallelOptions Opts;
      Opts.NumThreads = T;
      RunResult Par;
      double ParTime = bestSecondsOf(
          [&] { Par = runParallel(LP, Seed, Opts, Sched); });
      bool Identical = resultsMatch(Oracle, Par, 0.0);
      double Speedup = ParTime > 0.0 ? SeqTime / ParTime : 0.0;
      Table.addRow({formatString("%u", T),
                    formatString("%.2f", ParTime * 1e3),
                    formatString("%.2f", Speedup),
                    formatString("%.0f%%", 100.0 * Speedup / T),
                    Identical ? "yes" : "NO"});
      if (!Identical) {
        std::cerr << "FAILURE: parallel result diverged from the "
                     "sequential oracle on "
                  << B.Name << " with " << T << " threads\n";
        return 1;
      }
    }
    Table.print(std::cout);
    std::cout << "\n";
  }
  return 0;
}

//===- tests/StrategyCostTest.cpp - Strategy-vs-ASDG cost gate ---------------===//
//
// A performance gate that does not depend on the host: in one process it
// times xform::applyStrategy and analysis::ASDG::build on the same
// program and bounds the ratio of their medians. Both are pure
// single-threaded CPU work over the same graph, so a faster or slower
// machine moves them together; a strategy layer that falls back to
// rebuilding the cluster quotient graph per query (hundreds of times the
// ASDG's cost) fails the bound.
//
// Registered only in Release builds: unoptimized or sanitized builds
// shift the two sides by different factors.
//
//===----------------------------------------------------------------------===//

#include "analysis/ASDG.h"
#include "benchprogs/Benchmarks.h"
#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "xform/Strategy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <iostream>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

namespace {

/// Median wall time of \p Fn in seconds over \p Reps runs.
double medianSeconds(unsigned Reps, const std::function<void()> &Fn) {
  std::vector<double> Times;
  for (unsigned I = 0; I < Reps; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    Fn();
    auto T1 = std::chrono::steady_clock::now();
    Times.push_back(std::chrono::duration<double>(T1 - T0).count());
  }
  std::nth_element(Times.begin(), Times.begin() + Times.size() / 2,
                   Times.end());
  return Times[Times.size() / 2];
}

/// Keeps the timed results observable so the work is not optimized away.
volatile unsigned Sink = 0;

/// Median applyStrategy time over median ASDG::build time for \p Prog.
double strategyOverAsdg(const Program &Prog, Strategy S, unsigned Reps) {
  ASDG G = ASDG::build(Prog);
  double Asdg = medianSeconds(
      Reps, [&Prog] { Sink = Sink + ASDG::build(Prog).numEdges(); });
  double Strat = medianSeconds(Reps, [&G, S] {
    Sink = Sink + applyStrategy(G, S).Partition.numClusters();
  });
  std::cout << "median applyStrategy " << Strat * 1e3 << " ms, ASDG::build "
            << Asdg * 1e3 << " ms, ratio " << Strat / Asdg << '\n';
  return Strat / Asdg;
}

/// The bound on median(applyStrategy) / median(ASDG::build). On a 4-core
/// x86-64 host (gcc 12, Release) the ratio measures 4.1-6.6 for SP and
/// 12-18 for the generator program, and the bound is about twice the
/// larger. GROW searches without the kept topological order measured
/// 6.3-8.5 and 16-19; a FusionPartition that rebuilds its quotient graph
/// per query measures 410-470 and 740-1140.
constexpr double MaxRatio = 36.0;

TEST(StrategyCostTest, SPUnderC2F4) {
  auto P = benchprogs::buildSP(8);
  normalizeProgram(*P);
  double Ratio = strategyOverAsdg(*P, Strategy::C2F4, 15);
  EXPECT_LT(Ratio, MaxRatio) << "applyStrategy/ASDG::build = " << Ratio;
}

TEST(StrategyCostTest, Generator512UnderC2F4) {
  // bench/algo_scaling's program at its largest size.
  GeneratorConfig Cfg;
  Cfg.Seed = 7;
  Cfg.NumStmts = 512;
  Cfg.NumPersistent = 4;
  Cfg.NumTemps = Cfg.NumStmts / 3 + 1;
  Cfg.Extent = 4;
  auto P = generateRandomProgram(Cfg);
  normalizeProgram(*P);
  double Ratio = strategyOverAsdg(*P, Strategy::C2F4, 5);
  EXPECT_LT(Ratio, MaxRatio) << "applyStrategy/ASDG::build = " << Ratio;
}

} // namespace

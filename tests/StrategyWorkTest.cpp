//===- tests/StrategyWorkTest.cpp - Strategy work counts ----------------------===//
//
// Work gates for the fusion strategy layer that do not depend on the host:
// the obs counters `xform.grow.adj_visited` (quotient adjacency entries
// read by GROW searches) and `xform.f4.pairs_tested` (cluster pairs
// pairwise fusion tested for legality) are deterministic in the program.
// SP's counts are pinned, and on generator programs of growing size the
// GROW work of FUSION-FOR-CONTRACTION stays within a fixed multiple of
// r·e, the paper's section 4 bound for r arrays and e dependences.
//
//===----------------------------------------------------------------------===//

#include "analysis/ASDG.h"
#include "benchprogs/Benchmarks.h"
#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "obs/Obs.h"
#include "xform/Strategy.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

namespace {

struct Work {
  uint64_t AdjVisited = 0;
  uint64_t PairsTested = 0;
};

/// The work counters' growth over one applyStrategy(G, S).
Work strategyWork(const ASDG &G, Strategy S) {
  uint64_t Adj = obs::counterValue("xform.grow.adj_visited");
  uint64_t Pairs = obs::counterValue("xform.f4.pairs_tested");
  applyStrategy(G, S);
  return {obs::counterValue("xform.grow.adj_visited") - Adj,
          obs::counterValue("xform.f4.pairs_tested") - Pairs};
}

// Before the partition kept a topological order, GROW searched the whole
// downstream quotient graph and f4 re-tested every failed pair on every
// pass: SP read 429094 adjacency entries at c2, and 998928 entries and
// 643 pair tests at c2+f4.
TEST(StrategyWorkTest, SPCountsArePinned) {
  auto P = benchprogs::buildSP(8);
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);

  Work C2 = strategyWork(G, Strategy::C2);
  EXPECT_EQ(C2.AdjVisited, 73652u);
  EXPECT_EQ(C2.PairsTested, 0u);

  Work C2F4 = strategyWork(G, Strategy::C2F4);
  EXPECT_EQ(C2F4.AdjVisited, 383164u);
  EXPECT_EQ(C2F4.PairsTested, 609u);
}

/// Adjacency entries read at c2 per array per dependence edge. Each GROW
/// may read every edge twice and each candidate array runs up to three
/// searches; the window of the kept order keeps the measured ratio at
/// 0.54-0.78 for n = 64..512.
constexpr double MaxVisitsPerArrayEdge = 1.0;

TEST(StrategyWorkTest, GrowWorkIsBoundedByArraysTimesEdges) {
  for (unsigned N : {64u, 128u, 256u, 512u}) {
    // bench/algo_scaling's program.
    GeneratorConfig Cfg;
    Cfg.Seed = 7;
    Cfg.NumStmts = N;
    Cfg.NumPersistent = 4;
    Cfg.NumTemps = N / 3 + 1;
    Cfg.Extent = 4;
    auto P = generateRandomProgram(Cfg);
    normalizeProgram(*P);
    ASDG G = ASDG::build(*P);
    double RE = double(G.arraysByDecreasingWeight().size()) * G.numEdges();
    double Ratio = strategyWork(G, Strategy::C2).AdjVisited / RE;
    EXPECT_LT(Ratio, MaxVisitsPerArrayEdge) << "n = " << N;
  }
}

} // namespace

//===- tests/BenchmarkTest.cpp - Benchmark census tests (Figures 7/8) -------===//

#include "benchprogs/Benchmarks.h"

#include "analysis/ASDG.h"
#include "exec/Interpreter.h"
#include "exec/MemoryAccounting.h"
#include "ir/Normalize.h"
#include "ir/Verifier.h"
#include "scalarize/Scalarize.h"
#include "xform/Strategy.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::benchprogs;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::xform;

namespace {

struct CensusPair {
  MemoryCensus Before;
  MemoryCensus After;
};

CensusPair censusOf(const BenchmarkInfo &B, int64_t N = 8) {
  auto P = B.Build(N);
  normalizeProgram(*P);
  EXPECT_TRUE(isWellFormed(*P)) << B.Name;
  ASDG G = ASDG::build(*P);
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  std::set<const ArraySymbol *> Contracted(SR.Contracted.begin(),
                                           SR.Contracted.end());
  return CensusPair{computeCensus(*P, {}), computeCensus(*P, Contracted)};
}

class BenchmarkCensus : public ::testing::TestWithParam<unsigned> {};

TEST_P(BenchmarkCensus, StaticArraysMatchFigure7) {
  const BenchmarkInfo &B = allBenchmarks()[GetParam()];
  CensusPair C = censusOf(B);
  EXPECT_EQ(C.Before.StaticArrays, B.PaperStaticBefore) << B.Name;
  EXPECT_EQ(C.Before.StaticCompiler, B.PaperCompilerBefore) << B.Name;
  EXPECT_EQ(C.After.StaticArrays, B.PaperStaticAfter) << B.Name;
  EXPECT_EQ(C.After.StaticCompiler, 0u)
      << B.Name << ": all compiler arrays must be eliminated (Figure 7)";
}

TEST_P(BenchmarkCensus, PeakLiveMatchesFigure8) {
  const BenchmarkInfo &B = allBenchmarks()[GetParam()];
  CensusPair C = censusOf(B);
  EXPECT_EQ(C.Before.PeakLive, B.PaperLb) << B.Name;
  EXPECT_EQ(C.After.PeakLive, B.PaperLa) << B.Name;
}

TEST_P(BenchmarkCensus, AllStrategiesPreserveSemantics) {
  const BenchmarkInfo &B = allBenchmarks()[GetParam()];
  auto P = B.Build(B.Rank == 1 ? 64 : 10);
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  auto Base = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  RunResult BaseRes = run(Base, 1234);
  for (Strategy S : allStrategiesForTest()) {
    auto LP = scalarize::scalarize(G, applyStrategy(G, S));
    std::string Why;
    EXPECT_TRUE(resultsMatch(BaseRes, run(LP, 1234), 1e-9, &Why))
        << B.Name << " under " << getStrategyName(S) << ": " << Why;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSix, BenchmarkCensus,
                         ::testing::Range(0u, 6u),
                         [](const ::testing::TestParamInfo<unsigned> &Info) {
                           return allBenchmarks()[Info.param].Name;
                         });

TEST(BenchmarkTest, RowOrderMatchesFigure7) {
  const auto &All = allBenchmarks();
  ASSERT_EQ(All.size(), 6u);
  EXPECT_EQ(All[0].Name, "EP");
  EXPECT_EQ(All[1].Name, "Frac");
  EXPECT_EQ(All[2].Name, "SP");
  EXPECT_EQ(All[3].Name, "Tomcatv");
  EXPECT_EQ(All[4].Name, "Simple");
  EXPECT_EQ(All[5].Name, "Fibro");
}

TEST(BenchmarkTest, EPAndFibroNeedNoCompilerArrays) {
  // "The smaller benchmarks, such as Fibro, EP and Frac, require no
  // compiler arrays, so they do not benefit from f1 and c1."
  for (unsigned Idx : {0u, 1u, 5u}) {
    const BenchmarkInfo &B = allBenchmarks()[Idx];
    auto P = B.Build(8);
    EXPECT_EQ(normalizeProgram(*P), 0u) << B.Name;
    ASDG G = ASDG::build(*P);
    StrategyResult C1 = applyStrategy(G, Strategy::C1);
    EXPECT_TRUE(C1.Contracted.empty()) << B.Name;
  }
}

TEST(BenchmarkTest, ProblemSizeScalesWithContraction) {
  // Figure 8's claim: max problem size is inversely proportional to the
  // peak live array count. Verify for Tomcatv with a byte budget.
  const BenchmarkInfo &B = allBenchmarks()[3];
  auto BytesFor = [&B](bool Contract) {
    return [&B, Contract](int64_t N) -> uint64_t {
      auto P = B.Build(N);
      normalizeProgram(*P);
      std::set<const ArraySymbol *> Contracted;
      if (Contract) {
        ASDG G = ASDG::build(*P);
        StrategyResult SR = applyStrategy(G, Strategy::C2);
        Contracted.insert(SR.Contracted.begin(), SR.Contracted.end());
      }
      return computeCensus(*P, Contracted).PeakBytes;
    };
  };
  uint64_t Budget = 64ull << 20; // 64 MB
  int64_t MaxBefore = findMaxProblemSize(BytesFor(false), Budget, 16384);
  int64_t MaxAfter = findMaxProblemSize(BytesFor(true), Budget, 16384);
  EXPECT_GT(MaxAfter, MaxBefore);
  // Volume ratio should approach lb/la = 19/7.
  double VolRatio = static_cast<double>(MaxAfter) * MaxAfter /
                    (static_cast<double>(MaxBefore) * MaxBefore);
  EXPECT_NEAR(VolRatio, 19.0 / 7.0, 0.25);
}

} // namespace

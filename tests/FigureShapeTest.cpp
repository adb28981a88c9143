//===- tests/FigureShapeTest.cpp - Paper result shapes as assertions ---------===//
//
// The runtime figures cannot be compared number-for-number (our machines
// are models), but the paper's *claims about shapes* can be asserted.
// This suite keeps the reproduction honest in CI: if a change to the
// optimizer or the machine model breaks a shape the paper reports, a
// test fails rather than a table drifting silently.
//
//===----------------------------------------------------------------------===//

#include "analysis/ASDG.h"
#include "benchprogs/Benchmarks.h"
#include "comm/CommInsertion.h"
#include "exec/PerfModel.h"
#include "ir/Normalize.h"
#include "scalarize/Scalarize.h"

#include <gtest/gtest.h>

#include <map>

using namespace alf;
using namespace alf::analysis;
using namespace alf::benchprogs;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::machine;
using namespace alf::xform;

namespace {

/// Percent improvement of every strategy over baseline for one benchmark
/// on one machine (weak scaling, given processor count).
std::map<Strategy, double> improvements(const BenchmarkInfo &B,
                                        const MachineDesc &M,
                                        unsigned Procs) {
  int64_t N = B.Rank == 1 ? 1024 : 16;
  auto P = B.Build(N);
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  ProcGrid Grid = ProcGrid::make(Procs, B.Rank);

  std::map<Strategy, double> Result;
  PerfStats Base;
  for (Strategy S : allStrategies()) {
    auto LP = scalarize::scalarize(G, applyStrategy(G, S));
    comm::insertLoopLevelComm(LP);
    PerfStats Stats = simulate(LP, M, Grid);
    if (S == Strategy::Baseline)
      Base = Stats;
    Result[S] = percentImprovement(Base, Stats);
  }
  return Result;
}

const BenchmarkInfo &benchNamed(const char *Name) {
  for (const BenchmarkInfo &B : allBenchmarks())
    if (B.Name == Name)
      return B;
  return allBenchmarks().front();
}

TEST(FigureShapeTest, C2DominatesEverywhere) {
  // "The predominant characteristic of the graphs is that c2 dominates
  // the other transformations."
  for (const MachineDesc &M : allMachines()) {
    for (const BenchmarkInfo &B : allBenchmarks()) {
      auto Imp = improvements(B, M, 4);
      for (Strategy S : {Strategy::F1, Strategy::C1, Strategy::F2,
                         Strategy::F3}) {
        EXPECT_GE(Imp[Strategy::C2] + 1e-9, Imp[S])
            << B.Name << " on " << M.Name << ": c2 under "
            << getStrategyName(S);
      }
      EXPECT_GT(Imp[Strategy::C2], 0.0) << B.Name << " on " << M.Name;
    }
  }
}

TEST(FigureShapeTest, SmallKernelsGainNothingFromC1) {
  // "The smaller benchmarks, such as Fibro, EP and Frac, require no
  // compiler arrays, so they do not benefit from f1 and c1."
  MachineDesc M = crayT3E();
  for (const char *Name : {"EP", "Frac", "Fibro"}) {
    auto Imp = improvements(benchNamed(Name), M, 1);
    EXPECT_NEAR(Imp[Strategy::F1], 0.0, 1e-6) << Name;
    EXPECT_NEAR(Imp[Strategy::C1], 0.0, 1e-6) << Name;
  }
}

TEST(FigureShapeTest, C1IsOnlyAFractionOfC2OnLargeApps) {
  // "contraction of only compiler arrays, c1, provides a substantive
  // performance enhancement ... but it is only a fraction of the
  // potential contraction benefit."
  MachineDesc M = crayT3E();
  for (const char *Name : {"SP", "Tomcatv", "Simple"}) {
    auto Imp = improvements(benchNamed(Name), M, 1);
    EXPECT_GT(Imp[Strategy::C1], 0.0) << Name;
    EXPECT_LT(Imp[Strategy::C1], 0.5 * Imp[Strategy::C2]) << Name;
  }
}

TEST(FigureShapeTest, LargestImprovementIsOnAFullyContractedKernel) {
  // "sometimes up to 400%": the biggest win comes from the kernels whose
  // arrays are all eliminated.
  MachineDesc M = crayT3E();
  double Best = 0.0;
  std::string BestName;
  for (const BenchmarkInfo &B : allBenchmarks()) {
    double C2 = improvements(B, M, 1)[Strategy::C2];
    if (C2 > Best) {
      Best = C2;
      BestName = B.Name;
    }
  }
  EXPECT_GE(Best, 300.0);
  EXPECT_TRUE(BestName == "EP" || BestName == "Frac") << BestName;
}

TEST(FigureShapeTest, FavoringCommunicationLosesOnTheBigApps) {
  // Section 5.5: "the communication optimizations disable a large number
  // of array contraction opportunities without producing comparable
  // communication benefits"; EP and Frac are unaffected.
  MachineDesc M = crayT3E();
  for (const char *Name : {"Simple", "Tomcatv", "SP"}) {
    const BenchmarkInfo &B = benchNamed(Name);
    int64_t N = 16;
    auto PF = B.Build(N);
    normalizeProgram(*PF);
    ASDG GF = ASDG::build(*PF);
    auto FF = scalarize::scalarize(GF, applyStrategy(GF, Strategy::C2F3));
    comm::insertLoopLevelComm(FF);
    PerfStats FavorFusion = simulate(FF, M, ProcGrid::make(16, 2));

    auto PC = B.Build(N);
    normalizeProgram(*PC);
    comm::insertArrayLevelComm(*PC, /*Pipelined=*/true);
    ASDG GC = ASDG::build(*PC);
    auto FC = scalarize::scalarize(GC, applyStrategy(GC, Strategy::C2F3));
    PerfStats FavorComm = simulate(FC, M, ProcGrid::make(16, 2));

    EXPECT_GT(FavorComm.totalNs(), FavorFusion.totalNs()) << Name;
  }
}

TEST(FigureShapeTest, ContractionBenefitIsCacheDriven) {
  // The mechanism: contraction must cut the memory traffic, not just the
  // instruction count. Compare served-by-memory counts on Tomcatv.
  MachineDesc M = crayT3E();
  const BenchmarkInfo &B = benchNamed("Tomcatv");
  auto P = B.Build(48);
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  auto Base = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  auto C2 = scalarize::scalarize(G, applyStrategy(G, Strategy::C2));
  ProcGrid Grid = ProcGrid::make(1, 2);
  PerfStats SB = simulate(Base, M, Grid);
  PerfStats SC = simulate(C2, M, Grid);
  EXPECT_LT(2 * SC.MemRefs, SB.MemRefs)
      << "contraction should at least halve memory-served references";
  EXPECT_EQ(SB.Flops, SC.Flops) << "contraction adds no arithmetic";
}

} // namespace

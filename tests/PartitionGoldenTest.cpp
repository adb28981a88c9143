//===- tests/PartitionGoldenTest.cpp - Fusion partition golden ---------------===//
//
// Pins the answer of every partitioning strategy: for each program, the
// statement-to-cluster assignment and the contracted arrays under every
// strategy in allStrategiesForTest() (the exact `ilp` partitioner
// included), plus the partial-contraction plans of
// applyStrategyWithPartialContraction. Any change to FusionPartition's
// predicates or to a strategy driver that moves one cluster or one
// contraction shows up here as a one-line diff.
//
// Program set: the six paper benchmarks, the three semiring-zoo programs,
// the three examples/*.zpl sources and 50 ir::Generator seeds mixing two
// regions, opaque consumers, target offsets and reductions.
//
// The golden lives in tests/golden/partitions.txt, one line per
// (program, strategy). On a mismatch the test writes the complete actual
// listing to partitions.actual.txt in its working directory.
//
//===----------------------------------------------------------------------===//

#include "analysis/ASDG.h"
#include "benchprogs/Benchmarks.h"
#include "frontend/Parser.h"
#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "support/StringUtil.h"
#include "xform/Strategy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

namespace {

/// Generator configurations for the 50 seeds: the stress sweep's size
/// mix, with two-region programs, opaque consumers, target offsets and
/// trailing reductions each switched on for a different residue class.
GeneratorConfig goldenConfig(uint64_t Seed) {
  GeneratorConfig Cfg;
  Cfg.Seed = Seed;
  Cfg.NumStmts = 4 + static_cast<unsigned>(Seed % 9);
  Cfg.NumPersistent = 2 + static_cast<unsigned>(Seed % 3);
  Cfg.NumTemps = 2 + static_cast<unsigned>((Seed / 3) % 4);
  Cfg.Rank = 1 + static_cast<unsigned>(Seed % 3);
  Cfg.Extent = Cfg.Rank == 3 ? 4 : 6 + static_cast<int64_t>(Seed % 4);
  Cfg.MaxOffset = 1 + static_cast<unsigned>(Seed % 2);
  Cfg.AllowTargetOffsets = Seed % 4 == 1;
  Cfg.UseTwoRegions = Seed % 5 == 0;
  Cfg.AddOpaque = Seed % 7 == 0;
  Cfg.NumReduce = Seed % 6 == 3 ? 1 + static_cast<unsigned>(Seed % 2) : 0;
  return Cfg;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// The ClusterOf vector, written compactly: the cluster count, then every
/// multi-statement cluster as its '+'-joined members (a cluster's id is
/// its smallest member, so this determines ClusterOf exactly).
std::string assignment(const FusionPartition &P) {
  std::vector<std::vector<unsigned>> Groups(P.numStmts());
  for (unsigned I = 0; I < P.numStmts(); ++I)
    Groups[P.clusterOf(I)].push_back(I);
  std::vector<std::string> Fused;
  unsigned NumClusters = 0;
  for (const std::vector<unsigned> &Group : Groups) {
    NumClusters += !Group.empty();
    if (Group.size() < 2)
      continue;
    std::vector<std::string> Ids;
    for (unsigned I : Group)
      Ids.push_back(std::to_string(I));
    Fused.push_back(join(Ids, "+"));
  }
  return std::to_string(NumClusters) + " fused=" + join(Fused, ";");
}

std::string sortedNames(const std::vector<const ArraySymbol *> &Arrays) {
  std::vector<std::string> Names;
  for (const ArraySymbol *A : Arrays)
    Names.push_back(A->getName());
  std::sort(Names.begin(), Names.end());
  return join(Names, ",");
}

std::string planText(const PartialPlan &Plan) {
  std::vector<std::string> Ext;
  for (int64_t E : Plan.BufferExtents)
    Ext.push_back(std::to_string(E));
  return Plan.Array->getName() + "[" + join(Ext, "x") + "]";
}

/// One line per strategy plus one for partial contraction (c2, first
/// dimension sequential) for the program \p Prog, named \p Name.
void describe(const std::string &Name, Program &Prog,
              std::vector<std::string> &Lines) {
  normalizeProgram(Prog);
  ASDG G = ASDG::build(Prog);
  for (Strategy S : allStrategiesForTest()) {
    StrategyResult SR = applyStrategy(G, S);
    Lines.push_back(Name + " " + getStrategyName(S) + " clusters=" +
                    assignment(SR.Partition) +
                    " contracted=" + sortedNames(SR.Contracted));
  }
  std::vector<PartialPlan> Plans;
  StrategyResult SR = applyStrategyWithPartialContraction(
      G, Strategy::C2, SequentialDims::dims({0}), Plans);
  std::vector<std::string> PlanTexts;
  for (const PartialPlan &Plan : Plans)
    PlanTexts.push_back(planText(Plan));
  Lines.push_back(Name + " partial clusters=" + assignment(SR.Partition) +
                  " contracted=" + sortedNames(SR.Contracted) +
                  " plans=" + join(PlanTexts, ","));
}

std::vector<std::string> actualLines() {
  std::vector<std::string> Lines;
  for (const benchprogs::BenchmarkInfo &B : benchprogs::allBenchmarks()) {
    auto P = B.Build(8);
    describe(B.Name, *P, Lines);
  }
  for (const benchprogs::BenchmarkInfo &B : benchprogs::zooBenchmarks()) {
    auto P = B.Build(8);
    describe(B.Name, *P, Lines);
  }
  for (const char *File : {"ep", "jacobi", "shortest_paths"}) {
    std::string Text =
        readFile(std::string(ALF_EXAMPLES_DIR) + "/" + File + ".zpl");
    EXPECT_FALSE(Text.empty()) << File;
    auto R = frontend::parseProgram(Text, File);
    EXPECT_TRUE(R.Prog) << File;
    if (R.Prog)
      describe(std::string("zpl_") + File, *R.Prog, Lines);
  }
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    auto P = generateRandomProgram(goldenConfig(Seed));
    describe("seed" + std::to_string(Seed), *P, Lines);
  }
  return Lines;
}

TEST(PartitionGoldenTest, EveryStrategyMatchesGolden) {
  std::vector<std::string> Actual = actualLines();
  std::vector<std::string> Golden;
  {
    std::ifstream In(std::string(ALF_GOLDEN_DIR) + "/partitions.txt");
    ASSERT_TRUE(In) << "missing tests/golden/partitions.txt";
    for (std::string Line; std::getline(In, Line);)
      if (!Line.empty() && Line[0] != '#')
        Golden.push_back(Line);
  }
  bool Same = Actual == Golden;
  if (!Same) {
    std::ofstream Out("partitions.actual.txt");
    for (const std::string &Line : Actual)
      Out << Line << '\n';
  }
  EXPECT_EQ(Actual.size(), Golden.size());
  for (size_t I = 0; I < std::min(Actual.size(), Golden.size()); ++I)
    EXPECT_EQ(Actual[I], Golden[I]) << "line " << I + 1;
  EXPECT_TRUE(Same) << "full listing written to partitions.actual.txt";
}

} // namespace

//===- tests/IlpStrategyTest.cpp - Branch-and-bound partitioner tests -------===//
//
// Unit tests for xform/IlpStrategy: known-optimal hand-built ASDGs
// (chains, diamonds, a fan-in contraction trade-off where the greedy
// heuristic is provably suboptimal), exactness of the pruned search
// against a brute-force enumeration, and the node-budget fallback to the
// greedy result.
//
//===----------------------------------------------------------------------===//

#include "xform/IlpStrategy.h"

#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "ir/Verifier.h"
#include "obs/Obs.h"
#include "verify/Verify.h"
#include "xform/Fusion.h"

#include <gtest/gtest.h>

#include <functional>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

namespace {

bool contains(const std::vector<const ArraySymbol *> &Vec,
              const std::string &Name) {
  for (const ArraySymbol *A : Vec)
    if (A->getName() == Name)
      return true;
  return false;
}

/// Objective of the greedy FUSION-FOR-CONTRACTION baseline (the c2
/// candidate set, matching the solver's default filter).
double greedyObjective(const ASDG &G) {
  FusionPartition P = FusionPartition::trivial(G);
  fuseForContraction(P, anyArray());
  return contractedBytes(P, contractibleArrays(P, anyArray()));
}

/// Brute force: enumerate every restricted-growth assignment, keep the
/// legal partitions, and return the best objective. Ground truth for the
/// solver's pruning. Only usable on small programs.
double bruteForceOptimum(const ASDG &G) {
  unsigned N = G.numNodes();
  EXPECT_LE(N, 8u) << "brute force is exponential; keep test programs small";
  std::vector<unsigned> Assign(N);
  double Best = -1;
  std::function<void(unsigned, std::vector<unsigned>)> Enumerate =
      [&](unsigned Depth, std::vector<unsigned> Reps) {
        if (Depth == N) {
          FusionPartition P = FusionPartition::fromAssignment(G, Assign);
          if (!isValidPartition(P))
            return;
          Best = std::max(
              Best, contractedBytes(P, contractibleArrays(P, anyArray())));
          return;
        }
        for (unsigned R : Reps) {
          Assign[Depth] = R;
          Enumerate(Depth + 1, Reps);
        }
        Assign[Depth] = Depth;
        Reps.push_back(Depth);
        Enumerate(Depth + 1, Reps);
      };
  Enumerate(0, {});
  return Best;
}

/// A three-statement chain through two contractible temporaries: the
/// whole program fuses into one nest and both temporaries contract.
std::unique_ptr<Program> makeChain() {
  auto P = std::make_unique<Program>("chain");
  const Region *R = P->regionFromExtents({16});
  ArraySymbol *A = P->makeArray("A", 1);
  ArraySymbol *B = P->makeArray("B", 1);
  ArraySymbol *T1 = P->makeUserTemp("T1", 1);
  ArraySymbol *T2 = P->makeUserTemp("T2", 1);
  P->assign(R, T1, aref(A));                 // S0
  P->assign(R, T2, add(aref(T1), aref(A))); // S1
  P->assign(R, B, aref(T2));                 // S2
  normalizeProgram(*P);
  return P;
}

/// A diamond: one producer fans out to two temporaries that fan back in.
std::unique_ptr<Program> makeDiamond() {
  auto P = std::make_unique<Program>("diamond");
  const Region *R = P->regionFromExtents({16});
  ArraySymbol *A = P->makeArray("A", 1);
  ArraySymbol *B = P->makeArray("B", 1);
  ArraySymbol *T = P->makeUserTemp("T", 1);
  ArraySymbol *U1 = P->makeUserTemp("U1", 1);
  ArraySymbol *U2 = P->makeUserTemp("U2", 1);
  P->assign(R, T, aref(A));                   // S0
  P->assign(R, U1, add(aref(T), aref(A)));   // S1
  P->assign(R, U2, mul(aref(T), aref(A)));   // S2
  P->assign(R, B, add(aref(U1), aref(U2)));  // S3
  normalizeProgram(*P);
  return P;
}

/// The fan-in trade-off where greedy FUSION-FOR-CONTRACTION is provably
/// suboptimal. X is the heaviest temporary (four references), so the
/// greedy loop contracts it first by fusing {S0,S3}. But S0 reads V1 and
/// V2 at offset -1 while S3 reads them at +1, so once S0 and S3 share a
/// cluster, pulling in S4 (V1's writer) or S5 (V2's writer) needs a loop
/// direction preserving both a +1 and a -1 anti dependence — impossible.
/// That blocks M1 and M2 (three references each) forever: greedy ends at
/// w(X) = 4·16 elements. The optimum leaves S0 alone and fuses
/// {S1..S5}, contracting M1 and M2 for 6·16 elements.
std::unique_ptr<Program> makeFanInTradeoff() {
  auto P = std::make_unique<Program>("fanin-tradeoff");
  const Region *R = P->regionFromExtents({16});
  ArraySymbol *V1 = P->makeArray("V1", 1);
  ArraySymbol *V2 = P->makeArray("V2", 1);
  ArraySymbol *A = P->makeArray("A", 1);
  ArraySymbol *B = P->makeArray("B", 1);
  ArraySymbol *W = P->makeArray("W", 1);
  ArraySymbol *X = P->makeUserTemp("X", 1);
  ArraySymbol *M1 = P->makeUserTemp("M1", 1);
  ArraySymbol *M2 = P->makeUserTemp("M2", 1);
  // S0: X := V1@(-1) + V2@(-1) + A
  P->assign(R, X, add(add(aref(V1, {-1}), aref(V2, {-1})), aref(A)));
  P->assign(R, M1, aref(A)); // S1
  P->assign(R, M2, aref(B)); // S2
  // S3: W := X + X + X + M1 + M2 + V1@(1) + V2@(1)
  P->assign(R, W,
            add(add(add(aref(X), aref(X)), aref(X)),
                add(add(aref(M1), aref(M2)),
                    add(aref(V1, {1}), aref(V2, {1})))));
  P->assign(R, V1, add(aref(M1), aref(A))); // S4
  P->assign(R, V2, add(aref(M2), aref(B))); // S5
  normalizeProgram(*P);
  return P;
}

TEST(IlpStrategyTest, ChainContractsEverything) {
  auto P = makeChain();
  ASDG G = ASDG::build(*P);
  IlpStats St;
  StrategyResult SR = solveOptimalPartition(G, IlpOptions(), &St);
  EXPECT_TRUE(isValidPartition(SR.Partition));
  EXPECT_EQ(SR.Partition.numClusters(), 1u);
  EXPECT_TRUE(contains(SR.Contracted, "T1"));
  EXPECT_TRUE(contains(SR.Contracted, "T2"));
  // Two 16-element temporaries, two references each (one write, one
  // read), eight bytes per element.
  EXPECT_DOUBLE_EQ(St.ObjectiveBytes, 2 * 2 * 16 * 8.0);
  EXPECT_DOUBLE_EQ(St.ObjectiveBytes, bruteForceOptimum(G));
  EXPECT_FALSE(St.ImprovedOverGreedy); // greedy is optimal on a chain
  EXPECT_FALSE(St.BudgetExhausted);
}

TEST(IlpStrategyTest, DiamondContractsEverything) {
  auto P = makeDiamond();
  ASDG G = ASDG::build(*P);
  IlpStats St;
  StrategyResult SR = solveOptimalPartition(G, IlpOptions(), &St);
  EXPECT_TRUE(isValidPartition(SR.Partition));
  EXPECT_EQ(SR.Partition.numClusters(), 1u);
  EXPECT_TRUE(contains(SR.Contracted, "T"));
  EXPECT_TRUE(contains(SR.Contracted, "U1"));
  EXPECT_TRUE(contains(SR.Contracted, "U2"));
  // T has three references, U1 and U2 two each.
  EXPECT_DOUBLE_EQ(St.ObjectiveBytes, (3 + 2 + 2) * 16 * 8.0);
  EXPECT_DOUBLE_EQ(St.ObjectiveBytes, bruteForceOptimum(G));
}

TEST(IlpStrategyTest, BeatsGreedyOnFanInTradeoff) {
  auto P = makeFanInTradeoff();
  ASSERT_TRUE(isWellFormed(*P));
  ASDG G = ASDG::build(*P);
  ASSERT_EQ(G.numNodes(), 6u) << "normalization must not split this program";

  double Greedy = greedyObjective(G);
  EXPECT_DOUBLE_EQ(Greedy, 4 * 16 * 8.0); // greedy contracts only X

  IlpStats St;
  StrategyResult SR = solveOptimalPartition(G, IlpOptions(), &St);
  EXPECT_TRUE(isValidPartition(SR.Partition));
  EXPECT_DOUBLE_EQ(St.GreedyObjectiveBytes, Greedy);
  EXPECT_DOUBLE_EQ(St.ObjectiveBytes, (3 + 3) * 16 * 8.0); // M1 and M2
  EXPECT_TRUE(St.ImprovedOverGreedy);
  EXPECT_TRUE(contains(SR.Contracted, "M1"));
  EXPECT_TRUE(contains(SR.Contracted, "M2"));
  EXPECT_FALSE(contains(SR.Contracted, "X"));
  EXPECT_DOUBLE_EQ(St.ObjectiveBytes, bruteForceOptimum(G));

  // The emitted partition must satisfy the independent verifier, and the
  // strategy layer must reach the same solution through applyStrategy.
  EXPECT_TRUE(verify::verifyStrategy(G, SR).ok());
  StrategyResult ViaLayer = applyStrategy(G, Strategy::IlpOptimal);
  EXPECT_DOUBLE_EQ(contractedBytes(ViaLayer.Partition, ViaLayer.Contracted),
                   St.ObjectiveBytes);
}

TEST(IlpStrategyTest, PruningPreservesOptimality) {
  // The search must prune (the bound fires on the trade-off program) yet
  // still match the unpruned brute-force optimum.
  auto P = makeFanInTradeoff();
  ASDG G = ASDG::build(*P);
  IlpStats St;
  solveOptimalPartition(G, IlpOptions(), &St);
  EXPECT_GT(St.BranchesPruned, 0u);
  EXPECT_GT(St.NodesExplored, 0u);
  EXPECT_DOUBLE_EQ(St.ObjectiveBytes, bruteForceOptimum(G));
}

TEST(IlpStrategyTest, MatchesBruteForceOnGeneratedPrograms) {
  // Small generator programs (the stress sweep's distribution, scaled
  // down) — the pruned search must equal exhaustive enumeration.
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    GeneratorConfig Cfg;
    Cfg.Seed = Seed;
    Cfg.NumStmts = 3 + static_cast<unsigned>(Seed % 3);
    Cfg.NumPersistent = 2;
    Cfg.NumTemps = 2;
    Cfg.Rank = 1 + static_cast<unsigned>(Seed % 2);
    Cfg.Extent = 6;
    Cfg.MaxOffset = 1;
    auto P = generateRandomProgram(Cfg);
    ASDG G = ASDG::build(*P);
    if (G.numNodes() > 8)
      continue; // keep brute force tractable
    IlpStats St;
    solveOptimalPartition(G, IlpOptions(), &St);
    EXPECT_DOUBLE_EQ(St.ObjectiveBytes, bruteForceOptimum(G))
        << "seed " << Seed;
    EXPECT_GE(St.ObjectiveBytes, greedyObjective(G)) << "seed " << Seed;
  }
}

TEST(IlpStrategyTest, BudgetFallbackDegradesToGreedy) {
  obs::reset();
  auto P = makeFanInTradeoff();
  ASDG G = ASDG::build(*P);

  IlpOptions Opts;
  Opts.NodeBudget = 1; // exhausted before any assignment is explored
  IlpStats St;
  StrategyResult SR = solveOptimalPartition(G, Opts, &St);
  EXPECT_TRUE(St.BudgetExhausted);
  EXPECT_FALSE(St.ImprovedOverGreedy);
  EXPECT_DOUBLE_EQ(St.ObjectiveBytes, St.GreedyObjectiveBytes);
  EXPECT_DOUBLE_EQ(St.ObjectiveBytes, greedyObjective(G));
  EXPECT_TRUE(isValidPartition(SR.Partition));
  EXPECT_TRUE(contains(SR.Contracted, "X")); // the greedy solution

  // The fallback is visible as a "strategy" statistic.
  EXPECT_GE(obs::counterValue("strategy.ilp.budget_exhausted"), 1u);
  EXPECT_GE(obs::counterValue("strategy.ilp.solves"), 1u);
}

TEST(IlpStrategyTest, StrategyNameAndLookup) {
  EXPECT_STREQ(getStrategyName(Strategy::IlpOptimal), "ilp");
  EXPECT_EQ(strategyNamed("ilp"), Strategy::IlpOptimal);
  EXPECT_EQ(strategyNamed("c2"), Strategy::C2);
  EXPECT_EQ(strategyNamed("nope"), std::nullopt);
  // The paper's presentation list stays the paper's: eight strategies,
  // the optimal partitioner only by explicit request.
  EXPECT_EQ(allStrategies().size(), 8u);
  for (Strategy S : allStrategies())
    EXPECT_NE(S, Strategy::IlpOptimal);
}

} // namespace

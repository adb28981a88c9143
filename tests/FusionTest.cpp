//===- tests/FusionTest.cpp - Fusion partition and algorithm tests ----------===//

#include "xform/Fusion.h"
#include "xform/Strategy.h"

#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "ir/Verifier.h"
#include "support/Random.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>

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

TEST(FusionPartitionTest, TrivialPartition) {
  auto P = tp::makeFigure2();
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_EQ(FP.numClusters(), 3u);
  for (unsigned I = 0; I < 3; ++I) {
    EXPECT_EQ(FP.clusterOf(I), I);
    EXPECT_EQ(FP.members(I), std::vector<unsigned>{I});
  }
  EXPECT_TRUE(isValidPartition(FP));
}

TEST(FusionPartitionTest, MergeIntoSmallestId) {
  auto P = tp::makeFigure2();
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  unsigned Survivor = FP.merge({0, 2});
  EXPECT_EQ(Survivor, 0u);
  EXPECT_EQ(FP.numClusters(), 2u);
  EXPECT_EQ(FP.clusterOf(2), 0u);
  EXPECT_EQ(FP.members(0), (std::vector<unsigned>{0, 2}));
}

TEST(FusionPartitionTest, GrowFindsPathClusters) {
  // S0 -> S1 -> S2 with S0 and S2 referencing X: fusing {S0,S2} without S1
  // would create a cycle, so GROW must return {S1}.
  Program P("grow");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *X = P.makeUserTemp("X", 1);
  ArraySymbol *Y = P.makeUserTemp("Y", 1);
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, X, aref(A));               // S0 writes X
  P.assign(R, Y, aref(X));               // S1 reads X, writes Y
  P.assign(R, B, add(aref(Y), aref(X))); // S2 reads X and Y
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  std::set<unsigned> C{0, 2};
  EXPECT_EQ(FP.grow(C), std::set<unsigned>{1});
  // Growing a closed set adds nothing.
  std::set<unsigned> All{0, 1, 2};
  EXPECT_TRUE(FP.grow(All).empty());
}

TEST(LegalityTest, RegionMismatchBlocksFusion) {
  Program P("regions");
  const Region *R1 = P.regionFromExtents({8});
  const Region *R2 = P.regionFromExtents({9});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  P.assign(R1, B, aref(A));
  P.assign(R2, C, aref(A));
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_FALSE(isLegalFusion(FP, {0, 1}));
}

TEST(LegalityTest, NonNullFlowBlocksFusion) {
  // Definition 5 (ii): loop-carried flow dependences inhibit fusion.
  Program P("flow");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeUserTemp("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  P.assign(R, B, aref(A));
  P.assign(R, C, aref(B, {-1})); // flow UDV (0)-(-1) = (1)
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_FALSE(isLegalFusion(FP, {0, 1}));
}

TEST(LegalityTest, NullFlowAllowsFusion) {
  auto P = tp::makeUserTempPair();
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  LoopStructureVector LSV;
  EXPECT_TRUE(isLegalFusion(FP, {0, 1}, &LSV));
  EXPECT_EQ(LSV, LoopStructureVector::identity(2));
}

TEST(LegalityTest, AntiDependenceFusedByReversal) {
  // Figure 5 fragment (3) shape: S0 reads C@(-1,0); S1 writes C. The anti
  // UDV (-1,0) requires a reversed loop, which FIND-LOOP-STRUCTURE
  // provides (the commercial compilers in section 5.1 fail here).
  Program P("frag3");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  ArraySymbol *C = P.makeArray("C", 2);
  P.assign(R, B, add(aref(A, {-1, 0}), aref(C, {-1, 0})));
  P.assign(R, C, mul(aref(A), aref(A)));
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  LoopStructureVector LSV;
  ASSERT_TRUE(isLegalFusion(FP, {0, 1}, &LSV));
  EXPECT_EQ(LSV, LoopStructureVector({-1, 2}));
}

TEST(LegalityTest, CommStatementNeverFuses) {
  Program P("comm");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, A, aref(B));
  P.comm(A, Offset({1}));
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_FALSE(isLegalFusion(FP, {0, 1}));
}

TEST(ContractibleTest, RequiresNullUDVsAndSingleCluster) {
  auto P = tp::makeUserTempPair();
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  const auto *B = cast<ArraySymbol>(P->findSymbol("B"));
  // Unfused: refs in two clusters.
  EXPECT_FALSE(isContractible(FP, B));
  // Hypothetically fused: contractible.
  EXPECT_TRUE(isContractible(FP, {0, 1}, B));
  FP.merge({0, 1});
  EXPECT_TRUE(isContractible(FP, B));
}

TEST(ContractibleTest, LiveOutNeverContractible) {
  Program P("liveout");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1); // live-out by default
  P.assign(R, B, aref(A));
  P.assign(R, A, aref(B));
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_FALSE(isContractible(FP, {0, 1},
                              cast<ArraySymbol>(P.findSymbol("B"))));
}

TEST(ContractibleTest, UpwardExposedReadBlocksContraction) {
  // X is read before it is written: the live-in value is required, so the
  // array cannot become a scalar even though all UDVs are null.
  Program P("upward");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ArrayOpts Opts;
  Opts.LiveOut = false;
  Opts.LiveIn = true;
  ArraySymbol *X = P.makeArray("X", 1, Opts);
  P.assign(R, A, aref(X)); // upward-exposed read of X
  P.assign(R, X, aref(B));
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_FALSE(isContractible(FP, {0, 1},
                              cast<ArraySymbol>(P.findSymbol("X"))));
}

TEST(ContractibleTest, NonNullUDVBlocksContraction) {
  Program P("shifted");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeUserTemp("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  P.assign(R, B, aref(A));
  P.assign(R, C, aref(B, {1})); // UDV (0)-(1) = (-1), non-null
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_FALSE(isContractible(FP, {0, 1},
                              cast<ArraySymbol>(P.findSymbol("B"))));
}

TEST(FusionForContractionTest, UserTempPairContracts) {
  auto P = tp::makeUserTempPair();
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_EQ(fuseForContraction(FP, anyArray()), 1u);
  EXPECT_EQ(FP.numClusters(), 1u);
  auto Contracted = contractibleArrays(FP, anyArray());
  ASSERT_EQ(Contracted.size(), 1u);
  EXPECT_EQ(Contracted[0]->getName(), "B");
  EXPECT_TRUE(isValidPartition(FP));
}

TEST(FusionForContractionTest, TomcatvContractsRAndCompilerTemps) {
  // The paper's Figure 1 motivation: R contracts to a scalar.
  auto P = tp::makeTomcatvFragment();
  normalizeProgram(*P);
  EXPECT_TRUE(isWellFormed(*P));
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  fuseForContraction(FP, anyArray());
  auto Contracted = contractibleArrays(FP, anyArray());
  EXPECT_TRUE(contains(Contracted, "R"));
  EXPECT_TRUE(contains(Contracted, "_T1"));
  EXPECT_TRUE(contains(Contracted, "_T2"));
  EXPECT_EQ(Contracted.size(), 3u);
  EXPECT_TRUE(isValidPartition(FP));
}

TEST(FusionForContractionTest, CompilerOnlyFilterSkipsUserTemps) {
  auto P = tp::makeTomcatvFragment();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  fuseForContraction(FP, compilerTempsOnly());
  auto Contracted = contractibleArrays(FP, compilerTempsOnly());
  EXPECT_FALSE(contains(Contracted, "R"));
  EXPECT_TRUE(contains(Contracted, "_T1"));
  EXPECT_TRUE(contains(Contracted, "_T2"));
}

TEST(FusionForLocalityTest, FusesIndependentReaders) {
  // Figure 5 fragment (1): B = A+A; C = A*A. No dependences; locality
  // fusion merges the two statements to reuse A.
  Program P("frag1");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  ArraySymbol *C = P.makeArray("C", 2);
  P.assign(R, B, add(aref(A), aref(A)));
  P.assign(R, C, mul(aref(A), aref(A)));
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_EQ(fuseForContraction(FP, anyArray()), 0u); // nothing contractible
  EXPECT_EQ(fuseForLocality(FP), 1u);
  EXPECT_EQ(FP.numClusters(), 1u);
}

TEST(FusionTest, PairwiseFusesEverythingLegal) {
  Program P("pairwise");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  ArraySymbol *D = P.makeArray("D", 1);
  P.assign(R, B, aref(A));
  P.assign(R, C, aref(A, {1}));
  P.assign(R, D, cst(0.0));
  ASDG G = ASDG::build(P);
  FusionPartition FP = FusionPartition::trivial(G);
  fuseAllPairwise(FP);
  EXPECT_EQ(FP.numClusters(), 1u);
  EXPECT_TRUE(isValidPartition(FP));
}

TEST(StrategyTest, BaselineDoesNothing) {
  auto P = tp::makeUserTempPair();
  ASDG G = ASDG::build(*P);
  StrategyResult SR = applyStrategy(G, Strategy::Baseline);
  EXPECT_EQ(SR.Partition.numClusters(), 2u);
  EXPECT_TRUE(SR.Contracted.empty());
}

TEST(StrategyTest, C2ContractsUserTemp) {
  auto P = tp::makeUserTempPair();
  ASDG G = ASDG::build(*P);
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  EXPECT_EQ(SR.Partition.numClusters(), 1u);
  ASSERT_EQ(SR.Contracted.size(), 1u);
  EXPECT_EQ(SR.Contracted[0]->getName(), "B");
}

TEST(StrategyTest, F2FusesForUserButContractsCompilerOnly) {
  auto P = tp::makeTomcatvFragment();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  StrategyResult SR = applyStrategy(G, Strategy::F2);
  // Fusion happened for R as well...
  EXPECT_LT(SR.Partition.numClusters(), 6u);
  // ...but only compiler temporaries are contracted.
  for (const ArraySymbol *A : SR.Contracted)
    EXPECT_TRUE(A->isCompilerTemp());
}

TEST(StrategyTest, F1FusesButContractsNothing) {
  auto P = tp::makeTomcatvFragment();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  StrategyResult SR = applyStrategy(G, Strategy::F1);
  EXPECT_TRUE(SR.Contracted.empty());
}

TEST(StrategyTest, AllStrategiesProduceValidPartitions) {
  auto P = tp::makeTomcatvFragment();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  for (Strategy S : allStrategiesForTest()) {
    StrategyResult SR = applyStrategy(G, S);
    EXPECT_TRUE(isValidPartition(SR.Partition)) << getStrategyName(S);
    // Contracted arrays must satisfy Definition 6 in the final partition.
    for (const ArraySymbol *A : SR.Contracted)
      EXPECT_TRUE(isContractible(SR.Partition, A)) << A->getName();
  }
}

TEST(StrategyTest, NamesAreStable) {
  EXPECT_STREQ(getStrategyName(Strategy::Baseline), "baseline");
  EXPECT_STREQ(getStrategyName(Strategy::C2F3), "c2+f3");
  EXPECT_STREQ(getStrategyName(Strategy::C2F4), "c2+f4");
  EXPECT_EQ(allStrategies().size(), 8u);
}

//===----------------------------------------------------------------------===//
// Differential oracle: FusionPartition's maintained quotient graph against
// a from-scratch rebuild
//===----------------------------------------------------------------------===//

/// The predicates as they were before FusionPartition kept its quotient
/// graph incrementally: every query rebuilds the cluster quotient from
/// all ASDG edges and scans every edge for CONTRACTIBLE?. Test-only; it
/// reads nothing of a partition but clusterOf().
namespace ref {

std::vector<unsigned> members(const FusionPartition &P, unsigned Cluster) {
  std::vector<unsigned> Result;
  for (unsigned I = 0; I < P.numStmts(); ++I)
    if (P.clusterOf(I) == Cluster)
      Result.push_back(I);
  return Result;
}

std::vector<unsigned> clusters(const FusionPartition &P) {
  std::vector<unsigned> Result;
  for (unsigned I = 0; I < P.numStmts(); ++I)
    if (P.clusterOf(I) == I)
      Result.push_back(I);
  return Result;
}

std::vector<std::pair<unsigned, unsigned>>
clusterEdges(const FusionPartition &P) {
  std::set<std::pair<unsigned, unsigned>> Distinct;
  for (const DepEdge &E : P.graph().edges()) {
    unsigned SC = P.clusterOf(E.Src), TC = P.clusterOf(E.Tgt);
    if (SC != TC)
      Distinct.insert({SC, TC});
  }
  return {Distinct.begin(), Distinct.end()};
}

std::set<unsigned> grow(const FusionPartition &P, const std::set<unsigned> &C) {
  std::map<unsigned, std::vector<unsigned>> Succ, Pred;
  for (auto [S, T] : clusterEdges(P)) {
    Succ[S].push_back(T);
    Pred[T].push_back(S);
  }
  auto Reach = [&C](const std::map<unsigned, std::vector<unsigned>> &Adj) {
    std::set<unsigned> Seen(C.begin(), C.end());
    std::deque<unsigned> Work(C.begin(), C.end());
    while (!Work.empty()) {
      unsigned Node = Work.front();
      Work.pop_front();
      auto It = Adj.find(Node);
      if (It == Adj.end())
        continue;
      for (unsigned Next : It->second)
        if (Seen.insert(Next).second)
          Work.push_back(Next);
    }
    return Seen;
  };
  std::set<unsigned> Fwd = Reach(Succ), Bwd = Reach(Pred), Result;
  for (unsigned Cl : Fwd)
    if (Bwd.count(Cl) && !C.count(Cl))
      Result.insert(Cl);
  return Result;
}

/// Whether the quotient graph with the clusters of C as one node has a
/// cycle (three-colour DFS).
bool mergeWouldCreateCycle(const FusionPartition &P,
                           const std::set<unsigned> &C) {
  unsigned Rep = *C.begin();
  auto Quot = [&](unsigned Cl) { return C.count(Cl) ? Rep : Cl; };
  std::map<unsigned, std::set<unsigned>> Succ;
  std::set<unsigned> Nodes;
  for (auto [S, T] : clusterEdges(P)) {
    unsigned QS = Quot(S), QT = Quot(T);
    Nodes.insert(QS);
    Nodes.insert(QT);
    if (QS != QT)
      Succ[QS].insert(QT);
  }
  std::map<unsigned, int> Color;
  for (unsigned Start : Nodes) {
    if (Color[Start] != 0)
      continue;
    std::vector<std::pair<unsigned, bool>> Stack{{Start, false}};
    while (!Stack.empty()) {
      auto [Node, Done] = Stack.back();
      Stack.pop_back();
      if (Done) {
        Color[Node] = 2;
        continue;
      }
      if (Color[Node] != 0)
        continue;
      Color[Node] = 1;
      Stack.push_back({Node, true});
      for (unsigned Next : Succ[Node]) {
        if (Color[Next] == 1)
          return true;
        if (Color[Next] == 0)
          Stack.push_back({Next, false});
      }
    }
  }
  return false;
}

const Region *fusableRegion(const Stmt *S) {
  if (const auto *NS = dyn_cast<NormalizedStmt>(S))
    return NS->getRegion();
  if (const auto *RS = dyn_cast<ReduceStmt>(S))
    return RS->getRegion();
  return nullptr;
}

using DistRule = std::function<bool(const Offset &)>;

bool legalWithFlowRule(const FusionPartition &P, const std::set<unsigned> &C,
                       const DistRule &FlowOk, LoopStructureVector *OutLSV) {
  const ASDG &G = P.graph();
  const Program &Prog = G.getProgram();
  std::vector<unsigned> Stmts;
  for (unsigned Cl : C)
    for (unsigned StmtId : members(P, Cl))
      Stmts.push_back(StmtId);
  if (Stmts.size() > 1) {
    const Region *Common = nullptr;
    for (unsigned StmtId : Stmts) {
      const Region *R = fusableRegion(Prog.getStmt(StmtId));
      if (!R || (Common && *Common != *R))
        return false;
      Common = R;
    }
  }
  std::set<unsigned> InCluster(Stmts.begin(), Stmts.end());
  std::vector<Offset> UDVs;
  for (const DepEdge &E : G.edges()) {
    if (!InCluster.count(E.Src) || !InCluster.count(E.Tgt))
      continue;
    for (const DepLabel &L : E.Labels) {
      if (!L.UDV || (L.Type == DepType::Flow && !FlowOk(*L.UDV)))
        return false;
      UDVs.push_back(*L.UDV);
    }
  }
  if (Stmts.size() > 1) {
    unsigned Min = *InCluster.begin(), Max = *InCluster.rbegin();
    for (unsigned Pos = Min + 1; Pos < Max; ++Pos)
      if (isa<CommStmt>(Prog.getStmt(Pos)))
        return false;
  }
  if (mergeWouldCreateCycle(P, C))
    return false;
  unsigned Rank = 0;
  for (unsigned StmtId : Stmts)
    if (const Region *R = fusableRegion(Prog.getStmt(StmtId))) {
      Rank = R->rank();
      break;
    }
  if (Rank == 0) {
    if (OutLSV)
      *OutLSV = LoopStructureVector();
    return true;
  }
  auto LSV = findLoopStructure(UDVs, Rank);
  if (LSV && OutLSV)
    *OutLSV = *LSV;
  return LSV.has_value();
}

bool contractibleWithRule(const FusionPartition &P,
                          const std::set<unsigned> &C, const ArraySymbol *Var,
                          const DistRule &DistOk) {
  const ASDG &G = P.graph();
  const Program &Prog = G.getProgram();
  if (Var->isLiveOut())
    return false;
  std::vector<unsigned> Referencing = G.statementsReferencing(Var);
  if (Referencing.empty())
    return false;
  bool SeenWrite = false;
  for (unsigned StmtId : Referencing) {
    const Stmt *S = Prog.getStmt(StmtId);
    if (const auto *NS = dyn_cast<NormalizedStmt>(S)) {
      if (!SeenWrite && NS->readsArray(Var))
        return false;
      if (NS->getLHS() == Var)
        SeenWrite = true;
      continue;
    }
    if (isa<ReduceStmt>(S) && SeenWrite)
      continue;
    return false;
  }
  if (!SeenWrite)
    return false;
  for (const DepEdge &E : G.edges())
    for (const DepLabel &L : E.Labels) {
      if (L.Var != Var)
        continue;
      unsigned SC = P.clusterOf(E.Src), TC = P.clusterOf(E.Tgt);
      if (SC != TC && !(C.count(SC) && C.count(TC)))
        return false;
      if (!L.UDV || !DistOk(*L.UDV))
        return false;
    }
  return true;
}

bool validPartition(const FusionPartition &P) {
  std::vector<unsigned> Clusters = clusters(P);
  for (unsigned Cl : Clusters)
    if (!legalWithFlowRule(P, {Cl}, [](const Offset &U) { return U.isZero(); },
                           nullptr))
      return false;
  return Clusters.empty() || !mergeWouldCreateCycle(P, {Clusters.front()});
}

} // namespace ref

/// The stress sweep's generator mix plus trailing reductions.
GeneratorConfig oracleConfig(uint64_t Seed) {
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
  Cfg.NumReduce = Seed % 6 == 3 ? 1 : 0;
  return Cfg;
}

/// Compares every predicate of \p P against the reference for the cluster
/// set \p C (a set of active cluster ids).
void expectPredicatesAgree(const FusionPartition &P,
                           const std::set<unsigned> &C,
                           const std::string &Where) {
  SCOPED_TRACE(Where);
  auto Zero = [](const Offset &U) { return U.isZero(); };
  SequentialDims Seq = SequentialDims::dims({0});
  auto SeqRule = [&Seq](const Offset &U) {
    for (unsigned D = 0; D < U.rank(); ++D)
      if (U[D] != 0 && !Seq.isSequential(D))
        return false;
    return true;
  };
  EXPECT_EQ(P.grow(C), ref::grow(P, C));
  EXPECT_EQ(P.mergeCreatesCycle(C), ref::mergeWouldCreateCycle(P, C));
  LoopStructureVector Got, Want;
  bool Legal = isLegalFusion(P, C, &Got);
  EXPECT_EQ(Legal, ref::legalWithFlowRule(P, C, Zero, &Want));
  if (Legal) {
    EXPECT_EQ(Got, Want);
  }
  EXPECT_EQ(isLegalFusionRelaxed(P, C, Seq),
            ref::legalWithFlowRule(P, C, SeqRule, nullptr));
  for (const ArraySymbol *A : P.graph().getProgram().arrays()) {
    EXPECT_EQ(isContractible(P, C, A),
              ref::contractibleWithRule(P, C, A, Zero))
        << A->getName();
    EXPECT_EQ(isPartiallyContractible(P, C, A, Seq),
              ref::contractibleWithRule(P, C, A, SeqRule))
        << A->getName();
  }
}

/// Compares the partition's own bookkeeping against the reference.
void expectStructureAgrees(const FusionPartition &P, const std::string &Where) {
  SCOPED_TRACE(Where);
  std::vector<unsigned> Clusters = ref::clusters(P);
  EXPECT_EQ(P.clusters(), Clusters);
  EXPECT_EQ(P.numClusters(), Clusters.size());
  for (unsigned Cl : Clusters)
    EXPECT_EQ(P.members(Cl), ref::members(P, Cl)) << "cluster " << Cl;
  EXPECT_EQ(P.clusterEdges(), ref::clusterEdges(P));
  EXPECT_EQ(isValidPartition(P), ref::validPartition(P));
  if (!Clusters.empty()) {
    EXPECT_EQ(P.isAcyclic(),
              !ref::mergeWouldCreateCycle(P, {Clusters.front()}));
  }
}

/// Up to four distinct clusters of \p P drawn from \p Rng.
std::set<unsigned> randomClusterSet(const FusionPartition &P, SplitMix64 &Rng) {
  const std::vector<unsigned> &Clusters = P.clusters();
  std::set<unsigned> C;
  unsigned Size = 1 + static_cast<unsigned>(Rng.nextBounded(4));
  for (unsigned I = 0; I < Size; ++I)
    C.insert(Clusters[Rng.nextBounded(Clusters.size())]);
  return C;
}

/// One query step: the driver's own cluster set, then random ones.
void checkStep(const FusionPartition &P, const std::set<unsigned> &C,
               SplitMix64 &Rng, const std::string &Where) {
  expectPredicatesAgree(P, C, Where);
  for (unsigned I = 0; I < 3; ++I)
    expectPredicatesAgree(P, randomClusterSet(P, Rng), Where + " (random)");
}

class PredicateOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PredicateOracleTest, ReplayedDriversAgreeWithRebuild) {
  auto Prog = generateRandomProgram(oracleConfig(GetParam()));
  normalizeProgram(*Prog);
  ASDG G = ASDG::build(*Prog);
  SplitMix64 Rng(GetParam());
  FusionPartition P = FusionPartition::trivial(G);
  expectStructureAgrees(P, "trivial");

  // The Figure 3 loop, once requiring CONTRACTIBLE? (c2) and once not
  // (locality).
  for (bool RequireContractible : {true, false})
    for (const ArraySymbol *Var : G.arraysByDecreasingWeight()) {
      std::string Where = (RequireContractible ? "contraction " : "locality ") +
                          Var->getName();
      std::set<unsigned> C;
      for (unsigned StmtId : G.statementsReferencing(Var))
        C.insert(P.clusterOf(StmtId));
      std::set<unsigned> Grown = ref::grow(P, C);
      C.insert(Grown.begin(), Grown.end());
      if (C.size() < 2)
        C.clear();
      EXPECT_EQ(P.fusionCandidates(Var), C) << Where;
      if (C.empty())
        continue;
      checkStep(P, C, Rng, Where);
      if (RequireContractible && !isContractible(P, C, Var))
        continue;
      if (!isLegalFusion(P, C))
        continue;
      P.merge(C);
      expectStructureAgrees(P, Where + " merged");
    }

  // The greedy pairwise loop (f4).
  for (bool Changed = true; Changed;) {
    Changed = false;
    std::vector<unsigned> Clusters = P.clusters();
    for (size_t I = 0; I < Clusters.size() && !Changed; ++I)
      for (size_t J = I + 1; J < Clusters.size() && !Changed; ++J) {
        std::set<unsigned> C{Clusters[I], Clusters[J]};
        std::set<unsigned> Grown = ref::grow(P, C);
        C.insert(Grown.begin(), Grown.end());
        std::string Where = "pairwise " + std::to_string(Clusters[I]) + "," +
                            std::to_string(Clusters[J]);
        checkStep(P, C, Rng, Where);
        if (!isLegalFusion(P, C))
          continue;
        P.merge(C);
        expectStructureAgrees(P, Where + " merged");
        Changed = true;
      }
  }
  EXPECT_TRUE(isValidPartition(P));
}

TEST_P(PredicateOracleTest, CyclicAssignmentsAgreeWithRebuild) {
  // Partitions built by fromAssignment may already be cyclic: fuse two
  // clusters without their GROW closure (what IlpStrategy's test-only
  // corruption does) and query the result.
  auto Prog = generateRandomProgram(oracleConfig(GetParam()));
  normalizeProgram(*Prog);
  ASDG G = ASDG::build(*Prog);
  SplitMix64 Rng(GetParam() * 7919);
  FusionPartition Trivial = FusionPartition::trivial(G);
  for (unsigned A = 0; A < G.numNodes(); ++A)
    for (unsigned B = A + 2; B < G.numNodes(); ++B) {
      if (ref::grow(Trivial, {A, B}).empty())
        continue;
      std::vector<unsigned> Assign(G.numNodes());
      for (unsigned S = 0; S < G.numNodes(); ++S)
        Assign[S] = S == B ? A : S;
      FusionPartition P = FusionPartition::fromAssignment(G, Assign);
      std::string Where = "S" + std::to_string(A) + "+S" + std::to_string(B);
      EXPECT_FALSE(P.isAcyclic()) << Where;
      expectStructureAgrees(P, Where);
      checkStep(P, randomClusterSet(P, Rng), Rng, Where);
      // Merging more clusters into a cyclic partition keeps it coherent.
      P.merge(randomClusterSet(P, Rng));
      expectStructureAgrees(P, Where + " merged");
      checkStep(P, randomClusterSet(P, Rng), Rng, Where + " merged");
      // The same cycle made by merge() on the acyclic trivial partition.
      FusionPartition Merged = FusionPartition::trivial(G);
      Merged.merge({A, B});
      expectStructureAgrees(Merged, Where + " by merge");
      checkStep(Merged, randomClusterSet(Merged, Rng), Rng,
                Where + " by merge");
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredicateOracleTest,
                         ::testing::Range<uint64_t>(1, 51));

TEST(PredicateOracleCoverageTest, ReplayMatchesDriversAndCyclesArise) {
  // The replay above mirrors fuseForContraction + fuseForLocality; make
  // sure it still ends where the production drivers do, and that the
  // cyclic-assignment case is exercised by most seeds.
  unsigned SeedsWithCycles = 0;
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    auto Prog = generateRandomProgram(oracleConfig(Seed));
    normalizeProgram(*Prog);
    ASDG G = ASDG::build(*Prog);
    FusionPartition Driven = FusionPartition::trivial(G);
    fuseForContraction(Driven, anyArray());
    fuseForLocality(Driven);
    FusionPartition Replayed = FusionPartition::trivial(G);
    for (bool RequireContractible : {true, false})
      for (const ArraySymbol *Var : G.arraysByDecreasingWeight()) {
        std::set<unsigned> C = Replayed.fusionCandidates(Var);
        if (C.empty() ||
            (RequireContractible && !isContractible(Replayed, C, Var)) ||
            !isLegalFusion(Replayed, C))
          continue;
        Replayed.merge(C);
      }
    for (unsigned S = 0; S < G.numNodes(); ++S)
      EXPECT_EQ(Replayed.clusterOf(S), Driven.clusterOf(S)) << "seed " << Seed;

    FusionPartition Trivial = FusionPartition::trivial(G);
    bool HasCycle = false;
    for (unsigned A = 0; A < G.numNodes() && !HasCycle; ++A)
      for (unsigned B = A + 2; B < G.numNodes() && !HasCycle; ++B)
        HasCycle = !ref::grow(Trivial, {A, B}).empty();
    SeedsWithCycles += HasCycle;
  }
  EXPECT_GE(SeedsWithCycles, 25u);
}

} // namespace

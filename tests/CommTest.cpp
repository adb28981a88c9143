//===- tests/CommTest.cpp - Communication insertion tests -------------------===//

#include "comm/CommInsertion.h"

#include "analysis/ASDG.h"
#include "ir/Verifier.h"
#include "scalarize/Scalarize.h"
#include "xform/Strategy.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::comm;
using namespace alf::ir;
using namespace alf::lir;
using namespace alf::xform;

namespace {

unsigned countCommOps(const LoopProgram &LP,
                      CommStmt::CommPhase Phase = CommStmt::CommPhase::Whole) {
  unsigned Count = 0;
  for (const auto &N : LP.nodes())
    if (const auto *C = dyn_cast<CommOp>(N.get()))
      if (C->Phase == Phase)
        ++Count;
  return Count;
}

TEST(RequiredHalosTest, PerDimensionAndSign) {
  Program P("halos");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  NormalizedStmt *S =
      P.assign(R, B, add(aref(A, {-1, 0}), add(aref(A, {0, 2}),
                                               aref(A, {-2, 0}))));
  auto Halos = requiredHalos(*S);
  // (-1,0) and (-2,0) combine into one dim-0 negative halo of width 2;
  // (0,2) gives a dim-1 positive halo of width 2.
  ASSERT_EQ(Halos.size(), 2u);
  EXPECT_EQ(Halos[0].second, Offset({-2, 0}));
  EXPECT_EQ(Halos[1].second, Offset({0, 2}));
}

TEST(RequiredHalosTest, AlignedRefsNeedNothing) {
  Program P("aligned");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  NormalizedStmt *S = P.assign(R, B, add(aref(A), aref(A)));
  EXPECT_TRUE(requiredHalos(*S).empty());
}

TEST(LoopLevelCommTest, InsertsBeforeConsumingNest) {
  Program P("stencil");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  P.assign(R, B, add(aref(A, {-1, 0}), aref(A, {1, 0})));
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  CommPlan Plan = insertLoopLevelComm(LP);
  EXPECT_EQ(Plan.Exchanges, 2u); // both directions along dim 0
  EXPECT_EQ(countCommOps(LP), 2u);
  ASSERT_EQ(LP.nodes().size(), 3u);
  EXPECT_TRUE(isa<CommOp>(LP.nodes()[0].get()));
  EXPECT_TRUE(isa<CommOp>(LP.nodes()[1].get()));
  EXPECT_TRUE(isa<LoopNest>(LP.nodes()[2].get()));
}

TEST(LoopLevelCommTest, RedundancyElimination) {
  // Two consumers of the same halo with no intervening write: one
  // exchange.
  Program P("redundant");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  ArraySymbol *C = P.makeArray("C", 2);
  P.assign(R, B, aref(A, {0, 1}));
  P.assign(R, C, aref(A, {0, 1}));
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  CommPlan Plan = insertLoopLevelComm(LP);
  EXPECT_EQ(Plan.Exchanges, 1u);
  EXPECT_EQ(Plan.RedundantElided, 1u);
}

TEST(LoopLevelCommTest, WriteInvalidatesHalo) {
  Program P("invalidate");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  ArraySymbol *C = P.makeArray("C", 2);
  P.assign(R, B, aref(A, {0, 1})); // needs halo
  P.assign(R, A, aref(B));         // rewrites A
  P.assign(R, C, aref(A, {0, 1})); // needs a fresh halo
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  CommPlan Plan = insertLoopLevelComm(LP);
  EXPECT_EQ(Plan.Exchanges, 2u);
  EXPECT_EQ(Plan.RedundantElided, 0u);
}

TEST(LoopLevelCommTest, ContractedArraysNeverCommunicate) {
  // With c2, the temporary's references are loop-local scalars; only the
  // offset reads of persistent arrays need halos.
  Program P("contracted");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *T = P.makeUserTemp("T", 2);
  ArraySymbol *C = P.makeArray("C", 2);
  P.assign(R, T, aref(A, {1, 0}));
  P.assign(R, C, aref(T));
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::C2));
  CommPlan Plan = insertLoopLevelComm(LP);
  EXPECT_EQ(Plan.Exchanges, 1u); // only A's halo
  const auto *Comm = dyn_cast<CommOp>(LP.nodes()[0].get());
  ASSERT_NE(Comm, nullptr);
  EXPECT_EQ(Comm->Array->getName(), "A");
}

TEST(ArrayLevelCommTest, PipelinedSplitsSendAndRecv) {
  Program P("pipelined");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  ArraySymbol *C = P.makeArray("C", 2);
  ArraySymbol *D = P.makeArray("D", 2);
  P.assign(R, A, aref(B));         // S0: produce A
  P.assign(R, C, aref(D));         // S1: independent work (overlap window)
  P.assign(R, D, aref(A, {0, 1})); // S2: consume A's halo
  CommPlan Plan = insertArrayLevelComm(P, /*Pipelined=*/true);
  EXPECT_EQ(Plan.Exchanges, 1u);
  ASSERT_EQ(P.numStmts(), 5u);
  // send right after the producer, recv right before the consumer.
  EXPECT_EQ(P.getStmt(1)->str(), "comm.send A@(0,1);");
  EXPECT_EQ(P.getStmt(3)->str(), "comm.recv A@(0,1);");
  EXPECT_TRUE(isWellFormed(P));
}

TEST(ArrayLevelCommTest, LiveInArrayHaloSentUpFront) {
  Program P("livein");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2); // live-in, never written
  ArraySymbol *B = P.makeArray("B", 2);
  P.assign(R, B, aref(A, {-1, 0}));
  insertArrayLevelComm(P, /*Pipelined=*/true);
  ASSERT_EQ(P.numStmts(), 3u);
  EXPECT_EQ(P.getStmt(0)->str(), "comm.send A@(-1,0);");
  EXPECT_EQ(P.getStmt(1)->str(), "comm.recv A@(-1,0);");
}

TEST(ArrayLevelCommTest, CommStatementsSurviveFusion) {
  // With communication inserted at the array level first, the exchange
  // statements participate in the ASDG as unfusable singletons, and the
  // strategies must still produce valid partitions around them.
  Program Q("favorcomm2");
  const Region *R2 = Q.regionFromExtents({8, 8});
  ArraySymbol *QA = Q.makeArray("A", 2);
  ArraySymbol *QT = Q.makeUserTemp("T", 2);
  ArraySymbol *QB = Q.makeArray("B", 2);
  ArraySymbol *QC = Q.makeArray("C", 2);
  Q.assign(R2, QT, aref(QA, {0, 1})); // needs A's halo
  Q.assign(R2, QB, aref(QT));         // consumes T aligned
  Q.assign(R2, QC, aref(QB, {1, 0})); // needs B's halo later

  // Favor fusion: T contracts.
  {
    ASDG G = ASDG::build(Q);
    StrategyResult SR = applyStrategy(G, Strategy::C2);
    ASSERT_EQ(SR.Contracted.size(), 1u);
    EXPECT_EQ(SR.Contracted[0]->getName(), "T");
  }

  // Favor communication: exchanges become ASDG nodes. The partition must
  // stay valid, comm statements must stay in singleton clusters, and no
  // array touched by a communication statement may be contracted.
  insertArrayLevelComm(Q, /*Pipelined=*/true);
  EXPECT_TRUE(isWellFormed(Q));
  ASDG G2 = ASDG::build(Q);
  StrategyResult SR2 = applyStrategy(G2, Strategy::C2);
  EXPECT_TRUE(isValidPartition(SR2.Partition));
  for (unsigned I = 0; I < Q.numStmts(); ++I) {
    if (isa<CommStmt>(Q.getStmt(I))) {
      EXPECT_EQ(SR2.Partition.members(SR2.Partition.clusterOf(I)).size(), 1u);
    }
  }
  for (const ArraySymbol *Arr : SR2.Contracted)
    EXPECT_NE(Arr->getName(), "A");
}

} // namespace

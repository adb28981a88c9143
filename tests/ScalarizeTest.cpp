//===- tests/ScalarizeTest.cpp - Scalarization tests ------------------------===//

#include "scalarize/Scalarize.h"

#include "ir/Normalize.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::lir;
using namespace alf::scalarize;
using namespace alf::xform;

namespace {

unsigned countLoopNests(const LoopProgram &LP) {
  unsigned Count = 0;
  for (const auto &N : LP.nodes())
    if (isa<LoopNest>(N.get()))
      ++Count;
  return Count;
}

/// Arrays the loop program gives storage.
unsigned countStoredArrays(const LoopProgram &LP) {
  unsigned Count = 0;
  for (const ArraySymbol *A : LP.source().arrays())
    if (LP.storageBounds(A))
      ++Count;
  return Count;
}

TEST(ScalarizeTest, BaselineOneNestPerStatement) {
  auto P = tp::makeFigure2();
  ASDG G = ASDG::build(*P);
  LoopProgram LP =
      scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  EXPECT_EQ(countLoopNests(LP), 3u);
  EXPECT_EQ(countStoredArrays(LP), 3u);
}

TEST(ScalarizeTest, UserTempPairBecomesOneNestWithScalar) {
  auto P = tp::makeUserTempPair();
  ASDG G = ASDG::build(*P);
  LoopProgram LP = scalarize::scalarize(G, applyStrategy(G, Strategy::C2));
  ASSERT_EQ(countLoopNests(LP), 1u);
  const auto *Nest = cast<LoopNest>(LP.nodes().front().get());
  ASSERT_EQ(Nest->Body.size(), 2u);
  // First statement assigns the contracted scalar, second reads it.
  EXPECT_TRUE(Nest->Body[0].LHS.isScalar());
  EXPECT_EQ(Nest->Body[0].LHS.Scalar->getName(), "s_B");
  EXPECT_FALSE(Nest->Body[1].LHS.isScalar());
  EXPECT_EQ(Nest->Body[1].RHS->str(), "s_B");
  // B no longer requires storage.
  const auto *B = cast<ArraySymbol>(P->findSymbol("B"));
  EXPECT_TRUE(LP.isContracted(B));
  EXPECT_EQ(LP.storageBounds(B), nullptr);
  EXPECT_EQ(countStoredArrays(LP), 2u);
}

TEST(ScalarizeTest, StatementsOrderedByDependences) {
  auto P = tp::makeTomcatvFragment();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  LoopProgram LP = scalarize::scalarize(G, applyStrategy(G, Strategy::C2));
  // All six statements fuse into one nest; the R definition must precede
  // every consumer of s_R.
  ASSERT_EQ(countLoopNests(LP), 1u);
  const auto *Nest = cast<LoopNest>(LP.nodes().front().get());
  ASSERT_EQ(Nest->Body.size(), 6u);
  bool SeenRDef = false;
  for (const ScalarStmt &S : Nest->Body) {
    bool ReadsR = S.RHS->str().find("s_R") != std::string::npos;
    if (S.LHS.isScalar() && S.LHS.Scalar->getName() == "s_R") {
      SeenRDef = true;
    } else if (ReadsR) {
      EXPECT_TRUE(SeenRDef) << "use of s_R before its definition";
    }
  }
  EXPECT_TRUE(SeenRDef);
}

TEST(ScalarizeTest, ReversedLoopForAntiDependence) {
  // A := A@(-1,0) + A@(-1,0): after normalization the fused pair carries
  // anti UDV (-1,0), so scalarization must emit a reversed outer loop
  // (the paper's loop reversal during collective fusion).
  Program P("frag4");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  P.assign(R, A, add(aref(A, {-1, 0}), aref(A, {-1, 0})));
  normalizeProgram(P);
  ASDG G = ASDG::build(P);
  LoopProgram LP = scalarize::scalarize(G, applyStrategy(G, Strategy::C2));
  ASSERT_EQ(countLoopNests(LP), 1u);
  const auto *Nest = cast<LoopNest>(LP.nodes().front().get());
  EXPECT_EQ(Nest->LSV, LoopStructureVector({-1, 2}));
  // The compiler temporary is contracted.
  EXPECT_EQ(countStoredArrays(LP), 1u);
}

TEST(ScalarizeTest, CommAndOpaqueNodesPreserved) {
  Program P("mixed");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, A, aref(B));
  P.comm(A, Offset({1}));
  P.assign(R, B, aref(A, {1}));
  P.opaque("checksum", R, {B}, {});
  ASDG G = ASDG::build(P);
  LoopProgram LP = scalarize::scalarize(G, applyStrategy(G, Strategy::C2F3));
  ASSERT_EQ(LP.nodes().size(), 4u);
  EXPECT_TRUE(isa<LoopNest>(LP.nodes()[0].get()));
  EXPECT_TRUE(isa<CommOp>(LP.nodes()[1].get()));
  EXPECT_TRUE(isa<LoopNest>(LP.nodes()[2].get()));
  EXPECT_TRUE(isa<OpaqueOp>(LP.nodes()[3].get()));
}

TEST(ScalarizeTest, StorageBoundsCoverEveryCase) {
  // Footprint (halo included) for a plain array, the rolling buffer for a
  // partially contracted one, nothing for a contracted or an unreferenced
  // array.
  Program P("layout");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *T = P.makeUserTemp("T", 2);
  ArraySymbol *Q = P.makeUserTemp("Q", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  ArraySymbol *U = P.makeArray("U", 2);
  P.assign(R, T, aref(A, Offset({0, 1})));
  P.assign(R, Q, aref(T));
  P.assign(R, B, add(aref(Q), aref(A, Offset({-1, 0}))));

  LoopProgram LP(P);
  ASSERT_NE(LP.storageBounds(T), nullptr);
  EXPECT_EQ(*LP.storageBounds(T), *R);
  LP.addContraction(T);
  xform::PartialPlan Plan;
  Plan.Array = Q;
  Plan.OrigLo = {1, 1};
  Plan.FullExtents = {8, 8};
  Plan.BufferExtents = {1, 8};
  LP.addPartialPlan(Plan);

  ASSERT_NE(LP.storageBounds(A), nullptr);
  EXPECT_EQ(*LP.storageBounds(A), Region({0, 1}, {8, 9}));
  ASSERT_NE(LP.storageBounds(B), nullptr);
  EXPECT_EQ(*LP.storageBounds(B), *R);
  EXPECT_EQ(LP.storageBounds(T), nullptr);
  ASSERT_NE(LP.storageBounds(Q), nullptr);
  EXPECT_EQ(*LP.storageBounds(Q), Region({0, 1}, {0, 8}));
  EXPECT_EQ(*LP.storageBounds(Q), Plan.bufferRegion());
  EXPECT_EQ(LP.storageBounds(U), nullptr);
}

TEST(ScalarizeTest, PrinterEmitsCLikeLoops) {
  auto P = tp::makeUserTempPair();
  ASDG G = ASDG::build(*P);
  LoopProgram LP = scalarize::scalarize(G, applyStrategy(G, Strategy::C2));
  std::string Text = LP.str();
  EXPECT_NE(Text.find("for (i1 = 1; i1 <= 16; ++i1)"), std::string::npos);
  EXPECT_NE(Text.find("s_B = (A[i1][i2] + A[i1][i2]);"), std::string::npos);
  EXPECT_NE(Text.find("C[i1][i2] = s_B;"), std::string::npos);
}

TEST(ScalarizeTest, NestOrderRespectsInterClusterDeps) {
  // Producer cluster must precede consumer cluster even when fusion keeps
  // them apart (different regions).
  Program P("order");
  const Region *R1 = P.regionFromExtents({8});
  const Region *R2 = P.regionFromExtents({6});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  P.assign(R1, B, aref(A));
  P.assign(R2, C, aref(B));
  ASDG G = ASDG::build(P);
  LoopProgram LP = scalarize::scalarize(G, applyStrategy(G, Strategy::C2F4));
  ASSERT_EQ(countLoopNests(LP), 2u);
  const auto *First = cast<LoopNest>(LP.nodes()[0].get());
  EXPECT_EQ(First->Body.front().SrcStmtId, 0u);
}

} // namespace

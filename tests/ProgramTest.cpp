//===- tests/ProgramTest.cpp - Program, normalizer, verifier tests ---------===//

#include "ir/Normalize.h"
#include "ir/Program.h"
#include "ir/Verifier.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

using namespace alf;
using namespace alf::ir;

TEST(ProgramTest, SymbolCreationAndLookup) {
  Program P("t");
  ArraySymbol *A = P.makeArray("A", 2);
  ScalarSymbol *S = P.makeScalar("s");
  EXPECT_EQ(P.findSymbol("A"), A);
  EXPECT_EQ(P.findSymbol("s"), S);
  EXPECT_EQ(P.findSymbol("missing"), nullptr);
  EXPECT_EQ(P.numSymbols(), 2u);
  EXPECT_EQ(A->getId(), 0u);
  EXPECT_EQ(S->getId(), 1u);
}

TEST(ProgramTest, ArrayTraits) {
  Program P("t");
  ArraySymbol *U = P.makeArray("U", 2);
  ArraySymbol *T = P.makeUserTemp("T", 2);
  ArraySymbol *C = P.makeCompilerTemp("_C", 2);
  EXPECT_TRUE(U->isLiveOut());
  EXPECT_TRUE(U->isLiveIn());
  EXPECT_FALSE(U->isCompilerTemp());
  EXPECT_FALSE(T->isLiveOut());
  EXPECT_FALSE(T->isCompilerTemp());
  EXPECT_TRUE(C->isCompilerTemp());
  EXPECT_FALSE(C->isLiveOut());
}

TEST(ProgramTest, RegionInterning) {
  Program P("t");
  const Region *R1 = P.regionFromExtents({4, 4});
  const Region *R2 = P.regionFromExtents({4, 4});
  const Region *R3 = P.regionFromExtents({4, 5});
  EXPECT_EQ(R1, R2);
  EXPECT_NE(R1, R3);
}

TEST(ProgramTest, StatementIdsAreDense) {
  auto P = tp::makeFigure2();
  ASSERT_EQ(P->numStmts(), 3u);
  for (unsigned I = 0; I < 3; ++I)
    EXPECT_EQ(P->getStmt(I)->getId(), I);
}

TEST(ProgramTest, StatementPrinting) {
  auto P = tp::makeFigure2();
  EXPECT_EQ(P->getStmt(0)->str(), "[1..8,1..8] A := B@(-1,0);");
  EXPECT_EQ(P->getStmt(1)->str(), "[1..8,1..8] C := A@(0,-1);");
  EXPECT_EQ(P->getStmt(2)->str(), "[1..8,1..8] B := A@(-1,1);");
}

TEST(ProgramTest, InsertAndRemoveRenumber) {
  auto P = tp::makeFigure2();
  const Region *R = P->regionFromExtents({8, 8});
  const ArraySymbol *A =
      cast<ArraySymbol>(P->findSymbol("A"));
  auto S = std::make_unique<NormalizedStmt>(R, A, Offset::zero(2), cst(0.0));
  P->insertStmt(1, std::move(S));
  EXPECT_EQ(P->numStmts(), 4u);
  for (unsigned I = 0; I < 4; ++I)
    EXPECT_EQ(P->getStmt(I)->getId(), I);
  P->removeStmt(1);
  EXPECT_EQ(P->numStmts(), 3u);
  EXPECT_EQ(P->getStmt(1)->str(), "[1..8,1..8] C := A@(0,-1);");
}

TEST(VerifierTest, WellFormedProgramPasses) {
  auto P = tp::makeFigure2();
  EXPECT_TRUE(isWellFormed(*P));
}

TEST(VerifierTest, DetectsReadWriteOverlap) {
  Program P("bad");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  P.assign(R, A, add(aref(A, {-1}), cst(1)));
  auto Errors = verifyProgram(P);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].find("both read and written"), std::string::npos);
}

TEST(VerifierTest, DetectsRankMismatch) {
  Program P("bad");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 2);
  P.assign(R, A, aref(B, {0, 0}));
  auto Errors = verifyProgram(P);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("rank"), std::string::npos);
}

TEST(VerifierTest, RejectsAnOffsetWhoseUDVLeavesInt32) {
  // [R] a := c + 1; [R] b := a@(-2^31): the flow UDV 0 - (-2^31) is 2^31,
  // which int32_t cannot hold.
  Program P("udv");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("a", 1);
  ArraySymbol *B = P.makeArray("b", 1);
  ArraySymbol *C = P.makeArray("c", 1);
  P.assign(R, A, add(aref(C), cst(1)));
  P.assign(R, B, aref(A, {std::numeric_limits<int32_t>::min()}));
  auto Errors = verifyProgram(P);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_EQ(Errors[0], "S1: a@(-2147483648) has an offset element outside "
                       "-1073741823..1073741823");
}

TEST(NormalizeTest, SplitsReadWriteStatement) {
  Program P("t");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  P.assign(R, A, add(aref(A, {-1}), aref(A, {-1})));
  EXPECT_FALSE(isWellFormed(P));

  unsigned Inserted = normalizeProgram(P);
  EXPECT_EQ(Inserted, 1u);
  EXPECT_TRUE(isWellFormed(P));
  ASSERT_EQ(P.numStmts(), 2u);
  EXPECT_EQ(P.getStmt(0)->str(), "[1..8] _T1 := (A@(-1) + A@(-1));");
  EXPECT_EQ(P.getStmt(1)->str(), "[1..8] A := _T1;");

  const auto *Temp = dyn_cast<ArraySymbol>(P.findSymbol("_T1"));
  ASSERT_NE(Temp, nullptr);
  EXPECT_TRUE(Temp->isCompilerTemp());
}

TEST(NormalizeTest, LeavesNormalizedStatementsAlone) {
  auto P = tp::makeFigure2();
  EXPECT_EQ(normalizeProgram(*P), 0u);
  EXPECT_EQ(P->numStmts(), 3u);
}

TEST(NormalizeTest, SplitsMultipleStatements) {
  Program P("t");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  P.assign(R, A, add(aref(A), aref(B)));
  P.assign(R, B, mul(aref(B, {0, 1}), cst(2)));
  EXPECT_EQ(normalizeProgram(P), 2u);
  EXPECT_TRUE(isWellFormed(P));
  EXPECT_EQ(P.numStmts(), 4u);
  // Distinct temporaries.
  EXPECT_NE(P.findSymbol("_T1"), nullptr);
  EXPECT_NE(P.findSymbol("_T2"), nullptr);
}

TEST(NormalizeTest, AlignedSelfAssignAlsoSplit) {
  // Figure 5 fragment (5): A = A + A. Condition (i) is strict: the
  // normalizer always splits, and contraction later removes the
  // temporary.
  Program P("frag5");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  P.assign(R, A, add(aref(A), aref(A)));
  EXPECT_EQ(normalizeProgram(P), 1u);
  EXPECT_TRUE(isWellFormed(P));
}

TEST(ProgramTest, OpaqueStmtAccesses) {
  Program P("t");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ScalarSymbol *S = P.makeScalar("sum");
  OpaqueStmt *O = P.opaque("reduce", R, {A}, {}, {}, {S}, 1.0,
                           /*GlobalReduction=*/true);
  std::vector<Access> Accs;
  O->getAccesses(Accs);
  ASSERT_EQ(Accs.size(), 2u);
  EXPECT_EQ(Accs[0].Sym, A);
  EXPECT_FALSE(Accs[0].IsWrite);
  EXPECT_FALSE(Accs[0].Off.has_value());
  EXPECT_EQ(Accs[1].Sym, S);
  EXPECT_TRUE(Accs[1].IsWrite);
  EXPECT_TRUE(O->isGlobalReduction());
}

TEST(ProgramTest, CommStmtAccesses) {
  Program P("t");
  ArraySymbol *A = P.makeArray("A", 2);
  CommStmt *C = P.comm(A, {0, 1});
  std::vector<Access> Accs;
  C->getAccesses(Accs);
  ASSERT_EQ(Accs.size(), 2u);
  EXPECT_EQ(Accs[0].Sym, A);
  EXPECT_FALSE(Accs[0].IsWrite);
  EXPECT_TRUE(Accs[1].IsWrite);
  EXPECT_EQ(C->str(), "comm.exchange A@(0,1);");
}

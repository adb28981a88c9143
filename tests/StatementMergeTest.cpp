//===- tests/StatementMergeTest.cpp - Statement merge and DCE tests ----------===//

#include "xform/StatementMerge.h"

#include "analysis/ASDG.h"
#include "exec/Interpreter.h"
#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "ir/Program.h"
#include "ir/Verifier.h"
#include "scalarize/Scalarize.h"
#include "xform/Strategy.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::xform;

namespace {

TEST(StatementMergeTest, SubstitutesAlignedUse) {
  Program P("merge");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *T = P.makeUserTemp("T", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, T, add(aref(A), cst(1.0)));
  P.assign(R, B, mul(aref(T), cst(2.0)));
  EXPECT_EQ(mergeStatements(P), 1u);
  EXPECT_EQ(P.getStmt(1)->str(), "[1..8] B := ((A + 1) * 2);");
  // The definition is now dead.
  EXPECT_EQ(eliminateDeadStatements(P), 1u);
  EXPECT_EQ(P.numStmts(), 1u);
  EXPECT_TRUE(isWellFormed(P));
}

TEST(StatementMergeTest, DuplicatesWorkAcrossMultipleUses) {
  // The redundant-computation cost the paper attributes to statement
  // merge: two consumers each get a copy of the definition.
  Program P("dup");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *T = P.makeUserTemp("T", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  P.assign(R, T, esqrt(aref(A)));
  P.assign(R, B, add(aref(T), cst(1.0)));
  P.assign(R, C, sub(aref(T), cst(1.0)));
  EXPECT_EQ(mergeStatements(P), 2u);
  eliminateDeadStatements(P);
  EXPECT_EQ(P.numStmts(), 2u);
  EXPECT_EQ(P.getStmt(0)->str(), "[1..8] B := (sqrt(A) + 1);");
  EXPECT_EQ(P.getStmt(1)->str(), "[1..8] C := (sqrt(A) - 1);");
}

TEST(StatementMergeTest, OffsetUseBlocksSubstitution) {
  // "it is not always possible": a shifted use observes boundary values
  // that the definition's expression would compute differently.
  Program P("offset");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *T = P.makeUserTemp("T", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, T, add(aref(A), cst(1.0)));
  P.assign(R, B, aref(T, {-1}));
  EXPECT_EQ(mergeStatements(P), 0u);
  EXPECT_EQ(eliminateDeadStatements(P), 0u); // still read
}

TEST(StatementMergeTest, OperandClobberBlocksSubstitution) {
  Program P("clobber");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *T = P.makeUserTemp("T", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, T, add(aref(A), cst(1.0)));
  P.assign(R, A, cst(0.0));      // clobbers the operand
  P.assign(R, B, aref(T));       // must keep reading T
  EXPECT_EQ(mergeStatements(P), 0u);
}

TEST(StatementMergeTest, RedefinitionEndsLiveRange) {
  Program P("redef");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *T = P.makeUserTemp("T", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  P.assign(R, T, add(aref(A), cst(1.0)));
  P.assign(R, B, aref(T));        // substituted from the first def
  P.assign(R, T, mul(aref(A), cst(3.0)));
  P.assign(R, C, aref(T));        // substituted from the second def
  EXPECT_EQ(mergeStatements(P), 2u);
  EXPECT_EQ(P.getStmt(1)->str(), "[1..8] B := (A + 1);");
  EXPECT_EQ(P.getStmt(3)->str(), "[1..8] C := (A * 3);");
  EXPECT_EQ(eliminateDeadStatements(P), 2u);
}

TEST(StatementMergeTest, SubstitutesIntoReductions) {
  Program P("red");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *T = P.makeUserTemp("T", 1);
  ScalarSymbol *S = P.makeScalar("s");
  P.assign(R, T, mul(aref(A), aref(A)));
  P.reduce(R, S, ReduceStmt::ReduceOpKind::Sum, aref(T));
  EXPECT_EQ(mergeStatements(P), 1u);
  EXPECT_EQ(P.getStmt(1)->str(), "[1..8] s := +<< (A * A);");
  EXPECT_EQ(eliminateDeadStatements(P), 1u);
}

TEST(DeadCodeTest, KeepsLiveOutAndOverwrittenCorrectly) {
  Program P("dce");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1); // live-out: kept
  ArraySymbol *T = P.makeUserTemp("T", 1);
  P.assign(R, A, cst(1.0));
  P.assign(R, T, cst(2.0)); // dead: overwritten before any read
  P.assign(R, T, cst(3.0));
  P.assign(R, A, aref(T));
  EXPECT_EQ(eliminateDeadStatements(P), 1u);
  EXPECT_EQ(P.numStmts(), 3u);
}

class MergePreservesSemantics : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergePreservesSemantics, RandomPrograms) {
  GeneratorConfig Cfg;
  Cfg.Seed = GetParam();
  Cfg.NumStmts = 6 + static_cast<unsigned>(GetParam() % 6);
  Cfg.Extent = 6;
  auto P1 = generateRandomProgram(Cfg);
  auto P2 = generateRandomProgram(Cfg);
  normalizeProgram(*P1);
  normalizeProgram(*P2);
  // Dead code is removed from both sides so the surviving footprints
  // (and hence the compared buffers) coincide; merge's own fully
  // substituted definitions replicate their operand reads into the
  // consumers, preserving footprints exactly.
  eliminateDeadStatements(*P1);
  eliminateDeadStatements(*P2);
  mergeStatements(*P2);
  eliminateDeadStatements(*P2);
  // Substitution can recreate read/write overlaps; restore normal form.
  normalizeProgram(*P2);
  ASSERT_TRUE(isWellFormed(*P2));

  ASDG G1 = ASDG::build(*P1);
  ASDG G2 = ASDG::build(*P2);
  auto L1 = scalarize::scalarize(G1, applyStrategy(G1, Strategy::Baseline));
  auto L2 = scalarize::scalarize(G2, applyStrategy(G2, Strategy::Baseline));
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(L1, GetParam()), run(L2, GetParam()), 0.0,
                           &Why))
      << "seed " << GetParam() << ": " << Why << "\n"
      << P2->str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergePreservesSemantics,
                         ::testing::Range<uint64_t>(1, 25));

} // namespace

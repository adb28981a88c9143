//===- tests/LoopStructureTest.cpp - FIND-LOOP-STRUCTURE tests --------------===//

#include "xform/LoopStructure.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::ir;
using namespace alf::xform;

namespace alf {
namespace ir {
// Lets gtest print an Offset by value. Without it the parameterized sweep
// below names each case by the raw bytes of its heap pointers, so the test
// names change from one process to the next.
void PrintTo(const Offset &O, std::ostream *OS) { *OS << O.str(); }
} // namespace ir
} // namespace alf

namespace {

TEST(LoopStructureVectorTest, Identity) {
  LoopStructureVector P = LoopStructureVector::identity(3);
  EXPECT_EQ(P.rank(), 3u);
  for (unsigned I = 0; I < 3; ++I) {
    EXPECT_EQ(P.dimOf(I), I);
    EXPECT_EQ(P.dirOf(I), 1);
  }
  EXPECT_EQ(P.str(), "(1,2,3)");
}

TEST(LoopStructureVectorTest, SignedAccess) {
  LoopStructureVector P({-2, -1});
  EXPECT_EQ(P.dimOf(0), 1u);
  EXPECT_EQ(P.dirOf(0), -1);
  EXPECT_EQ(P.dimOf(1), 0u);
  EXPECT_EQ(P.dirOf(1), -1);
  EXPECT_EQ(P.str(), "(-2,-1)");
}

TEST(ConstrainTest, PaperExample) {
  // Paper section 2.2: with p = (-2,-1), the UDVs (-1,0) and (1,-1)
  // become (0,1) and (1,-1).
  LoopStructureVector P({-2, -1});
  EXPECT_EQ(constrain(Offset({-1, 0}), P), Offset({0, 1}));
  EXPECT_EQ(constrain(Offset({1, -1}), P), Offset({1, -1}));
}

TEST(ConstrainTest, IdentityIsNoOp) {
  LoopStructureVector P = LoopStructureVector::identity(2);
  EXPECT_EQ(constrain(Offset({3, -2}), P), Offset({3, -2}));
}

TEST(LexTest, Nonnegativity) {
  EXPECT_TRUE(isLexicographicallyNonnegative(Offset({0, 0})));
  EXPECT_TRUE(isLexicographicallyNonnegative(Offset({1, -5})));
  EXPECT_TRUE(isLexicographicallyNonnegative(Offset({0, 1})));
  EXPECT_FALSE(isLexicographicallyNonnegative(Offset({-1, 5})));
  EXPECT_FALSE(isLexicographicallyNonnegative(Offset({0, -1})));
}

TEST(FindLoopStructureTest, EmptyConstraintsGiveRowMajorIdentity) {
  auto P = findLoopStructure({}, 2);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(*P, LoopStructureVector::identity(2));
}

TEST(FindLoopStructureTest, PaperFigure2Example) {
  // Statements 1 and 3 of Figure 2(b): UDVs (-1,0) and (1,-1). The paper
  // scalarizes them with p = (-2,-1) (Figure 2(c), first nest).
  auto P = findLoopStructure({Offset({-1, 0}), Offset({1, -1})}, 2);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(*P, LoopStructureVector({-2, -1}));
}

TEST(FindLoopStructureTest, PureAntiDistanceReversesLoop) {
  // A = A@(-1,0) after normalization: anti UDV (-1,0).
  auto P = findLoopStructure({Offset({-1, 0})}, 2);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(*P, LoopStructureVector({-1, 2}));
}

TEST(FindLoopStructureTest, PositiveDistanceKeepsDirection) {
  auto P = findLoopStructure({Offset({1, 0})}, 2);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(*P, LoopStructureVector({1, 2}));
}

TEST(FindLoopStructureTest, NoSolutionOnOpposingDistances) {
  // (1,0) and (-1,0) cannot both be carried: dimension 1 has mixed signs
  // and dimension 2 never carries them.
  auto P = findLoopStructure({Offset({1, 0}), Offset({-1, 0})}, 2);
  EXPECT_FALSE(P.has_value());
}

TEST(FindLoopStructureTest, MixedDimensionsResolvedByOuterLoop) {
  // (1,-1): carried by dimension 1 increasing; dimension 2's -1 is then
  // irrelevant.
  auto P = findLoopStructure({Offset({1, -1})}, 2);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(*P, LoopStructureVector({1, 2}));
}

TEST(FindLoopStructureTest, PrefersLowDimensionOutermost) {
  // Unconstrained in dimension 1, constrained in dimension 2: dimension 1
  // is still assigned to the outer loop (considered first), giving inner
  // loops the higher dimensions for spatial locality.
  auto P = findLoopStructure({Offset({0, 1})}, 2);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(*P, LoopStructureVector({1, 2}));
}

TEST(FindLoopStructureTest, SecondDimensionReversed) {
  auto P = findLoopStructure({Offset({0, -2})}, 2);
  ASSERT_TRUE(P.has_value());
  EXPECT_EQ(*P, LoopStructureVector({1, -2}));
}

TEST(FindLoopStructureTest, RankThree) {
  auto P = findLoopStructure(
      {Offset({0, -1, 0}), Offset({1, 0, 0}), Offset({0, 0, 2})}, 3);
  ASSERT_TRUE(P.has_value());
  // dim1 mixed? u1 values: 0,1,0 -> all >= 0 -> +1 carries (1,0,0); then
  // remaining {(0,-1,0),(0,0,2)}: dim2 values 0,-1? after prune of (1,0,0):
  // constraints (0,-1,0) and (0,0,2): dim2: -1,0 -> all <= 0 & exists <0 ->
  // -2 carries (0,-1,0); remaining (0,0,2): dim3 +3.
  EXPECT_EQ(*P, LoopStructureVector({1, -2, 3}));
}

/// Property sweep: for every found loop structure vector, every input UDV
/// must constrain to a lexicographically nonnegative distance vector
/// (Definition 1 legality).
class FindLoopStructureProperty
    : public ::testing::TestWithParam<std::vector<Offset>> {};

TEST_P(FindLoopStructureProperty, FoundVectorsPreserveAllDependences) {
  const auto &UDVs = GetParam();
  auto P = findLoopStructure(UDVs, 2);
  if (!P.has_value())
    GTEST_SKIP() << "no legal loop structure for this set";
  for (const Offset &U : UDVs)
    EXPECT_TRUE(isLexicographicallyNonnegative(constrain(U, *P)))
        << "UDV " << U.str() << " violated by p = " << P->str();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FindLoopStructureProperty,
    ::testing::Values(
        std::vector<Offset>{},
        std::vector<Offset>{Offset({0, 0})},
        std::vector<Offset>{Offset({-1, 0})},
        std::vector<Offset>{Offset({1, 0})},
        std::vector<Offset>{Offset({0, -1})},
        std::vector<Offset>{Offset({-1, 0}), Offset({1, -1})},
        std::vector<Offset>{Offset({1, 1}), Offset({1, -1})},
        std::vector<Offset>{Offset({-1, -1}), Offset({-1, 1})},
        std::vector<Offset>{Offset({0, 1}), Offset({0, 2}), Offset({1, 0})},
        std::vector<Offset>{Offset({-2, 0}), Offset({-1, 3})},
        std::vector<Offset>{Offset({2, -1}), Offset({0, -1})},
        std::vector<Offset>{Offset({1, 0}), Offset({-1, 0})}));

} // namespace

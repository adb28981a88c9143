//===- tests/AlignTest.cpp - Alignment canonicalization tests ----------------===//

#include "ir/Align.h"

#include "analysis/ASDG.h"
#include "ir/Generator.h"
#include "exec/Interpreter.h"
#include "ir/Normalize.h"
#include "ir/Verifier.h"
#include "scalarize/Scalarize.h"
#include "xform/Report.h"
#include "xform/Strategy.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

using namespace alf;
using namespace alf::analysis;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::xform;

namespace {

TEST(AlignTest, CanonicalizesTargetOffset) {
  Program P("align");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  P.assign(R, A, Offset({1, 0}), add(aref(B, {1, -1}), cst(2.0)));
  EXPECT_EQ(alignProgram(P), 1u);
  EXPECT_EQ(P.getStmt(0)->str(), "[2..9,1..8] A := (B@(0,-1) + 2);");
  EXPECT_TRUE(isWellFormed(P));
}

TEST(AlignTest, LeavesAlignedStatementsAlone) {
  Program P("noop");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, B, aref(A, {-1}));
  EXPECT_EQ(alignProgram(P), 0u);
  EXPECT_EQ(P.getStmt(0)->str(), "[1..8] B := A@(-1);");
}

TEST(AlignTest, LeavesOverflowingShiftsForTheVerifier) {
  // Shifting [1..2^63-1] by 1 leaves int64_t, and A@(-2^31) shifted by
  // -1 leaves int32_t: both statements stay as written, and the verifier
  // names the offending reference instead of a wrapped region.
  Program P("overflow");
  const Region *Big =
      P.internRegion(Region({1}, {std::numeric_limits<int64_t>::max()}));
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  P.assign(Big, B, Offset({1}), add(aref(A), cst(1.0)));
  P.assign(R, C, Offset({1}),
           aref(A, {std::numeric_limits<int32_t>::min()}));
  std::string Before = P.str();
  EXPECT_EQ(alignProgram(P), 0u);
  EXPECT_EQ(P.str(), Before);
  auto Errors = verifyProgram(P);
  ASSERT_EQ(Errors.size(), 2u);
  EXPECT_EQ(Errors[0], "S0: B@(1) reaches an index that does not fit int64_t");
  EXPECT_EQ(Errors[1].rfind("S1: A@(-2147483648) has an offset element", 0),
            0u);
}

TEST(AlignTest, PreservesSemantics) {
  auto Build = [](bool Align) {
    auto P = std::make_unique<Program>("sem");
    const Region *R = P->regionFromExtents({6, 6});
    ArraySymbol *A = P->makeArray("A", 2);
    ArraySymbol *B = P->makeArray("B", 2);
    ArraySymbol *C = P->makeArray("C", 2);
    P->assign(R, B, Offset({0, 1}), mul(aref(A, {0, 1}), cst(0.5)));
    P->assign(R, C, aref(B, {0, 1}));
    if (Align)
      alignProgram(*P);
    return P;
  };
  auto P1 = Build(false);
  auto P2 = Build(true);
  ASDG G1 = ASDG::build(*P1);
  ASDG G2 = ASDG::build(*P2);
  auto L1 = scalarize::scalarizeWithStrategy(G1, Strategy::Baseline);
  auto L2 = scalarize::scalarizeWithStrategy(G2, Strategy::Baseline);
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(L1, 3), run(L2, 3), 0.0, &Why)) << Why;
}

TEST(AlignTest, EnablesFusionAcrossDecompositions) {
  // Two statements computing over the same elements of their outputs but
  // decomposed differently: as written, their regions differ and fusion
  // is blocked; aligned, they fuse and T contracts.
  auto Build = [] {
    auto P = std::make_unique<Program>("fusealign");
    const Region *R1 = P->regionFromExtents({8, 8});
    const Region *R0 =
        P->internRegion(Region({0, 1}, {7, 8})); // R1 shifted by (-1,0)
    ArraySymbol *A = P->makeArray("A", 2);
    ArraySymbol *T = P->makeUserTemp("T", 2);
    ArraySymbol *B = P->makeArray("B", 2);
    // [R0] T@(1,0) := A@(1,0)  ==  [R1] T := A
    P->assign(R0, T, Offset({1, 0}), aref(A, {1, 0}));
    P->assign(R1, B, aref(T));
    return P;
  };

  {
    auto P = Build();
    ASDG G = ASDG::build(*P);
    StrategyResult SR = applyStrategy(G, Strategy::C2);
    EXPECT_TRUE(SR.Contracted.empty()) << "regions differ as written";
  }
  {
    auto P = Build();
    EXPECT_EQ(alignProgram(*P), 1u);
    ASDG G = ASDG::build(*P);
    StrategyResult SR = applyStrategy(G, Strategy::C2);
    ASSERT_EQ(SR.Contracted.size(), 1u);
    EXPECT_EQ(SR.Contracted[0]->getName(), "T");
  }
}

TEST(ReportTest, ExplainsEveryOutcome) {
  Program P("report");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);        // live-out
  ArraySymbol *T = P.makeUserTemp("T", 1);     // contracted
  ArraySymbol *Sh = P.makeUserTemp("Sh", 1);   // carried distance
  ArraySymbol *Ro = P.makeArray("Ro", 1);      // read-only... live-out too
  ArrayOpts UpOpts;
  UpOpts.LiveOut = false;
  ArraySymbol *Up = P.makeArray("Up", 1, UpOpts); // upward-exposed
  ArraySymbol *Op = P.makeUserTemp("Op", 1);   // referenced by opaque

  P.assign(R, T, aref(Ro));
  P.assign(R, A, add(aref(T), aref(Up)));
  P.assign(R, Up, aref(Ro));
  P.assign(R, Sh, aref(Ro));
  P.assign(R, A, aref(Sh, {1}));
  P.assign(R, Op, aref(Ro));
  P.opaque("sink", R, {Op}, {});

  ASDG G = ASDG::build(P);
  StrategyResult SR = applyStrategy(G, Strategy::C2);

  auto Classify = [&](const char *Name) {
    return classifyContraction(SR, cast<ArraySymbol>(P.findSymbol(Name)));
  };
  EXPECT_EQ(Classify("T"), ContractionOutcome::Contracted);
  EXPECT_EQ(Classify("A"), ContractionOutcome::LiveOut);
  EXPECT_EQ(Classify("Up"), ContractionOutcome::UpwardExposed);
  EXPECT_EQ(Classify("Sh"), ContractionOutcome::CarriedDistance);
  EXPECT_EQ(Classify("Op"), ContractionOutcome::UnfusableRef);

  std::string Report = contractionReport(SR);
  EXPECT_NE(Report.find("carries distance"), std::string::npos);
  EXPECT_NE(Report.find("contracted"), std::string::npos);
  EXPECT_NE(Report.find("observable after the fragment"), std::string::npos);
}

TEST(ReportTest, SplitClustersOutcome) {
  // T's references have null distances but land in nests with different
  // regions, so fusion (and contraction) is impossible.
  Program P("split");
  const Region *R1 = P.regionFromExtents({8});
  const Region *R2 = P.regionFromExtents({6});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *T = P.makeUserTemp("T", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R1, T, aref(A));
  P.assign(R2, B, aref(T));
  ASDG G = ASDG::build(P);
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  std::string Detail;
  EXPECT_EQ(classifyContraction(SR, T, &Detail),
            ContractionOutcome::SplitClusters);
  EXPECT_NE(Detail.find("2 separate loop nests"), std::string::npos);
}

TEST(ReportTest, ReadOnlyOutcome) {
  Program P("ro");
  const Region *R = P.regionFromExtents({8});
  ArrayOpts Opts;
  Opts.LiveOut = false;
  ArraySymbol *In = P.makeArray("In", 1, Opts); // live-in, read only
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, B, aref(In));
  ASDG G = ASDG::build(P);
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  EXPECT_EQ(classifyContraction(SR, In), ContractionOutcome::ReadOnly);
}

/// Property sweep: aligning a random program with offset targets, then
/// normalizing and optimizing, preserves the unaligned program's
/// semantics under every strategy.
class AlignEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AlignEquivalence, RandomProgramsWithOffsetTargets) {
  GeneratorConfig Cfg;
  Cfg.Seed = GetParam();
  Cfg.NumStmts = 5 + static_cast<unsigned>(GetParam() % 6);
  Cfg.Extent = 7;
  Cfg.AllowTargetOffsets = true;

  auto P1 = generateRandomProgram(Cfg);
  auto P2 = generateRandomProgram(Cfg);
  normalizeProgram(*P1); // unaligned reference pipeline
  alignProgram(*P2);
  normalizeProgram(*P2);
  ASSERT_TRUE(isWellFormed(*P2));

  ASDG G1 = ASDG::build(*P1);
  ASDG G2 = ASDG::build(*P2);
  auto Base = scalarize::scalarizeWithStrategy(G1, Strategy::Baseline);
  exec::RunResult BaseRes = exec::run(Base, GetParam() ^ 0xa11);
  for (Strategy S : allStrategiesForTest()) {
    auto LP = scalarize::scalarizeWithStrategy(G2, S);
    std::string Why;
    EXPECT_TRUE(exec::resultsMatch(BaseRes, exec::run(LP, GetParam() ^ 0xa11),
                                   0.0, &Why))
        << "seed " << GetParam() << " under " << getStrategyName(S) << ": "
        << Why;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlignEquivalence,
                         ::testing::Range<uint64_t>(1, 21));

} // namespace

//===- tests/InterpreterTest.cpp - Interpreter and equivalence tests --------===//

#include "exec/Interpreter.h"

#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "ir/Verifier.h"
#include "scalarize/Scalarize.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::xform;

namespace {

TEST(InterpreterTest, ComputesElementwiseValues) {
  Program P("simple");
  const Region *R = P.regionFromExtents({4});
  ArrayOpts InOpts; // live-in and live-out
  ArraySymbol *A = P.makeArray("A", 1, InOpts);
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, B, add(mul(aref(A), cst(2.0)), cst(1.0)));
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  RunResult Res = run(LP, 42);
  ASSERT_TRUE(Res.LiveOut.count("A"));
  ASSERT_TRUE(Res.LiveOut.count("B"));
  const auto &AData = Res.LiveOut.at("A");
  const auto &BData = Res.LiveOut.at("B");
  ASSERT_EQ(AData.size(), 4u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_DOUBLE_EQ(BData[I], 2.0 * AData[I] + 1.0);
}

TEST(InterpreterTest, SeedDeterminism) {
  auto P = tp::makeUserTempPair();
  ASDG G = ASDG::build(*P);
  auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  RunResult R1 = run(LP, 7);
  RunResult R2 = run(LP, 7);
  EXPECT_TRUE(resultsMatch(R1, R2));
  RunResult R3 = run(LP, 8);
  EXPECT_FALSE(resultsMatch(R1, R3));
}

TEST(InterpreterTest, OffsetReadsUseHaloValues) {
  // B := A@(-1): element B[i] must read A[i-1], including the halo cell
  // A[0] that lies outside the region.
  Program P("halo");
  const Region *R = P.regionFromExtents({4});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, B, aref(A, {-1}));
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  RunResult Res = run(LP, 3);
  const auto &AData = Res.LiveOut.at("A"); // bounds [0..3]: 4 elements
  const auto &BData = Res.LiveOut.at("B"); // bounds [1..4]: 4 elements
  ASSERT_EQ(AData.size(), 4u);
  ASSERT_EQ(BData.size(), 4u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_DOUBLE_EQ(BData[I], AData[I]); // A[i-1] with A starting at 0
}

TEST(InterpreterTest, ContractionPreservesResults) {
  auto P = tp::makeUserTempPair();
  ASDG G = ASDG::build(*P);
  auto Base = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  auto Opt = scalarize::scalarize(G, applyStrategy(G, Strategy::C2));
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(Base, 11), run(Opt, 11), 0.0, &Why)) << Why;
}

TEST(InterpreterTest, NormalizedSelfUpdatePreservesResults) {
  // A := A@(-1,0) + A@(-1,0): F90 semantics require the old values of A.
  // The reversed fused loop with the contracted temporary must agree with
  // the two-pass baseline.
  Program P("self");
  const Region *R = P.regionFromExtents({6, 6});
  ArraySymbol *A = P.makeArray("A", 2);
  P.assign(R, A, add(aref(A, {-1, 0}), aref(A, {-1, 0})));
  normalizeProgram(P);
  ASDG G = ASDG::build(P);
  auto Base = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  auto Opt = scalarize::scalarize(G, applyStrategy(G, Strategy::C2));
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(Base, 5), run(Opt, 5), 0.0, &Why)) << Why;
}

TEST(InterpreterTest, TomcatvAllStrategiesAgree) {
  auto P = tp::makeTomcatvFragment(32);
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  auto Base = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  RunResult BaseRes = run(Base, 99);
  for (Strategy S : allStrategiesForTest()) {
    auto LP = scalarize::scalarize(G, applyStrategy(G, S));
    std::string Why;
    EXPECT_TRUE(resultsMatch(BaseRes, run(LP, 99), 0.0, &Why))
        << getStrategyName(S) << ": " << Why;
  }
}

TEST(InterpreterTest, OpaqueStatementsDeterministic) {
  GeneratorConfig Cfg;
  Cfg.Seed = 17;
  Cfg.AddOpaque = true;
  auto P = generateRandomProgram(Cfg);
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  auto Base = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  auto Opt = scalarize::scalarize(G, applyStrategy(G, Strategy::C2F3));
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(Base, 23), run(Opt, 23), 0.0, &Why)) << Why;
}

/// The central property: every strategy preserves the baseline's
/// semantics on randomly generated programs. Sweeps seeds and generator
/// shapes.
struct PropertyCase {
  uint64_t Seed;
  unsigned NumStmts;
  unsigned MaxOffset;
  bool SelfRef;
  bool TwoRegions;
  bool Opaque;
};

class StrategyEquivalence : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(StrategyEquivalence, AllStrategiesPreserveSemantics) {
  const PropertyCase &C = GetParam();
  GeneratorConfig Cfg;
  Cfg.Seed = C.Seed;
  Cfg.NumStmts = C.NumStmts;
  Cfg.MaxOffset = C.MaxOffset;
  Cfg.AllowSelfRef = C.SelfRef;
  Cfg.UseTwoRegions = C.TwoRegions;
  Cfg.AddOpaque = C.Opaque;
  Cfg.Extent = 6;

  auto P = generateRandomProgram(Cfg);
  normalizeProgram(*P);
  ASSERT_TRUE(isWellFormed(*P));

  ASDG G = ASDG::build(*P);
  auto Base = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  RunResult BaseRes = run(Base, C.Seed ^ 0xabcdef);

  for (Strategy S : allStrategiesForTest()) {
    StrategyResult SR = applyStrategy(G, S);
    EXPECT_TRUE(isValidPartition(SR.Partition)) << getStrategyName(S);
    auto LP = scalarize::scalarize(G, SR);
    std::string Why;
    EXPECT_TRUE(resultsMatch(BaseRes, run(LP, C.Seed ^ 0xabcdef), 0.0, &Why))
        << "strategy " << getStrategyName(S) << " diverged on seed "
        << C.Seed << ": " << Why << "\nprogram:\n"
        << P->str();
  }
}

std::vector<PropertyCase> makeCases() {
  std::vector<PropertyCase> Cases;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed)
    Cases.push_back(PropertyCase{Seed, 4 + static_cast<unsigned>(Seed % 9),
                                 1 + static_cast<unsigned>(Seed % 2),
                                 Seed % 2 == 0, Seed % 3 == 0,
                                 Seed % 5 == 0});
  return Cases;
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, StrategyEquivalence,
                         ::testing::ValuesIn(makeCases()));

} // namespace

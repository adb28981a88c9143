//===- tests/ReduceTest.cpp - Reduction statement tests ---------------------===//

#include "analysis/ASDG.h"
#include "exec/Interpreter.h"
#include "ir/Verifier.h"
#include "scalarize/Scalarize.h"
#include "xform/Strategy.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::lir;
using namespace alf::xform;

namespace {

TEST(ReduceTest, PrintingAndAccesses) {
  Program P("r");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ScalarSymbol *S = P.makeScalar("total");
  ReduceStmt *RS =
      P.reduce(R, S, ReduceStmt::ReduceOpKind::Sum, mul(aref(A), aref(A)));
  EXPECT_EQ(RS->str(), "[1..8] total := +<< (A * A);");
  std::vector<Access> Accs;
  RS->getAccesses(Accs);
  ASSERT_EQ(Accs.size(), 3u);
  EXPECT_EQ(Accs[0].Sym, S);
  EXPECT_TRUE(Accs[0].IsWrite);
  EXPECT_FALSE(Accs[1].IsWrite);
  EXPECT_TRUE(isWellFormed(P));
}

TEST(ReduceTest, IdentityAndCombine) {
  using K = ReduceStmt::ReduceOpKind;
  EXPECT_DOUBLE_EQ(ReduceStmt::canonical(K::Sum).PlusIdentity, 0.0);
  EXPECT_GT(ReduceStmt::canonical(K::Min).PlusIdentity, 1e300);
  EXPECT_LT(ReduceStmt::canonical(K::Max).PlusIdentity, -1e300);
  EXPECT_DOUBLE_EQ(ReduceStmt::canonical(K::Sum).combine(2, 3), 5);
  EXPECT_DOUBLE_EQ(ReduceStmt::canonical(K::Min).combine(2, 3), 2);
  EXPECT_DOUBLE_EQ(ReduceStmt::canonical(K::Max).combine(2, 3), 3);
}

TEST(ReduceTest, FusesWithProducerAndContractsInput) {
  // The EP pattern: T := f(...); total := +<< T. Fusing the reduction
  // with the producer contracts T away entirely.
  Program P("ep-ish");
  const Region *R = P.regionFromExtents({16});
  ArraySymbol *T = P.makeUserTemp("T", 1);
  ScalarSymbol *S = P.makeScalar("total");
  P.assign(R, T, add(cst(1.0), cst(2.0)));
  P.reduce(R, S, ReduceStmt::ReduceOpKind::Sum, aref(T));
  ASDG G = ASDG::build(P);
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  EXPECT_EQ(SR.Partition.numClusters(), 1u);
  ASSERT_EQ(SR.Contracted.size(), 1u);
  EXPECT_EQ(SR.Contracted[0]->getName(), "T");
}

TEST(ReduceTest, InterpreterComputesSum) {
  Program P("sum");
  const Region *R = P.regionFromExtents({10});
  ArraySymbol *T = P.makeUserTemp("T", 1);
  ScalarSymbol *S = P.makeScalar("total");
  P.assign(R, T, cst(2.5));
  P.reduce(R, S, ReduceStmt::ReduceOpKind::Sum, aref(T));
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  RunResult Res = run(LP, 1);
  EXPECT_DOUBLE_EQ(Res.ScalarsOut.at("total"), 25.0);
}

TEST(ReduceTest, MinMaxReductions) {
  Program P("minmax");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ScalarSymbol *Lo = P.makeScalar("lo");
  ScalarSymbol *Hi = P.makeScalar("hi");
  P.reduce(R, Lo, ReduceStmt::ReduceOpKind::Min, aref(A));
  P.reduce(R, Hi, ReduceStmt::ReduceOpKind::Max, aref(A));
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  RunResult Res = run(LP, 5);
  const auto &AData = Res.LiveOut.at("A");
  double Min = 1e300, Max = -1e300;
  for (double V : AData) {
    Min = std::min(Min, V);
    Max = std::max(Max, V);
  }
  EXPECT_DOUBLE_EQ(Res.ScalarsOut.at("lo"), Min);
  EXPECT_DOUBLE_EQ(Res.ScalarsOut.at("hi"), Max);
}

TEST(ReduceTest, ContractionPreservesReductionValue) {
  Program P("chain");
  const Region *R = P.regionFromExtents({32});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *T1 = P.makeUserTemp("T1", 1);
  ArraySymbol *T2 = P.makeUserTemp("T2", 1);
  ScalarSymbol *S = P.makeScalar("total");
  P.assign(R, T1, mul(aref(A), aref(A)));
  P.assign(R, T2, add(aref(T1), cst(1.0)));
  P.reduce(R, S, ReduceStmt::ReduceOpKind::Sum, aref(T2));
  ASDG G = ASDG::build(P);
  auto Base = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  auto Opt = scalarize::scalarize(G, applyStrategy(G, Strategy::C2));
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(Base, 9), run(Opt, 9), 1e-9, &Why)) << Why;
  // Both temps contracted: only A allocated.
  EXPECT_EQ(Opt.storageBounds(T1), nullptr);
  EXPECT_EQ(Opt.storageBounds(T2), nullptr);
  EXPECT_NE(Opt.storageBounds(A), nullptr);
}

TEST(ReduceTest, ScalarInitEmittedInPrinter) {
  Program P("print");
  const Region *R = P.regionFromExtents({4});
  ArraySymbol *A = P.makeArray("A", 1);
  ScalarSymbol *S = P.makeScalar("acc");
  P.reduce(R, S, ReduceStmt::ReduceOpKind::Sum, aref(A));
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  std::string Text = LP.str();
  EXPECT_NE(Text.find("acc = 0;"), std::string::npos);
  EXPECT_NE(Text.find("acc += A[i1];"), std::string::npos);
}

TEST(ReduceTest, UpwardExposedReduceBlocksContraction) {
  // T is reduced before it is written: not contractible.
  Program P("upward");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArrayOpts Opts;
  Opts.LiveOut = false;
  Opts.LiveIn = true;
  ArraySymbol *T = P.makeArray("T", 1, Opts);
  ScalarSymbol *S = P.makeScalar("total");
  P.reduce(R, S, ReduceStmt::ReduceOpKind::Sum, aref(T));
  P.assign(R, T, aref(A));
  ASDG G = ASDG::build(P);
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  EXPECT_TRUE(SR.Contracted.empty());
}

} // namespace

//===- tests/Rank3Test.cpp - Rank-3 coverage across the stack ----------------===//
//
// The paper's SP application is three-dimensional; everything in ALF is
// rank-generic. These tests push rank-3 programs through dependence
// analysis, fusion, scalarization, both backends, the interpreter, the
// SPMD simulator and partial contraction.
//
//===----------------------------------------------------------------------===//

#include "analysis/ASDG.h"
#include "comm/CommInsertion.h"
#include "distsim/DistInterpreter.h"
#include "exec/Interpreter.h"
#include "ir/Normalize.h"
#include "scalarize/CEmitter.h"
#include "scalarize/Scalarize.h"
#include "xform/Strategy.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::xform;

namespace {

/// A 3-D pentadiagonal-solver-flavoured program: stencil in all three
/// dimensions, a contractible chain, and a self-update.
std::unique_ptr<Program> make3D(int64_t N) {
  auto P = std::make_unique<Program>("sp3d");
  const Region *R = P->regionFromExtents({N, N, N});
  ArraySymbol *U = P->makeArray("U", 3);
  ArraySymbol *RHS = P->makeArray("RHS", 3);
  ArraySymbol *T1 = P->makeUserTemp("T1", 3);
  ArraySymbol *T2 = P->makeUserTemp("T2", 3);
  P->assign(R, T1,
            add(add(aref(U, {-1, 0, 0}), aref(U, {1, 0, 0})),
                add(aref(U, {0, -1, 0}),
                    add(aref(U, {0, 1, 0}),
                        add(aref(U, {0, 0, -1}), aref(U, {0, 0, 1}))))));
  P->assign(R, T2, mul(aref(T1), cst(1.0 / 6.0)));
  P->assign(R, RHS, sub(aref(T2), aref(U)));
  P->assign(R, U, add(aref(U), mul(aref(RHS), cst(0.8)))); // self-update
  return P;
}

TEST(Rank3Test, ContractionAndStrategies) {
  auto P = make3D(6);
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  // T1, T2 and the self-update's compiler temporary contract.
  EXPECT_EQ(SR.Contracted.size(), 3u);
  EXPECT_TRUE(isValidPartition(SR.Partition));

  auto Base = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  RunResult BaseRes = run(Base, 303);
  for (Strategy S : allStrategiesForTest()) {
    auto LP = scalarize::scalarize(G, applyStrategy(G, S));
    std::string Why;
    EXPECT_TRUE(resultsMatch(BaseRes, run(LP, 303), 0.0, &Why))
        << getStrategyName(S) << ": " << Why;
  }
}

TEST(Rank3Test, DistributedMatchesSequentialOn2x2x2) {
  auto P = make3D(8);
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  auto Seq = scalarize::scalarize(G, applyStrategy(G, Strategy::C2F3));
  RunResult SeqRes = run(Seq, 71);

  auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::C2F3));
  comm::CommPlan Plan = comm::insertLoopLevelComm(LP);
  EXPECT_GE(Plan.Exchanges, 6u); // all six stencil directions
  RunResult Dist = distsim::runDistributed(
      LP, machine::ProcGrid::make(8, 3), 71);
  std::string Why;
  EXPECT_TRUE(resultsMatch(SeqRes, Dist, 0.0, &Why)) << Why;
}

TEST(Rank3Test, PartialContractionRollingPlane) {
  // A dependence carried by the outermost of three loops contracts the
  // temporary to a 2-plane buffer over the two inner dimensions.
  Program P("plane");
  const Region *R = P.regionFromExtents({6, 6, 6});
  ArraySymbol *A = P.makeArray("A", 3);
  ArraySymbol *T = P.makeUserTemp("T", 3);
  ArraySymbol *B = P.makeArray("B", 3);
  P.assign(R, T, add(aref(A), cst(1.0)));
  P.assign(R, B, add(aref(T, {-1, 0, 0}), aref(T)));
  ASDG G = ASDG::build(P);
  auto Base = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  auto Partial = scalarize::scalarizeWithPartialContraction(
      G, Strategy::C2, SequentialDims::dims({0}));
  const auto *TS = cast<ArraySymbol>(P.findSymbol("T"));
  const xform::PartialPlan *Plan = Partial.partialPlanFor(TS);
  ASSERT_NE(Plan, nullptr);
  EXPECT_EQ(Plan->BufferExtents, (std::vector<int64_t>{2, 6, 6}));
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(Base, 11), run(Partial, 11), 0.0, &Why))
      << Why;
}

TEST(Rank3Test, BackendsEmitTripleNests) {
  auto P = make3D(4);
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::C2));
  std::string C = scalarize::emitC(LP, "kernel3d").Source;
  EXPECT_NE(C.find("for (i3 ="), std::string::npos);
  EXPECT_NE(C.find("[(i1+0 - (0))*36"), std::string::npos) << C;
}

} // namespace

//===- tests/CommPlanTest.cpp - Communication plans on the benchmarks --------===//
//
// Locks the communication structure the compiler derives for each
// benchmark: how many halo exchanges the favor-fusion policy inserts
// and how many the redundancy elimination saves. Changes to comm
// insertion show up here as explicit diffs.
//
//===----------------------------------------------------------------------===//

#include "comm/CommInsertion.h"

#include "analysis/ASDG.h"
#include "benchprogs/Benchmarks.h"
#include "exec/PerfModel.h"
#include "ir/Normalize.h"
#include "scalarize/Scalarize.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::benchprogs;
using namespace alf::comm;
using namespace alf::ir;
using namespace alf::xform;

namespace {

CommPlan planFor(const BenchmarkInfo &B, Strategy S) {
  auto P = B.Build(B.Rank == 1 ? 64 : 8);
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  auto LP = scalarize::scalarize(G, applyStrategy(G, S));
  return insertLoopLevelComm(LP);
}

TEST(CommPlanTest, KernelsWithoutStencilsNeedNoExchanges) {
  // EP and Frac read everything aligned: no halo traffic at all ("small
  // codes that do not benefit from communication optimization").
  for (unsigned Idx : {0u, 1u}) {
    const BenchmarkInfo &B = allBenchmarks()[Idx];
    CommPlan Plan = planFor(B, Strategy::C2);
    EXPECT_EQ(Plan.Exchanges, 0u) << B.Name;
  }
}

TEST(CommPlanTest, TomcatvExchangesItsCoefficientHalos) {
  // D is read in all four directions, AA in two, DD in two: eight
  // exchanges, all before the single fused nest.
  CommPlan Plan = planFor(allBenchmarks()[3], Strategy::C2);
  EXPECT_EQ(Plan.Exchanges, 8u);
  EXPECT_EQ(Plan.RedundantElided, 0u);
}

TEST(CommPlanTest, FusionReducesExchangeCount) {
  // Under baseline, consumers sit in separate nests and some halos are
  // needed repeatedly (then elided); under c2 the fused nests need each
  // halo exactly once. The paper: "message vectorization never conflicts
  // with fusion, so it is always performed."
  const BenchmarkInfo &B = allBenchmarks()[4]; // Simple
  CommPlan Base = planFor(B, Strategy::Baseline);
  CommPlan C2 = planFor(B, Strategy::C2);
  EXPECT_LE(C2.Exchanges, Base.Exchanges + Base.RedundantElided);
  EXPECT_GT(C2.Exchanges, 0u);
}

TEST(CommPlanTest, MessageBytesScaleWithBoundary) {
  // A width-2 halo along dimension 1 of an NxN array moves 2*N elements.
  Program P("bytes");
  const Region *R = P.regionFromExtents({16, 16});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  P.assign(R, B, aref(A, {-2, 0}));
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  insertLoopLevelComm(LP);
  exec::PerfStats Stats = exec::simulate(LP, machine::crayT3E(),
                                         machine::ProcGrid::make(4, 2));
  EXPECT_EQ(Stats.Messages, 1u);
  // Footprint is 18x16 (two halo rows); the slab is 2 of its 18 rows.
  EXPECT_EQ(Stats.MsgBytes, 2u * 16u * 8u);
}

} // namespace

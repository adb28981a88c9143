//===- tests/PerfModelTest.cpp - Performance model tests --------------------===//

#include "exec/PerfModel.h"

#include "analysis/ASDG.h"
#include "benchprogs/Benchmarks.h"
#include "comm/CommInsertion.h"
#include "ir/Normalize.h"
#include "obs/Obs.h"
#include "scalarize/Scalarize.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::comm;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::machine;
using namespace alf::xform;

namespace {

PerfStats simulateStrategy(const Program &P, Strategy S, const MachineDesc &M,
                           unsigned Procs, bool WithComm = false) {
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarizeWithStrategy(G, S);
  if (WithComm)
    insertLoopLevelComm(LP);
  return simulate(LP, M, ProcGrid::make(Procs, 2));
}

TEST(PerfModelTest, ContractionReducesReferences) {
  auto P = tp::makeUserTempPair(64);
  MachineDesc M = crayT3E();
  PerfStats Base = simulateStrategy(*P, Strategy::Baseline, M, 1);
  PerfStats Opt = simulateStrategy(*P, Strategy::C2, M, 1);
  // Baseline: S0 issues 2 reads + 1 write, S1 1 read + 1 write = 5 refs
  // per element. Contracted: 2 reads + 1 write = 3 refs per element.
  EXPECT_EQ(Base.Refs, 5u * 64 * 64);
  EXPECT_EQ(Opt.Refs, 3u * 64 * 64);
  EXPECT_EQ(Base.Flops, Opt.Flops);
  EXPECT_LT(Opt.totalNs(), Base.totalNs());
}

TEST(PerfModelTest, ContractionImprovesTomcatvFragment) {
  auto P = tp::makeTomcatvFragment(2048);
  normalizeProgram(*P);
  MachineDesc M = crayT3E();
  PerfStats Base = simulateStrategy(*P, Strategy::Baseline, M, 1);
  PerfStats Opt = simulateStrategy(*P, Strategy::C2, M, 1);
  double Improvement = percentImprovement(Base, Opt);
  EXPECT_GT(Improvement, 5.0) << "contraction should speed up the fragment";
}

TEST(PerfModelTest, FusionImprovesTemporalLocality) {
  // Two readers of a large array A: fused, the second read of A[i] hits
  // in L1; unfused, A is re-streamed after eviction.
  Program P("reuse");
  const Region *R = P.regionFromExtents({512, 64}); // 256 KB array
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  ArraySymbol *C = P.makeArray("C", 2);
  P.assign(R, B, add(aref(A), aref(A)));
  P.assign(R, C, mul(aref(A), aref(A)));
  MachineDesc M = crayT3E();
  PerfStats Unfused = simulateStrategy(P, Strategy::Baseline, M, 1);
  PerfStats Fused = simulateStrategy(P, Strategy::C2F3, M, 1);
  EXPECT_LT(Fused.MemRefs, Unfused.MemRefs);
  EXPECT_LT(Fused.totalNs(), Unfused.totalNs());
}

TEST(PerfModelTest, NoCommunicationOnOneProcessor) {
  Program P("stencil");
  const Region *R = P.regionFromExtents({64, 64});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  P.assign(R, B, add(aref(A, {-1, 0}), aref(A, {0, 1})));
  MachineDesc M = ibmSP2();
  PerfStats P1 = simulateStrategy(P, Strategy::Baseline, M, 1, true);
  PerfStats P4 = simulateStrategy(P, Strategy::Baseline, M, 4, true);
  EXPECT_EQ(P1.Messages, 0u);
  EXPECT_DOUBLE_EQ(P1.CommNs, 0.0);
  EXPECT_EQ(P4.Messages, 2u);
  EXPECT_GT(P4.CommNs, 0.0);
}

TEST(PerfModelTest, PipelinedSendRecvOverlaps) {
  // Producer -> big independent work -> consumer: the pipelined pair
  // costs less than a whole exchange at the consumer.
  auto Build = [](Program &P) {
    const Region *R = P.regionFromExtents({64, 64});
    ArraySymbol *A = P.makeArray("A", 2);
    ArraySymbol *B = P.makeArray("B", 2);
    ArraySymbol *C = P.makeArray("C", 2);
    ArraySymbol *D = P.makeArray("D", 2);
    P.assign(R, A, aref(B));
    // Independent compute-heavy statement.
    P.assign(R, C, esqrt(eexp(add(aref(D), aref(D)))));
    P.assign(R, D, aref(A, {0, 1}));
  };
  MachineDesc M = intelParagon();
  ProcGrid Grid = ProcGrid::make(4, 2);

  Program Split("split");
  Build(Split);
  insertArrayLevelComm(Split, /*Pipelined=*/true);
  ASDG GS = ASDG::build(Split);
  auto LPS = scalarize::scalarizeWithStrategy(GS, Strategy::Baseline);
  PerfStats Piped = simulate(LPS, M, Grid);

  Program Whole("whole");
  Build(Whole);
  insertArrayLevelComm(Whole, /*Pipelined=*/false);
  ASDG GW = ASDG::build(Whole);
  auto LPW = scalarize::scalarizeWithStrategy(GW, Strategy::Baseline);
  PerfStats Plain = simulate(LPW, M, Grid);

  EXPECT_LT(Piped.CommNs, Plain.CommNs);
  EXPECT_EQ(Piped.Messages, Plain.Messages);
}

TEST(PerfModelTest, GlobalReductionScalesWithLogP) {
  Program P("reduce");
  const Region *R = P.regionFromExtents({32});
  ArraySymbol *A = P.makeArray("A", 1);
  ScalarSymbol *S = P.makeScalar("sum");
  P.opaque("global-sum", R, {A}, {}, {}, {S}, 1.0, /*GlobalReduction=*/true);
  MachineDesc M = crayT3E();
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarizeWithStrategy(G, Strategy::Baseline);
  PerfStats P1 = simulate(LP, M, ProcGrid::make(1, 1));
  PerfStats P16 = simulate(LP, M, ProcGrid::make(16, 1));
  PerfStats P64 = simulate(LP, M, ProcGrid::make(64, 1));
  EXPECT_DOUBLE_EQ(P1.CommNs, 0.0);
  EXPECT_DOUBLE_EQ(P16.CommNs, 4 * M.ReduceStepCost);
  EXPECT_DOUBLE_EQ(P64.CommNs, 6 * M.ReduceStepCost);
}

TEST(PerfModelTest, SimulationAllocatesNoStorage) {
  // Fibro at N = 512 under c2+f3 lays out more than one 2 MiB huge page,
  // which allocation would map as a slab. The model charges addresses
  // straight from the layout and maps nothing.
  auto P = benchprogs::buildFibro(512);
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  auto LP = scalarize::scalarizeWithStrategy(G, Strategy::C2F3);
  ASSERT_GE(LP.storageLayout().SpanBytes, uint64_t(2) << 20);
  uint64_t Before = obs::counterValue("exec.storage.slab_bytes");
  PerfStats S = simulate(LP, crayT3E(), ProcGrid::make(1, 2));
  EXPECT_GT(S.Refs, 0u);
  EXPECT_EQ(obs::counterValue("exec.storage.slab_bytes"), Before);
}

TEST(PerfModelTest, PercentImprovement) {
  PerfStats A, B;
  A.ComputeNs = 200.0;
  B.ComputeNs = 100.0;
  EXPECT_DOUBLE_EQ(percentImprovement(A, B), 100.0);
  EXPECT_DOUBLE_EQ(percentImprovement(B, A), -50.0);
}

TEST(PerfModelTest, MachinesRankPlausibly) {
  // For working sets beyond every cache, the same work takes longest on
  // the Paragon and least on the T3E.
  auto P = tp::makeTomcatvFragment(8192);
  normalizeProgram(*P);
  PerfStats T3E = simulateStrategy(*P, Strategy::Baseline, crayT3E(), 1);
  PerfStats SP2 = simulateStrategy(*P, Strategy::Baseline, ibmSP2(), 1);
  PerfStats Paragon =
      simulateStrategy(*P, Strategy::Baseline, intelParagon(), 1);
  EXPECT_LT(T3E.totalNs(), SP2.totalNs());
  EXPECT_LT(SP2.totalNs(), Paragon.totalNs());
}

} // namespace

//===- tests/DistSimTest.cpp - Distributed execution tests -------------------===//
//
// The SPMD simulator must agree with the sequential interpreter on every
// program whose communication was inserted by the compiler — and must
// *disagree* when a needed exchange is omitted (the negative control
// that proves the test has teeth).
//
//===----------------------------------------------------------------------===//

#include "distsim/DistInterpreter.h"

#include "analysis/ASDG.h"
#include "benchprogs/Benchmarks.h"
#include "comm/CommInsertion.h"
#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "scalarize/Scalarize.h"
#include "semiring/Semiring.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::distsim;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::machine;
using namespace alf::xform;

namespace {

TEST(BlockDistTest, SlicesCoverAndPartition) {
  // [1..10] over 3 parts: 4+3+3.
  EXPECT_EQ(blockSlice(1, 10, 3, 0).Lo, 1);
  EXPECT_EQ(blockSlice(1, 10, 3, 0).Hi, 4);
  EXPECT_EQ(blockSlice(1, 10, 3, 1).Lo, 5);
  EXPECT_EQ(blockSlice(1, 10, 3, 1).Hi, 7);
  EXPECT_EQ(blockSlice(1, 10, 3, 2).Lo, 8);
  EXPECT_EQ(blockSlice(1, 10, 3, 2).Hi, 10);
  // Single part: everything.
  EXPECT_EQ(blockSlice(0, 5, 1, 0).extent(), 6);
}

TEST(BlockDistTest, CoordsAndNeighbors) {
  ProcGrid G = ProcGrid::make(6, 2); // 3 x 2
  ASSERT_EQ(G.Extents, (std::vector<unsigned>{3, 2}));
  EXPECT_EQ(procCoords(G, 0), (std::vector<unsigned>{0, 0}));
  EXPECT_EQ(procCoords(G, 5), (std::vector<unsigned>{2, 1}));
  EXPECT_EQ(procCoords(G, 2), (std::vector<unsigned>{1, 0}));
  EXPECT_EQ(procCoords(G, 1), (std::vector<unsigned>{0, 1}));
}

TEST(BlockDistTest, OwnerInvertsSlices) {
  // Every cell is owned by the one block that holds it, including when
  // there are more parts than cells (trailing blocks are then empty).
  for (int64_t Lo : {-2, 0, 1})
    for (int64_t Extent = 1; Extent <= 13; ++Extent)
      for (unsigned Parts = 1; Parts <= 12; ++Parts) {
        int64_t Hi = Lo + Extent - 1;
        for (unsigned Part = 0; Part < Parts; ++Part) {
          BlockRange B = blockSlice(Lo, Hi, Parts, Part);
          for (int64_t X = B.Lo; X <= B.Hi; ++X)
            EXPECT_EQ(blockOwner(Lo, Hi, Parts, X), static_cast<int>(Part))
                << "[" << Lo << ".." << Hi << "] / " << Parts << " at " << X;
        }
        EXPECT_EQ(blockOwner(Lo, Hi, Parts, Lo - 1), -1);
        EXPECT_EQ(blockOwner(Lo, Hi, Parts, Hi + 1), -1);
      }
}

/// Pipeline shared by the equivalence tests.
RunResult runDist(Program &P, Strategy S, unsigned Procs, uint64_t Seed,
                  bool WithComm = true) {
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarizeWithStrategy(G, S);
  if (WithComm)
    comm::insertLoopLevelComm(LP);
  unsigned Rank = 0;
  for (const Stmt *St : P.stmts()) {
    if (const auto *NS = dyn_cast<NormalizedStmt>(St))
      Rank = NS->getRegion()->rank();
    else if (const auto *RS = dyn_cast<ReduceStmt>(St))
      Rank = RS->getRegion()->rank();
  }
  return runDistributed(LP, ProcGrid::make(Procs, Rank), Seed);
}

RunResult runSeq(Program &P, Strategy S, uint64_t Seed) {
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarizeWithStrategy(G, S);
  return run(LP, Seed);
}

std::unique_ptr<Program> makeStencilChain(int64_t N0, int64_t N1) {
  auto P = std::make_unique<Program>("chain");
  const Region *R = P->regionFromExtents({N0, N1});
  ArraySymbol *A = P->makeArray("A", 2);
  ArraySymbol *T = P->makeUserTemp("T", 2);
  ArraySymbol *B = P->makeArray("B", 2);
  ArraySymbol *C = P->makeArray("C", 2);
  P->assign(R, T, add(aref(A), cst(1.0)));
  P->assign(R, B,
            add(add(aref(A, {-1, 0}), aref(A, {1, 0})),
                add(aref(A, {0, -1}), mul(aref(T), cst(0.5)))));
  P->assign(R, C, add(aref(B, {1, 0}), aref(B)));
  return P;
}

TEST(DistSimTest, StencilMatchesSequentialAcrossGrids) {
  for (unsigned Procs : {1u, 4u, 9u, 16u}) {
    auto P = makeStencilChain(12, 12);
    RunResult Seq = runSeq(*P, Strategy::Baseline, 21);
    RunResult Dist = runDist(*P, Strategy::Baseline, Procs, 21);
    std::string Why;
    EXPECT_TRUE(resultsMatch(Seq, Dist, 0.0, &Why))
        << Procs << " procs: " << Why;
  }
}

TEST(DistSimTest, ContractionAndCommAgree) {
  // The 3x5 grids on 4x4 and 8x8 processors leave some processors with
  // an empty interior: they own no cells and run no iterations.
  struct Case {
    int64_t N0, N1;
    unsigned Procs;
  };
  for (Case C : {Case{12, 12, 4}, Case{3, 5, 16}, Case{3, 5, 64}}) {
    auto P = makeStencilChain(C.N0, C.N1);
    RunResult Seq = runSeq(*P, Strategy::C2F3, 22);
    auto P2 = makeStencilChain(C.N0, C.N1);
    RunResult Dist = runDist(*P2, Strategy::C2F3, C.Procs, 22);
    std::string Why;
    EXPECT_TRUE(resultsMatch(Seq, Dist, 0.0, &Why))
        << C.N0 << "x" << C.N1 << " on " << C.Procs << " procs: " << Why;
  }
}

TEST(DistSimTest, MissingExchangeIsDetected) {
  // Negative control: without the halo exchange after A is rewritten,
  // neighbouring blocks read stale values and the results differ.
  auto Build = [] {
    auto P = std::make_unique<Program>("stale");
    const Region *R = P->regionFromExtents({12, 12});
    ArraySymbol *A = P->makeArray("A", 2);
    ArraySymbol *B = P->makeArray("B", 2);
    P->assign(R, A, mul(aref(B), cst(2.0)));       // rewrite A
    P->assign(R, B, add(aref(A, {1, 0}), cst(1.0))); // then read its halo
    return P;
  };
  auto P1 = Build();
  RunResult Seq = runSeq(*P1, Strategy::Baseline, 5);
  auto P2 = Build();
  RunResult NoComm = runDist(*P2, Strategy::Baseline, 4, 5,
                             /*WithComm=*/false);
  EXPECT_FALSE(resultsMatch(Seq, NoComm));
  auto P3 = Build();
  RunResult WithComm = runDist(*P3, Strategy::Baseline, 4, 5);
  std::string Why;
  EXPECT_TRUE(resultsMatch(Seq, WithComm, 0.0, &Why)) << Why;
}

TEST(DistSimTest, ReductionsCombineAcrossProcessors) {
  Program P("reduce");
  const Region *R = P.regionFromExtents({16, 16});
  ArraySymbol *A = P.makeArray("A", 2);
  ScalarSymbol *Sum = P.makeScalar("sum");
  ScalarSymbol *Hi = P.makeScalar("hi");
  ScalarSymbol *Lo = P.makeScalar("lo");
  P.reduce(R, Sum, ReduceStmt::ReduceOpKind::Sum, mul(aref(A), aref(A)));
  P.reduce(R, Hi, ReduceStmt::ReduceOpKind::Max, aref(A));
  // A min-plus (tropical) fold combines partials with its own ⊕ and 0̄.
  P.reduce(R, Lo, semiring::minPlus(), add(aref(A), cst(1.0)));
  RunResult Seq = runSeq(P, Strategy::Baseline, 31);
  RunResult Dist = runDist(P, Strategy::Baseline, 4, 31);
  std::string Why;
  EXPECT_TRUE(resultsMatch(Seq, Dist, 1e-9, &Why)) << Why;
  // min and max do not depend on the combine order: exact.
  EXPECT_EQ(Seq.ScalarsOut.at("lo"), Dist.ScalarsOut.at("lo"));
  EXPECT_EQ(Seq.ScalarsOut.at("hi"), Dist.ScalarsOut.at("hi"));
}

TEST(DistSimTest, CornerValuesPropagateThroughSequencedExchanges) {
  // A diagonal reference needs corner halo cells, which are only correct
  // if the dimension-1 exchange forwards the dimension-0 exchange's data.
  Program P("corner");
  const Region *R = P.regionFromExtents({12, 12});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  ArraySymbol *C = P.makeArray("C", 2);
  P.assign(R, A, mul(aref(C), cst(3.0)));
  P.assign(R, B, aref(A, {-1, -1}));
  RunResult Seq = runSeq(P, Strategy::Baseline, 41);
  RunResult Dist = runDist(P, Strategy::Baseline, 9, 41);
  std::string Why;
  EXPECT_TRUE(resultsMatch(Seq, Dist, 0.0, &Why)) << Why;
}

TEST(DistSimTest, ArrayLevelPipelinedCommAgrees) {
  // Favor-communication pipeline: exchanges inserted at the array level
  // as send/recv pairs, data moving at the receive.
  auto P = makeStencilChain(12, 12);
  comm::insertArrayLevelComm(*P, /*Pipelined=*/true);
  ASDG G = ASDG::build(*P);
  auto LP = scalarize::scalarizeWithStrategy(G, Strategy::C2F3);
  RunResult Dist = runDistributed(LP, ProcGrid::make(4, 2), 51);

  auto PSeq = makeStencilChain(12, 12);
  RunResult Seq = runSeq(*PSeq, Strategy::Baseline, 51);
  std::string Why;
  EXPECT_TRUE(resultsMatch(Seq, Dist, 0.0, &Why)) << Why;
}

TEST(DistSimTest, RankOneProgram) {
  // Extent 6 on 8 or 12 processors leaves the trailing processors with
  // an empty interior. Their halo is one cell wide: one exchange fills a
  // halo only as wide as the neighbour's interior.
  struct Case {
    int64_t N, Width;
    unsigned Procs;
  };
  for (Case C : {Case{40, 2, 4}, Case{6, 1, 8}, Case{6, 1, 12}}) {
    Program P("r1");
    const Region *R = P.regionFromExtents({C.N});
    ArraySymbol *A = P.makeArray("A", 1);
    ArraySymbol *B = P.makeArray("B", 1);
    P.assign(R, A, mul(aref(B), cst(0.5)));
    P.assign(R, B, add(aref(A, {-C.Width}), aref(A, {C.Width})));
    RunResult Seq = runSeq(P, Strategy::Baseline, 61);
    RunResult Dist = runDist(P, Strategy::Baseline, C.Procs, 61);
    std::string Why;
    EXPECT_TRUE(resultsMatch(Seq, Dist, 0.0, &Why))
        << "extent " << C.N << " on " << C.Procs << " procs: " << Why;
  }
}

TEST(DistSimTest, HaloSweepMatchesSequential) {
  // The rank-1 chain over extents, processor counts and offset widths:
  // interiors of zero and one cell, and halos wider than the
  // neighbour's interior, whose far cells come from a processor two or
  // more hops away.
  for (int64_t N = 1; N <= 9; ++N)
    for (unsigned Procs : {1u, 2u, 3u, 4u, 8u, 12u})
      for (int32_t Width = 1; Width <= 3; ++Width) {
        Program P("halo");
        const Region *R = P.regionFromExtents({N});
        ArraySymbol *A = P.makeArray("A", 1);
        ArraySymbol *B = P.makeArray("B", 1);
        P.assign(R, A, mul(aref(B), cst(0.5)));
        P.assign(R, B, add(aref(A, {-Width}), aref(A, {Width})));
        RunResult Seq = runSeq(P, Strategy::Baseline, 71);
        RunResult Dist = runDist(P, Strategy::Baseline, Procs, 71);
        std::string Why;
        EXPECT_TRUE(resultsMatch(Seq, Dist, 0.0, &Why))
            << "extent " << N << " on " << Procs << " procs, width " << Width
            << ": " << Why;
      }
}

TEST(DistSimTest, CornerHaloSweepMatchesSequential) {
  // Rank 2 with diagonal references: corner cells owned by a diagonal
  // processor, on grids whose interiors are zero or one cell wide.
  for (int64_t N0 : {2, 3, 5})
    for (int64_t N1 : {1, 3, 4})
      for (unsigned Procs : {4u, 6u, 12u})
        for (int32_t Width : {1, 2}) {
          Program P("corner");
          const Region *R = P.regionFromExtents({N0, N1});
          ArraySymbol *A = P.makeArray("A", 2);
          ArraySymbol *B = P.makeArray("B", 2);
          P.assign(R, A, mul(aref(B), cst(0.5)));
          P.assign(R, B,
                   add(aref(A, {-Width, -Width}), aref(A, {Width, Width})));
          RunResult Seq = runSeq(P, Strategy::Baseline, 73);
          RunResult Dist = runDist(P, Strategy::Baseline, Procs, 73);
          std::string Why;
          EXPECT_TRUE(resultsMatch(Seq, Dist, 0.0, &Why))
              << N0 << "x" << N1 << " on " << Procs << " procs, width "
              << Width << ": " << Why;
        }
}

class DistBenchmarks : public ::testing::TestWithParam<unsigned> {};

TEST_P(DistBenchmarks, BenchmarksMatchSequential) {
  const benchprogs::BenchmarkInfo &B =
      benchprogs::allBenchmarks()[GetParam()];
  auto P = B.Build(B.Rank == 1 ? 48 : 10);
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);

  auto Seq = scalarize::scalarizeWithStrategy(G, Strategy::C2F3);
  RunResult SeqRes = run(Seq, 71);

  auto LP = scalarize::scalarizeWithStrategy(G, Strategy::C2F3);
  comm::insertLoopLevelComm(LP);
  RunResult Dist = runDistributed(LP, ProcGrid::make(4, B.Rank), 71);
  std::string Why;
  EXPECT_TRUE(resultsMatch(SeqRes, Dist, 1e-9, &Why)) << B.Name << ": "
                                                      << Why;
}

INSTANTIATE_TEST_SUITE_P(AllSix, DistBenchmarks, ::testing::Range(0u, 6u),
                         [](const ::testing::TestParamInfo<unsigned> &Info) {
                           return benchprogs::allBenchmarks()[Info.param]
                               .Name;
                         });

class DistRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DistRandom, RandomProgramsMatchSequential) {
  GeneratorConfig Cfg;
  Cfg.Seed = GetParam();
  Cfg.NumStmts = 5 + static_cast<unsigned>(GetParam() % 6);
  Cfg.Extent = 9;
  Cfg.AllowSelfRef = true;
  auto P = generateRandomProgram(Cfg);
  normalizeProgram(*P);
  RunResult Seq = runSeq(*P, Strategy::C2, GetParam());
  RunResult Dist = runDist(*P, Strategy::C2, 4, GetParam());
  std::string Why;
  EXPECT_TRUE(resultsMatch(Seq, Dist, 0.0, &Why))
      << "seed " << GetParam() << ": " << Why;

  // A small extent on many processors: interiors of zero or one cell and
  // halos wider than them.
  Cfg.Extent = 2 + static_cast<int64_t>(GetParam() % 4);
  Cfg.MaxOffset = 2;
  unsigned Procs = GetParam() % 2 ? 8 : 12;
  auto Small = generateRandomProgram(Cfg);
  normalizeProgram(*Small);
  Seq = runSeq(*Small, Strategy::C2, GetParam());
  Dist = runDist(*Small, Strategy::C2, Procs, GetParam());
  EXPECT_TRUE(resultsMatch(Seq, Dist, 0.0, &Why))
      << "seed " << GetParam() << ", extent " << Cfg.Extent << " on "
      << Procs << " procs: " << Why;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistRandom,
                         ::testing::Range<uint64_t>(1, 25));

} // namespace

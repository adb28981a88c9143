//===- tests/VerifyTest.cpp - Translation-validation injected-bug tests ----===//
//
// Proves the verify passes catch deliberately injected compiler bugs —
// corrupted dependence graphs, illegal fusion/contraction decisions, and
// unsafe parallel schedules — *statically*, before any output could
// diverge. Each test corrupts one artifact through a testing hook and
// asserts the corresponding pass rejects it with the right kind of
// finding, while the uncorrupted artifact passes cleanly.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"
#include "analysis/ASDG.h"
#include "driver/Pipeline.h"
#include "exec/ParallelExecutor.h"
#include "ir/Normalize.h"
#include "scalarize/Scalarize.h"
#include "obs/Obs.h"
#include "verify/Verify.h"
#include "xform/FusionPartition.h"
#include "xform/IlpStrategy.h"
#include "xform/Strategy.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

namespace {

bool hasFindingFrom(const verify::VerifyReport &R, const std::string &Pass) {
  for (const verify::VerifyFinding &F : R.Findings)
    if (F.Pass == Pass)
      return true;
  return false;
}

TEST(VerifyTest, LevelNamesRoundTrip) {
  using verify::VerifyLevel;
  EXPECT_STREQ(verify::getVerifyLevelName(VerifyLevel::Off), "off");
  EXPECT_STREQ(verify::getVerifyLevelName(VerifyLevel::Structural),
               "structural");
  EXPECT_STREQ(verify::getVerifyLevelName(VerifyLevel::Full), "full");
  EXPECT_STREQ(verify::getVerifyLevelName(VerifyLevel::Safety), "safety");
  EXPECT_EQ(verify::verifyLevelNamed("full"), VerifyLevel::Full);
  EXPECT_EQ(verify::verifyLevelNamed("structural"), VerifyLevel::Structural);
  EXPECT_EQ(verify::verifyLevelNamed("off"), VerifyLevel::Off);
  EXPECT_EQ(verify::verifyLevelNamed("safety"), VerifyLevel::Safety);
  EXPECT_EQ(verify::verifyLevelNamed("bogus"), std::nullopt);
  EXPECT_GE(VerifyLevel::Safety, VerifyLevel::Full);
}

TEST(VerifyTest, CleanProgramIsFullyCertified) {
  auto P = tp::makeFigure2();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  EXPECT_TRUE(verify::verifyStructure(*P, &G).ok());
  EXPECT_TRUE(verify::verifyDependences(G).ok());
  for (Strategy S : allStrategiesForTest()) {
    StrategyResult SR = applyStrategy(G, S);
    verify::VerifyReport R = verify::verifyStrategy(G, SR);
    EXPECT_TRUE(R.ok()) << getStrategyName(S) << ":\n" << R.str();
  }
}

TEST(VerifyTest, StructureRejectsNonNormalFormProgram) {
  // Pre-normalization the LHS appears on its own RHS — a violation of
  // normal-form condition (i) the structural pass must flag.
  Program P("self-read");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  P.assign(R, A, add(aref(A), cst(1.0)));
  verify::VerifyReport Rep = verify::verifyStructure(P);
  EXPECT_FALSE(Rep.ok());
  EXPECT_TRUE(hasFindingFrom(Rep, "structure")) << Rep.str();
}

TEST(VerifyTest, OracleCatchesDroppedEdge) {
  auto P = tp::makeFigure2();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  ASSERT_GT(G.numEdges(), 0u);
  ASSERT_TRUE(verify::verifyDependences(G).ok());

  // Simulate the analysis losing a dependence: the oracle re-derives it
  // from the program and reports it as missing.
  G.dropEdgeForTest(0);
  verify::VerifyReport Rep = verify::verifyDependences(G);
  ASSERT_FALSE(Rep.ok());
  EXPECT_TRUE(hasFindingFrom(Rep, "dependence-oracle")) << Rep.str();
  EXPECT_NE(Rep.str().find("missing dependence"), std::string::npos)
      << Rep.str();
}

TEST(VerifyTest, OracleCatchesSpuriousEdge) {
  auto P = tp::makeFigure2();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  const Symbol *A = P->findSymbol("A");
  ASSERT_NE(A, nullptr);

  // Fabricate a dependence the program does not have (distance (5,5) on
  // A between S0 and S1).
  DepEdge Fake;
  Fake.Src = 0;
  Fake.Tgt = 1;
  Fake.Labels.push_back(DepLabel{A, Offset({5, 5}), DepType::Flow});
  G.injectEdgeForTest(std::move(Fake));

  verify::VerifyReport Rep = verify::verifyDependences(G);
  ASSERT_FALSE(Rep.ok());
  EXPECT_NE(Rep.str().find("spurious dependence"), std::string::npos)
      << Rep.str();
}

TEST(VerifyTest, StructureCatchesProgramOrderViolation) {
  auto P = tp::makeFigure2();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  const Symbol *A = P->findSymbol("A");

  // An edge against program order would make the "graph" cyclic under
  // the Src < Tgt convention every consumer relies on.
  DepEdge Back;
  Back.Src = 2;
  Back.Tgt = 1;
  Back.Labels.push_back(DepLabel{A, Offset({0, 0}), DepType::Flow});
  G.injectEdgeForTest(std::move(Back));

  verify::VerifyReport Rep = verify::verifyStructure(*P, &G);
  ASSERT_FALSE(Rep.ok());
  EXPECT_TRUE(hasFindingFrom(Rep, "structure")) << Rep.str();
}

TEST(VerifyTest, LegalityRejectsFusionWithCarriedFlow) {
  auto P = tp::makeFigure2();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);

  // Force S0 and S2 into one cluster: their flow dependence on A has
  // UDV (1,-1) != 0, so Definition 5 condition (ii) fails.
  StrategyResult SR;
  SR.Partition = FusionPartition::trivial(G);
  SR.Partition.merge({0, 2});

  verify::VerifyReport Rep = verify::verifyStrategy(G, SR);
  ASSERT_FALSE(Rep.ok());
  EXPECT_TRUE(hasFindingFrom(Rep, "fusion-legality")) << Rep.str();
}

TEST(VerifyTest, QuotientCycleNamesAClusterOnTheCycle) {
  // S0: A := X; S1: B := A; S2: C := B; S3: D := C, with S1 and S3 fused:
  // cluster 1 = {S1, S3} feeds cluster 2 = {S2} and is fed by it, so the
  // quotient graph cycles through clusters 1 and 2, not through the
  // cluster 0 the search starts from.
  Program P("chain");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *X = P.makeArray("X", 1);
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  ArraySymbol *D = P.makeArray("D", 1);
  P.assign(R, A, aref(X));
  P.assign(R, B, aref(A));
  P.assign(R, C, aref(B));
  P.assign(R, D, aref(C));
  ASDG G = ASDG::build(P);
  StrategyResult SR;
  SR.Partition = FusionPartition::fromAssignment(G, {0, 1, 2, 1});

  verify::VerifyReport Rep = verify::verifyStrategy(G, SR);
  ASSERT_FALSE(Rep.ok());
  bool Named = false;
  for (const verify::VerifyFinding &F : Rep.Findings)
    Named |= F.Message == "quotient graph has a cycle through cluster 1 "
                          "(Definition 5 (iii))";
  EXPECT_TRUE(Named) << Rep.str();
}

TEST(VerifyTest, LegalityRejectsContractionOfLiveOutArray) {
  auto P = tp::makeFigure2();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  const auto *A = dyn_cast<ArraySymbol>(P->findSymbol("A"));
  ASSERT_NE(A, nullptr);
  ASSERT_TRUE(A->isLiveOut());

  // Pretend the strategy decided to contract a live-out array: its final
  // value would be lost. Definition 6's liveness side condition fails.
  StrategyResult SR;
  SR.Partition = FusionPartition::trivial(G);
  SR.Contracted.push_back(A);

  verify::VerifyReport Rep = verify::verifyStrategy(G, SR);
  ASSERT_FALSE(Rep.ok());
  EXPECT_TRUE(hasFindingFrom(Rep, "contraction-legality")) << Rep.str();
}

TEST(VerifyTest, AlgebraCheckRejectsPlantedNonAssociativeSemiring) {
  // The Definition 6 contractibility argument consumes ⊕ associativity
  // and identity. Rebind a reduction to the bogus subtraction "semiring"
  // after construction — exactly the corruption a broken registry entry
  // or override path would introduce — and the legality pass must refuse
  // to certify any strategy over it.
  Program P("bogus-algebra");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *T = P.makeUserTemp("T", 1);
  ScalarSymbol *S = P.makeScalar("s");
  P.assign(R, T, mul(aref(A), cst(2.0)));
  ReduceStmt *RS = P.reduce(R, S, semiring::plusTimes(), aref(T));
  normalizeProgram(P);
  ASDG G = ASDG::build(P);

  // The lawful algebra certifies cleanly...
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  EXPECT_TRUE(verify::verifyStrategy(G, SR).ok());

  // ...and the planted one is rejected with a contraction-legality
  // finding naming the broken law.
  RS->setSemiring(semiring::bogusNonAssociativeForTest());
  verify::VerifyReport Rep = verify::verifyStrategy(G, SR);
  ASSERT_FALSE(Rep.ok());
  EXPECT_TRUE(hasFindingFrom(Rep, "contraction-legality")) << Rep.str();
  EXPECT_NE(Rep.str().find("violates its declared algebra"),
            std::string::npos)
      << Rep.str();
}

TEST(VerifyTest, FullVerifyRejectsCorruptedIlpSolution) {
  // Fault injection into the branch-and-bound partitioner itself: the
  // test hook makes solveOptimalPartition smuggle one illegal decision
  // into an otherwise optimal solution (an illegal cluster merge if the
  // program has one, a live-out contraction otherwise). The pipeline
  // never trusts the solver, so the independent Definition 5/6 re-proof
  // at VerifyLevel::Full must catch exactly this class of solver bug.
  auto P = tp::makeFigure2();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);

  // Sanity: the honest solver's solution is certified.
  StrategyResult Clean = applyStrategy(G, Strategy::IlpOptimal);
  ASSERT_TRUE(verify::verifyStrategy(G, Clean).ok());

  setIlpCorruptionForTest(true);
  StrategyResult Bad = applyStrategy(G, Strategy::IlpOptimal);
  setIlpCorruptionForTest(false);

  verify::VerifyReport Rep = verify::verifyStrategy(G, Bad);
  ASSERT_FALSE(Rep.ok()) << "corrupted ILP solution was certified";
  EXPECT_TRUE(hasFindingFrom(Rep, "fusion-legality") ||
              hasFindingFrom(Rep, "contraction-legality"))
      << Rep.str();

  // The hook is off again: fresh solves must be clean (guards against
  // the corruption leaking into later tests through the global).
  EXPECT_TRUE(verify::verifyStrategy(G, applyStrategy(G, Strategy::IlpOptimal))
                  .ok());
}

TEST(VerifyTest, StrategyOverCorruptedGraphIsRejected) {
  // End-to-end injected-bug scenario: the analysis loses every edge, the
  // strategy happily fuses everything, and the outputs of the fused
  // program could even agree by luck — but the legality proof re-derives
  // the dependences from the program and rejects the cluster statically.
  auto P = tp::makeFigure2();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  while (G.numEdges() > 0)
    G.dropEdgeForTest(0);

  // Against the corrupted (edgeless) graph the legality predicate sees no
  // conflicting labels, so fusing S0 with S2 looks fine...
  StrategyResult SR;
  SR.Partition = FusionPartition::trivial(G);
  ASSERT_TRUE(isLegalFusion(SR.Partition, {0, 2}));
  SR.Partition.merge({0, 2});

  // ...but the proof re-derives the dependences from the program itself
  // and rejects the cluster before anything runs.
  verify::VerifyReport Rep = verify::verifyStrategy(G, SR);
  ASSERT_FALSE(Rep.ok());
  EXPECT_TRUE(hasFindingFrom(Rep, "fusion-legality") ||
              hasFindingFrom(Rep, "dependence-oracle"))
      << Rep.str();
}

TEST(VerifyTest, RaceDetectorRejectsForcedParallelSchedule) {
  // [1..64] S0: B := A@(-1);  S1: A := B + 1.
  // Fusing both is legal (the flow on B is null; the anti dependence on
  // A only constrains the loop direction), but the fused loop *carries*
  // the dependence on A, so the planner runs it sequentially. Forcing it
  // parallel must trip the static race detector.
  Program P("carried");
  const Region *R = P.regionFromExtents({64});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, B, aref(A, {-1}));
  P.assign(R, A, add(aref(B), cst(1.0)));
  normalizeProgram(P);
  ASDG G = ASDG::build(P);

  StrategyResult SR;
  SR.Partition = FusionPartition::trivial(G);
  ASSERT_TRUE(isLegalFusion(SR.Partition, {0, 1}));
  SR.Partition.merge({0, 1});
  auto LP = scalarize::scalarize(G, SR);

  exec::ParallelSchedule Sched = exec::planParallelism(LP);
  ASSERT_EQ(Sched.NodePlans.size(), LP.nodes().size());
  // The planner must have refused to parallelize the carried nest...
  for (const NestParallelPlan &Plan : Sched.NodePlans)
    EXPECT_FALSE(Plan.isParallel()) << Plan.Reason;
  EXPECT_TRUE(verify::verifyParallelSafety(LP, Sched).ok());

  // ...so force it and let the race detector prove why that was right.
  for (NestParallelPlan &Plan : Sched.NodePlans) {
    Plan.ParallelLoop = 0;
    Plan.Decision = ParallelDecision::OuterParallel;
  }
  verify::VerifyReport Rep = verify::verifyParallelSafety(LP, Sched);
  ASSERT_FALSE(Rep.ok());
  EXPECT_TRUE(hasFindingFrom(Rep, "race")) << Rep.str();
}

TEST(VerifyTest, PipelineCertifiesEveryStrategyAtFullLevel) {
  // Findings reach a caller only through CompileStatus: a clean program
  // compiles at full level under every strategy with none.
  auto P = tp::makeTomcatvFragment();
  driver::PipelineOptions PO;
  PO.Verify = verify::VerifyLevel::Full;
  driver::Pipeline PL(*P, PO);
  for (Strategy S : allStrategiesForTest()) {
    driver::CompileStatus St = PL.tryCompile(driver::CompileRequest{S});
    EXPECT_TRUE(St.ok()) << getStrategyName(S) << ": " << St.Message;
    EXPECT_TRUE(St.Findings.ok()) << St.Findings.str();
  }
}

//===----------------------------------------------------------------------===//
// Pass 5: the memory-safety checker over scalarized programs.
//===----------------------------------------------------------------------===//

/// Resets the scalarizer fault hook even when an ASSERT bails out of the
/// test body early.
struct CorruptionGuard {
  explicit CorruptionGuard(scalarize::ScalarizeCorruption Mode) {
    scalarize::setScalarizeCorruptionForTest(Mode);
  }
  ~CorruptionGuard() {
    scalarize::setScalarizeCorruptionForTest(
        scalarize::ScalarizeCorruption::None);
  }
};

TEST(VerifyTest, SafetyCertifiesCleanScalarizations) {
  // Figure 2 exercises offset loads; Tomcatv adds contracted temporaries
  // (scalar use-before-def obligations inside one body).
  std::unique_ptr<Program> Programs[] = {tp::makeFigure2(),
                                         tp::makeTomcatvFragment()};
  for (auto &P : Programs) {
    normalizeProgram(*P);
    ASDG G = ASDG::build(*P);
    for (Strategy S : allStrategiesForTest()) {
      StrategyResult SR = applyStrategy(G, S);
      lir::LoopProgram LP = scalarize::scalarize(G, SR);
      verify::VerifyReport R = verify::verifySafety(LP, &G);
      EXPECT_TRUE(R.ok()) << P->getName() << "/" << getStrategyName(S)
                          << ":\n"
                          << R.str();
    }
  }
}

TEST(VerifyTest, SafetyCatchesPlantedOffByOneBound) {
  auto P = tp::makeFigure2();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  {
    CorruptionGuard Guard(scalarize::ScalarizeCorruption::OffByOneBound);
    lir::LoopProgram Bad = scalarize::scalarize(G, SR);
    verify::VerifyReport Rep = verify::verifySafety(Bad, &G);
    ASSERT_FALSE(Rep.ok());
    EXPECT_TRUE(hasFindingFrom(Rep, "safety-bounds")) << Rep.str();
  }
  // Hook disarmed: the identical pipeline certifies again.
  EXPECT_TRUE(verify::verifySafety(scalarize::scalarize(G, SR), &G).ok());
}

TEST(VerifyTest, SafetyCatchesSkippedAccumulatorInit) {
  Program P("dot");
  const Region *R = P.regionFromExtents({16});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ScalarSymbol *Acc = P.makeScalar("acc");
  P.reduce(R, Acc, semiring::plusTimes(), mul(aref(A), aref(B)));
  normalizeProgram(P);
  ASDG G = ASDG::build(P);
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  {
    CorruptionGuard Guard(
        scalarize::ScalarizeCorruption::SkipAccumulatorInit);
    lir::LoopProgram Bad = scalarize::scalarize(G, SR);
    verify::VerifyReport Rep = verify::verifySafety(Bad, &G);
    ASSERT_FALSE(Rep.ok());
    EXPECT_TRUE(hasFindingFrom(Rep, "safety-init")) << Rep.str();
    EXPECT_NE(Rep.str().find("acc"), std::string::npos) << Rep.str();
  }
  EXPECT_TRUE(verify::verifySafety(scalarize::scalarize(G, SR), &G).ok());
}

TEST(VerifyTest, SafetyCatchesTruncatedCopyOut) {
  auto P = tp::makeFigure2();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  {
    CorruptionGuard Guard(scalarize::ScalarizeCorruption::ShrunkenCopyOut);
    lir::LoopProgram Bad = scalarize::scalarize(G, SR);
    verify::VerifyReport Rep = verify::verifySafety(Bad, &G);
    ASSERT_FALSE(Rep.ok());
    EXPECT_TRUE(hasFindingFrom(Rep, "safety-init")) << Rep.str();
    EXPECT_NE(Rep.str().find("truncated copy-out"), std::string::npos)
        << Rep.str();
  }
  EXPECT_TRUE(verify::verifySafety(scalarize::scalarize(G, SR), &G).ok());
}

TEST(VerifyTest, PipelineReportsUnsafeProgramAtSafetyLevel) {
  driver::PipelineOptions PO;
  PO.Verify = verify::VerifyLevel::Safety;
  {
    auto P = tp::makeFigure2();
    driver::Pipeline PL(*P, PO);
    driver::CompileStatus St = PL.tryCompile(driver::CompileRequest{});
    EXPECT_TRUE(St.ok()) << St.Message;
  }
  auto P = tp::makeFigure2();
  driver::Pipeline PL(*P, PO);
  CorruptionGuard Guard(scalarize::ScalarizeCorruption::OffByOneBound);
  driver::CompileStatus St = PL.tryCompile(driver::CompileRequest{});
  EXPECT_EQ(St.Code, driver::CompileCode::UnsafeProgram);
  EXPECT_STREQ(driver::getCompileCodeName(St.Code), "unsafe-program");
  EXPECT_FALSE(St.Findings.ok());
  EXPECT_NE(St.Message.find("safety"), std::string::npos) << St.Message;
}

TEST(VerifyTest, VerifyStatisticsAccumulate) {
  uint64_t ProofsBefore = obs::counterValue("verify.strategy_proofs");
  uint64_t OracleBefore = obs::counterValue("verify.oracle_runs");
  auto P = tp::makeUserTempPair();
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  (void)verify::verifyDependences(G);
  StrategyResult SR = applyStrategy(G, Strategy::C2);
  (void)verify::verifyStrategy(G, SR);
  EXPECT_GT(obs::counterValue("verify.strategy_proofs"), ProofsBefore);
  EXPECT_GT(obs::counterValue("verify.oracle_runs"), OracleBefore);
}

} // namespace

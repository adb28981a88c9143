//===- tests/PipelineTest.cpp - driver::Pipeline facade tests ---------------===//
//
// The Pipeline facade must produce exactly what the hand-assembled chain
// (normalize -> ASDG -> applyStrategy -> scalarize -> comm -> execute)
// produces, under every communication policy and execution mode.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "analysis/ASDG.h"
#include "comm/CommInsertion.h"
#include "exec/Interpreter.h"
#include "ir/Normalize.h"
#include "obs/Obs.h"
#include "scalarize/Scalarize.h"
#include "xform/IlpStrategy.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::driver;
using namespace alf::exec;
using namespace alf::xform;

namespace {

TEST(PipelineTest, MatchesHandAssembledChain) {
  auto Manual = tp::makeUserTempPair();
  ir::normalizeProgram(*Manual);
  analysis::ASDG G = analysis::ASDG::build(*Manual);

  auto Facade = tp::makeUserTempPair();
  Pipeline PL(*Facade);

  for (Strategy S : allStrategiesForTest()) {
    auto Expected = scalarize::scalarizeWithStrategy(G, S);
    EXPECT_EQ(PL.scalarize(S).str(), Expected.str()) << getStrategyName(S);
  }
}

TEST(PipelineTest, LoopLevelCommPolicyMatchesManualInsertion) {
  auto Manual = tp::makeFigure2();
  ir::normalizeProgram(*Manual);
  analysis::ASDG G = analysis::ASDG::build(*Manual);
  auto Expected = scalarize::scalarizeWithStrategy(G, Strategy::C2F3);
  comm::insertLoopLevelComm(Expected);

  auto Facade = tp::makeFigure2();
  PipelineOptions Opts;
  Opts.Comm = CommPolicy::LoopLevel;
  Pipeline PL(*Facade, Opts);
  EXPECT_EQ(PL.scalarize(Strategy::C2F3).str(), Expected.str());
}

TEST(PipelineTest, ArrayLevelCommPolicyMatchesManualInsertion) {
  auto Manual = tp::makeFigure2();
  ir::normalizeProgram(*Manual);
  comm::insertArrayLevelComm(*Manual, /*Pipelined=*/true);
  analysis::ASDG G = analysis::ASDG::build(*Manual);
  auto Expected = scalarize::scalarizeWithStrategy(G, Strategy::C2F3);

  auto Facade = tp::makeFigure2();
  PipelineOptions Opts;
  Opts.Comm = CommPolicy::ArrayLevel;
  Pipeline PL(*Facade, Opts);
  EXPECT_EQ(PL.scalarize(Strategy::C2F3).str(), Expected.str());
}

TEST(PipelineTest, AllExecModesAgree) {
  auto P = tp::makeUserTempPair();
  Pipeline PL(*P);
  CompileStatus SeqSt = PL.tryCompile(CompileRequest{Strategy::C2});
  ASSERT_TRUE(SeqSt.ok()) << SeqSt.Message;
  RunResult Seq = SeqSt.Artifact->run(5);
  for (ExecMode Mode : allExecModes()) {
    CompileStatus St = PL.tryCompile(CompileRequest{Strategy::C2, Mode});
    ASSERT_TRUE(St.ok()) << getExecModeName(Mode) << ": " << St.Message;
    RunResult Res = St.Artifact->run(5);
    std::string Why;
    EXPECT_TRUE(resultsMatch(Seq, Res, 0.0, &Why))
        << getExecModeName(Mode) << ": " << Why;
  }
}

TEST(PipelineTest, StrategyAndAsdgAreServedFromSharedAnalysis) {
  auto P = tp::makeUserTempPair();
  Pipeline PL(*P);
  const analysis::ASDG &G1 = PL.asdg();
  const analysis::ASDG &G2 = PL.asdg();
  EXPECT_EQ(&G1, &G2); // built once
  StrategyResult SR = PL.strategy(Strategy::C2);
  EXPECT_FALSE(SR.Partition.numClusters() == 0);
  auto LP = PL.scalarize(SR);
  CompileStatus St = PL.tryCompile(CompileRequest{Strategy::C2});
  ASSERT_TRUE(St.ok()) << St.Message;
  EXPECT_EQ(St.Artifact->LP.str(), LP.str());
  RunResult Res = St.Artifact->run(3);
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(LP, 3), Res, 0.0, &Why)) << Why;
}

TEST(TryCompileTest, OkProducesStatusWithArtifactAndStrategy) {
  auto P = tp::makeUserTempPair();
  Pipeline PL(*P);
  CompileRequest Req;
  Req.Strat = Strategy::C2;
  CompileStatus St = PL.tryCompile(Req);
  EXPECT_EQ(St.Code, CompileCode::Ok);
  EXPECT_TRUE(St.ok());
  EXPECT_TRUE(St.Message.empty());
  ASSERT_TRUE(St.SR.has_value());
  ASSERT_TRUE(St.Artifact.has_value());
  EXPECT_EQ(St.Artifact->NumClusters, St.SR->Partition.numClusters());

  // The artifact is the same loop program the legacy facade produces.
  auto Q = tp::makeUserTempPair();
  Pipeline PL2(*Q);
  EXPECT_EQ(St.Artifact->LP.str(), PL2.scalarize(Strategy::C2).str());
}

TEST(TryCompileTest, ReentrantAcrossStrategies) {
  auto P = tp::makeTomcatvFragment();
  Pipeline PL(*P);
  for (Strategy S : allStrategiesForTest()) {
    CompileRequest Req;
    Req.Strat = S;
    CompileStatus St = PL.tryCompile(Req);
    EXPECT_TRUE(St.ok()) << getStrategyName(S) << ": " << St.Message;
    ASSERT_TRUE(St.Artifact.has_value());
  }
}

TEST(TryCompileTest, InvalidProgramIsAStatusNotAnAbort) {
  // Unnormalized Tomcatv reads and writes Rx/Ry in one statement —
  // normal-form condition (i). With the pipeline's own normalization
  // off, tryCompile must report it instead of dying.
  auto P = tp::makeTomcatvFragment();
  PipelineOptions Opts;
  Opts.Normalize = false;
  Pipeline PL(*P, Opts);
  CompileStatus St = PL.tryCompile(CompileRequest());
  EXPECT_EQ(St.Code, CompileCode::InvalidProgram);
  EXPECT_FALSE(St.ok());
  EXPECT_FALSE(St.Message.empty());
  EXPECT_FALSE(St.Artifact.has_value());
}

TEST(TryCompileTest, VerifyRejectedOnACorruptedSolver) {
  auto P = tp::makeTomcatvFragment();
  PipelineOptions Opts;
  Opts.Verify = verify::VerifyLevel::Full;
  Pipeline PL(*P, Opts);
  xform::setIlpCorruptionForTest(true);
  CompileRequest Req;
  Req.Strat = Strategy::IlpOptimal;
  CompileStatus St = PL.tryCompile(Req);
  xform::setIlpCorruptionForTest(false);
  EXPECT_EQ(St.Code, CompileCode::VerifyRejected);
  EXPECT_FALSE(St.Message.empty());
  EXPECT_FALSE(St.Findings.ok());
  EXPECT_STREQ(getCompileCodeName(St.Code), "verify-rejected");
}

TEST(TryCompileTest, CompileCodeNamesAreStableWireStrings) {
  EXPECT_STREQ(getCompileCodeName(CompileCode::Ok), "ok");
  EXPECT_STREQ(getCompileCodeName(CompileCode::InvalidProgram),
               "invalid-program");
  EXPECT_STREQ(getCompileCodeName(CompileCode::VerifyRejected),
               "verify-rejected");
}

// A prepared jit-simd artifact is emitted, hashed and loaded once, by
// tryCompile: every later run is marshal plus kernel call, emits no C,
// and reproduces the first run bit for bit. Without a compiler the
// artifact runs the interpreter, which also emits nothing.
TEST(TryCompileTest, RepeatedJitSimdRunsEmitNothingAndAgree) {
  obs::reset();
  obs::ScopedLevel Level(obs::ObsLevel::Counters);
  auto Emitted = [] {
    uint64_t N = 0;
    for (const char *Name : {"jit.emit", "jit.vectorize"})
      if (std::optional<obs::MetricRow> Row = obs::metricsFor(Name))
        N += Row->Count;
    return N;
  };
  auto P = tp::makeTomcatvFragment();
  Pipeline PL(*P);
  CompileStatus St = PL.tryCompile(
      CompileRequest{Strategy::C2F3, ExecMode::NativeJitSimd});
  ASSERT_TRUE(St.ok()) << St.Message;
  uint64_t AfterCompile = Emitted();

  JitRunInfo First;
  RunResult FirstRes = St.Artifact->run(11, &First);
  if (JitEngine::compilerAvailable()) {
    EXPECT_EQ(AfterCompile, 1u);
    EXPECT_TRUE(First.UsedJit) << First.FallbackReason;
  }
  for (int I = 0; I < 3; ++I) {
    JitRunInfo Info;
    RunResult Res = St.Artifact->run(11, &Info);
    EXPECT_EQ(Info.UsedJit, First.UsedJit);
    std::string Why;
    EXPECT_TRUE(resultsMatch(FirstRes, Res, 0.0, &Why)) << Why;
  }
  EXPECT_EQ(Emitted(), AfterCompile);
  obs::reset();
}

TEST(PipelineTest, OneShotRunProgram) {
  auto A = tp::makeTomcatvFragment();
  auto B = tp::makeTomcatvFragment();
  ir::normalizeProgram(*B);
  analysis::ASDG G = analysis::ASDG::build(*B);
  auto LP = scalarize::scalarizeWithStrategy(G, Strategy::F1);
  Pipeline PL(*A);
  CompileStatus St = PL.tryCompile(CompileRequest{Strategy::F1});
  ASSERT_TRUE(St.ok()) << St.Message;
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(LP, 9), St.Artifact->run(9), 0.0, &Why))
      << Why;
}

} // namespace

//===- tests/PipelineTest.cpp - driver::Pipeline facade tests ---------------===//
//
// The Pipeline facade must produce exactly what the hand-assembled chain
// (align -> normalize -> ASDG -> applyStrategy -> scalarize -> comm ->
// execute) produces, under every communication policy and execution mode.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "analysis/ASDG.h"
#include "comm/CommInsertion.h"
#include "exec/Interpreter.h"
#include "ir/Align.h"
#include "ir/Normalize.h"
#include "obs/Obs.h"
#include "scalarize/Scalarize.h"
#include "xform/IlpStrategy.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <limits>

using namespace alf;
using namespace alf::driver;
using namespace alf::exec;
using namespace alf::xform;

namespace {

/// The printed loop program tryCompile produces for \p S; empty, and a
/// test failure, when the compile is rejected.
std::string compiledText(Pipeline &PL, Strategy S) {
  CompileStatus St = PL.tryCompile(CompileRequest{S});
  EXPECT_TRUE(St.ok()) << getStrategyName(S) << ": " << St.Message;
  return St.ok() ? St.Artifact->LP.str() : std::string();
}

/// The normal form Pipeline::prepare builds, by hand.
void normalizeByHand(ir::Program &P) {
  ir::alignProgram(P);
  ir::normalizeProgram(P);
}

TEST(PipelineTest, MatchesHandAssembledChain) {
  auto Manual = tp::makeUserTempPair();
  normalizeByHand(*Manual);
  analysis::ASDG G = analysis::ASDG::build(*Manual);

  auto Facade = tp::makeUserTempPair();
  Pipeline PL(*Facade);

  for (Strategy S : allStrategiesForTest()) {
    auto Expected = scalarize::scalarizeWithStrategy(G, S);
    EXPECT_EQ(compiledText(PL, S), Expected.str()) << getStrategyName(S);
  }
}

TEST(PipelineTest, LoopLevelCommPolicyMatchesManualInsertion) {
  auto Manual = tp::makeFigure2();
  normalizeByHand(*Manual);
  analysis::ASDG G = analysis::ASDG::build(*Manual);
  auto Expected = scalarize::scalarizeWithStrategy(G, Strategy::C2F3);
  comm::insertLoopLevelComm(Expected);

  auto Facade = tp::makeFigure2();
  PipelineOptions Opts;
  Opts.Comm = CommPolicy::LoopLevel;
  Pipeline PL(*Facade, Opts);
  EXPECT_EQ(compiledText(PL, Strategy::C2F3), Expected.str());
}

TEST(PipelineTest, ArrayLevelCommPolicyMatchesManualInsertion) {
  auto Manual = tp::makeFigure2();
  normalizeByHand(*Manual);
  comm::insertArrayLevelComm(*Manual, /*Pipelined=*/true);
  analysis::ASDG G = analysis::ASDG::build(*Manual);
  auto Expected = scalarize::scalarizeWithStrategy(G, Strategy::C2F3);

  auto Facade = tp::makeFigure2();
  PipelineOptions Opts;
  Opts.Comm = CommPolicy::ArrayLevel;
  Pipeline PL(*Facade, Opts);
  EXPECT_EQ(compiledText(PL, Strategy::C2F3), Expected.str());
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
  CompileStatus First = PL.tryCompile(CompileRequest{Strategy::C2});
  CompileStatus St = PL.tryCompile(CompileRequest{Strategy::C2});
  ASSERT_TRUE(First.ok() && St.ok()) << First.Message << St.Message;
  EXPECT_EQ(&PL.asdg(), &G1); // still the one graph
  EXPECT_FALSE(First.SR->Partition.numClusters() == 0);
  EXPECT_EQ(St.Artifact->LP.str(), First.Artifact->LP.str());
  RunResult Res = St.Artifact->run(3);
  std::string Why;
  EXPECT_TRUE(resultsMatch(run(First.Artifact->LP, 3), Res, 0.0, &Why))
      << Why;
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

  // The artifact is the loop program the hand-assembled chain produces.
  auto Q = tp::makeUserTempPair();
  normalizeByHand(*Q);
  analysis::ASDG G = analysis::ASDG::build(*Q);
  EXPECT_EQ(St.Artifact->LP.str(),
            scalarize::scalarizeWithStrategy(G, Strategy::C2).str());
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
  // A reference whose offset reaches past int64_t breaks a rule that
  // alignment and normalization cannot repair: tryCompile must report
  // it, with every violation in the findings, instead of dying.
  ir::Program P("unreachable");
  const ir::Region *R = P.internRegion(
      ir::Region({1}, {std::numeric_limits<int64_t>::max()}));
  ir::ArraySymbol *A = P.makeArray("A", 1);
  ir::ArraySymbol *B = P.makeArray("B", 1);
  P.assign(R, A, ir::aref(B, {1}));
  P.assign(R, B, ir::aref(A, {1}));
  Pipeline PL(P);
  CompileStatus St = PL.tryCompile(CompileRequest());
  EXPECT_EQ(St.Code, CompileCode::InvalidProgram);
  EXPECT_FALSE(St.ok());
  EXPECT_EQ(St.Message, "S0: B@(1) reaches an index that does not fit int64_t");
  ASSERT_EQ(St.Findings.Findings.size(), 2u) << St.Findings.str();
  EXPECT_EQ(St.Findings.Findings[0].Pass, "structure");
  EXPECT_EQ(St.Findings.Findings[0].Message, St.Message);
  EXPECT_EQ(St.Findings.Findings[1].Message,
            "S1: A@(1) reaches an index that does not fit int64_t");
  EXPECT_FALSE(St.Artifact.has_value());
}

// tests/inputs/target_offset_fuses.zpl: [R0] T@(1,0) := A@(1,0);
// [R1] B := T; with R0 = R1 + (-1,0). Aligned, both statements compute
// over R1, so they fuse and T contracts, as zplc and alfd find.
TEST(TryCompileTest, TargetOffsetIsAlignedBeforeFusion) {
  ir::Program P("target_offset_fuses");
  const ir::Region *R0 = P.internRegion(ir::Region({1, 1}, {8, 8}));
  const ir::Region *R1 = P.internRegion(ir::Region({2, 1}, {9, 8}));
  ir::ArraySymbol *A = P.makeArray("A", 2);
  ir::ArraySymbol *B = P.makeArray("B", 2);
  ir::ArraySymbol *T = P.makeUserTemp("T", 2);
  P.assign(R0, T, ir::Offset({1, 0}), ir::aref(A, ir::Offset({1, 0})));
  P.assign(R1, B, ir::aref(T));
  Pipeline PL(P);
  CompileStatus St = PL.tryCompile(CompileRequest{Strategy::C2});
  ASSERT_TRUE(St.ok()) << St.Message;
  EXPECT_EQ(St.Artifact->NumClusters, 1u);
  EXPECT_EQ(St.Artifact->ContractedNames, std::vector<std::string>{"T"});

  CompileStatus Base = PL.tryCompile(CompileRequest{Strategy::Baseline});
  ASSERT_TRUE(Base.ok()) << Base.Message;
  RunResult Want = Base.Artifact->run(7);
  RunResult Got = St.Artifact->run(7);
  EXPECT_EQ(Got.LiveOut, Want.LiveOut);
  EXPECT_EQ(Got.ScalarsOut, Want.ScalarsOut);
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

//===- tests/CEmitterTest.cpp - C backend end-to-end tests --------------------===//
//
// Validates the C emitter end to end: the emitted translation unit is
// compiled with the system C compiler, executed, and its checksums are
// compared against the ALF interpreter on identical seeded inputs.
//
//===----------------------------------------------------------------------===//

#include "scalarize/CEmitter.h"

#include "analysis/ASDG.h"
#include "benchprogs/Benchmarks.h"
#include "exec/Interpreter.h"
#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "scalarize/Scalarize.h"
#include "support/StringUtil.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

using namespace alf;
using namespace alf::analysis;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::lir;
using namespace alf::xform;

namespace {

bool haveCC() {
  static int Have = -1;
  if (Have < 0)
    Have = std::system("cc --version > /dev/null 2>&1") == 0 ? 1 : 0;
  return Have == 1;
}

/// Compiles and runs the emitted harness; returns the printed
/// name -> checksum map.
std::map<std::string, double> runEmitted(const LoopProgram &LP,
                                         uint64_t Seed) {
  std::string Dir = ::testing::TempDir();
  static int Counter = 0;
  std::string Base = Dir + "/alf_emit_" + std::to_string(getpid()) + "_" +
                     std::to_string(Counter++);
  std::string SrcPath = Base + ".c";
  std::string ExePath = Base + ".exe";

  {
    std::ofstream Out(SrcPath);
    Out << scalarize::emitCWithHarness(LP, "kernel", Seed);
  }
  std::string Compile = "cc -std=c99 -O1 -ffp-contract=off -o " + ExePath +
                        " " + SrcPath + " -lm 2>&1";
  EXPECT_EQ(std::system(Compile.c_str()), 0) << "compilation failed";

  std::map<std::string, double> Result;
  FILE *Pipe = popen(ExePath.c_str(), "r");
  EXPECT_NE(Pipe, nullptr);
  char Name[256];
  double Value;
  while (Pipe && std::fscanf(Pipe, "%255s %lf", Name, &Value) == 2)
    Result[Name] = Value;
  if (Pipe)
    pclose(Pipe);
  std::remove(SrcPath.c_str());
  std::remove(ExePath.c_str());
  return Result;
}

/// Interpreter-side checksums in the same format.
std::map<std::string, double> interpreterChecksums(const LoopProgram &LP,
                                                   uint64_t Seed) {
  RunResult R = run(LP, Seed);
  std::map<std::string, double> Result;
  for (const auto &[Name, Data] : R.LiveOut) {
    double Sum = 0.0;
    for (double V : Data)
      Sum += V;
    Result[Name] = Sum;
  }
  for (const auto &[Name, V] : R.ScalarsOut)
    Result[Name] = V;
  return Result;
}

void expectMatch(const std::map<std::string, double> &FromC,
                 const std::map<std::string, double> &FromInterp) {
  ASSERT_EQ(FromC.size(), FromInterp.size());
  for (const auto &[Name, Expected] : FromInterp) {
    auto It = FromC.find(Name);
    ASSERT_NE(It, FromC.end()) << "missing checksum for " << Name;
    double Tol = 1e-9 * (std::fabs(Expected) + 1.0);
    EXPECT_NEAR(It->second, Expected, Tol) << Name;
  }
}

void checkProgram(Program &P, Strategy S, uint64_t Seed) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler";
  normalizeProgram(P);
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarizeWithStrategy(G, S);
  expectMatch(runEmitted(LP, Seed), interpreterChecksums(LP, Seed));
}

TEST(CEmitterTest, EmitsCompilableSource) {
  Program P("t");
  const Region *R = P.regionFromExtents({4, 4});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  P.assign(R, B, add(aref(A, {-1, 0}), cst(1.0)));
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarizeWithStrategy(G, Strategy::Baseline);
  std::string Src = scalarize::emitC(LP, "kernel");
  EXPECT_NE(Src.find("void kernel(double *A_A, double *A_B)"),
            std::string::npos);
  EXPECT_NE(Src.find("A_B["), std::string::npos);
  EXPECT_NE(Src.find("#include <math.h>"), std::string::npos);
}

TEST(CEmitterTest, SimpleAssignMatchesInterpreter) {
  Program P("simple");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  ScalarSymbol *Alpha = P.makeScalar("alpha");
  P.assign(R, B, add(mul(aref(A), sref(Alpha)), aref(A, {-1, 1})));
  checkProgram(P, Strategy::Baseline, 7);
}

TEST(CEmitterTest, ContractionMatchesInterpreter) {
  Program P("contract");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *T = P.makeUserTemp("T", 2);
  ArraySymbol *C = P.makeArray("C", 2);
  P.assign(R, T, esqrt(add(aref(A), cst(2.0))));
  P.assign(R, C, div(aref(T), aref(A)));
  checkProgram(P, Strategy::C2, 11);
}

TEST(CEmitterTest, SelfUpdateWithReversedLoop) {
  Program P("reversed");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  P.assign(R, A, add(aref(A, {-1, 0}), aref(A, {-1, 0})));
  checkProgram(P, Strategy::C2, 13);
}

TEST(CEmitterTest, ReductionsMatchInterpreter) {
  Program P("reduce");
  const Region *R = P.regionFromExtents({16});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *T = P.makeUserTemp("T", 1);
  ScalarSymbol *Sum = P.makeScalar("sum");
  ScalarSymbol *Hi = P.makeScalar("hi");
  P.assign(R, T, mul(aref(A), aref(A)));
  P.reduce(R, Sum, ReduceStmt::ReduceOpKind::Sum, aref(T));
  P.reduce(R, Hi, ReduceStmt::ReduceOpKind::Max, aref(A));
  checkProgram(P, Strategy::C2, 17);
}

TEST(CEmitterTest, OpaqueSemanticsMatchInterpreter) {
  Program P("opaque");
  const Region *R = P.regionFromExtents({6, 6});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  ScalarSymbol *S = P.makeScalar("s");
  P.assign(R, B, mul(aref(A), cst(0.5)));
  P.opaque("mix", R, {B}, {A}, {}, {S}, 1.0, false);
  checkProgram(P, Strategy::Baseline, 19);
}

TEST(CEmitterTest, TomcatvBenchmarkMatches) {
  auto P = benchprogs::buildTomcatv(12);
  checkProgram(*P, Strategy::C2F3, 23);
}

TEST(CEmitterTest, EPBenchmarkMatches) {
  auto P = benchprogs::buildEP(64);
  checkProgram(*P, Strategy::C2, 29);
}

TEST(CEmitterTest, PartialContractionModularBuffers) {
  if (!haveCC())
    GTEST_SKIP() << "no system C compiler";
  Program P("partial");
  const Region *R = P.regionFromExtents({10, 10});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *T = P.makeUserTemp("T", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  P.assign(R, T, add(aref(A), cst(1.0)));
  P.assign(R, B, add(aref(T, {-1, 0}), aref(T)));
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarizeWithPartialContraction(
      G, Strategy::C2, SequentialDims::dims({0}));
  ASSERT_EQ(LP.partialPlans().size(), 1u);
  std::string Src = scalarize::emitCWithHarness(LP, "kernel", 31);
  EXPECT_NE(Src.find("% 2"), std::string::npos)
      << "expected modular rolling-buffer indexing";
  expectMatch(runEmitted(LP, 31), interpreterChecksums(LP, 31));
}

TEST(CEmitterTest, OverflowingStrideIsAnEmissionError) {
  // 2^32 in each of three dimensions (tests/inputs/stride_wrap.zpl): the
  // first dimension's row-major stride, 2^64, wraps int64_t. Emission
  // reports it instead of rendering wrapped subscripts, so the JIT falls
  // back and allocation reports the resource limit.
  const int64_t E = int64_t(1) << 32;
  Program P("stride_wrap");
  const Region *R = P.regionFromExtents({E, E, E});
  ArraySymbol *A = P.makeArray("a", 3);
  ArraySymbol *B = P.makeArray("b", 3);
  P.assign(R, B, add(aref(A), cst(1.0)));
  ASDG G = ASDG::build(P);
  auto LP = scalarize::scalarizeWithStrategy(G, Strategy::C2);
  scalarize::CModule M = scalarize::emitCModule(LP, "kernel");
  EXPECT_FALSE(M.ok());
  EXPECT_NE(M.Error.find("overflows"), std::string::npos) << M.Error;
  EXPECT_TRUE(M.Source.empty());
}

class CEmitterRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CEmitterRandom, RandomProgramsMatchInterpreter) {
  GeneratorConfig Cfg;
  Cfg.Seed = GetParam();
  Cfg.NumStmts = 6 + static_cast<unsigned>(GetParam() % 5);
  Cfg.Extent = 6;
  auto P = generateRandomProgram(Cfg);
  checkProgram(*P, GetParam() % 2 ? Strategy::C2F3 : Strategy::Baseline,
               GetParam() * 31);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CEmitterRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

} // namespace

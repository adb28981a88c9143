//===- tests/NormalFormTest.cpp - One normal-form rule set -----------------===//
//
// ir::verifyProgram is the one definition of a well-formed program: the
// tryCompile gate runs it, and verification pass 1 (verify::verifyStructure)
// reports each of its violations as a "structure" finding. Each test
// feeds one rule's violation to both and expects the same message from
// each.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "ir/Program.h"
#include "ir/Verifier.h"
#include "verify/Verify.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

using namespace alf;
using namespace alf::ir;

namespace {

constexpr int64_t Int64Max = std::numeric_limits<int64_t>::max();

/// Both rule walks reject \p P, each with a message containing \p Needle.
void expectBothReject(const Program &P, const std::string &Needle) {
  std::vector<std::string> Errors = verifyProgram(P);
  bool InGate = false;
  for (const std::string &E : Errors)
    InGate |= E.find(Needle) != std::string::npos;
  EXPECT_TRUE(InGate) << "ir::verifyProgram lacks \"" << Needle << "\"";

  verify::VerifyReport Rep = verify::verifyStructure(P);
  bool InPass1 = false;
  for (const verify::VerifyFinding &F : Rep.Findings)
    InPass1 |= F.Pass == "structure" &&
               F.Message.find(Needle) != std::string::npos;
  EXPECT_TRUE(InPass1) << "verifyStructure lacks \"" << Needle << "\":\n"
                       << Rep.str();
  EXPECT_EQ(Rep.Findings.size(), Errors.size()) << Rep.str();
}

TEST(NormalFormTest, NullRegions) {
  Program P("null");
  ArraySymbol *A = P.makeArray("A", 1);
  ScalarSymbol *S = P.makeScalar("s");
  P.assign(nullptr, A, cst(1.0));
  P.reduce(nullptr, S, ReduceStmt::ReduceOpKind::Sum, aref(A));
  expectBothReject(P, "S0: normalized statement without a region");
  expectBothReject(P, "S1: reduction without a region");
}

TEST(NormalFormTest, RankZeroRegions) {
  Program P("rank0");
  const Region *R0 = P.internRegion(Region());
  ArraySymbol *A = P.makeArray("A", 0);
  ScalarSymbol *S = P.makeScalar("s");
  P.assign(R0, A, cst(1.0));
  P.reduce(R0, S, ReduceStmt::ReduceOpKind::Sum, aref(A));
  expectBothReject(P, "S0: region of rank 0");
  expectBothReject(P, "S1: region of rank 0");
}

TEST(NormalFormTest, EmptyRegionDimension) {
#ifdef NDEBUG
  Program P("empty");
  const Region *E = P.internRegion(Region({1, 5}, {8, 4}));
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  ScalarSymbol *S = P.makeScalar("s");
  P.assign(E, A, aref(B));
  P.reduce(E, S, ReduceStmt::ReduceOpKind::Sum, aref(A));
  expectBothReject(P, "S0: empty region dimension 1 (5..4)");
  expectBothReject(P, "S1: empty region dimension 1 (5..4)");
#else
  GTEST_SKIP() << "the Region constructor asserts nonempty dimensions";
#endif
}

TEST(NormalFormTest, CommDirectionRank) {
  Program P("comm");
  ArraySymbol *A = P.makeArray("A", 2);
  P.comm(A, Offset({1}));
  expectBothReject(P, "S0: comm direction rank 1 != array A rank 2");
}

TEST(NormalFormTest, ExtentOverflow) {
  Program P("extent");
  const Region *R = P.internRegion(Region({-Int64Max}, {Int64Max}));
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ScalarSymbol *S = P.makeScalar("s");
  P.assign(R, A, aref(B));
  P.reduce(R, S, ReduceStmt::ReduceOpKind::Sum, aref(A));
  expectBothReject(P, "S0: region [-9223372036854775807..9223372036854775807] "
                      "has an extent that does not fit int64_t");
  expectBothReject(P, "S1: region [-9223372036854775807..9223372036854775807] "
                      "has an extent that does not fit int64_t");
}

TEST(NormalFormTest, ShiftOverflow) {
  Program P("shift");
  const Region *R = P.internRegion(Region({1}, {Int64Max}));
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ScalarSymbol *S = P.makeScalar("s");
  P.assign(R, A, Offset({1}), aref(B));
  P.reduce(R, S, ReduceStmt::ReduceOpKind::Sum, aref(A, {1}));
  expectBothReject(P, "S0: A@(1) reaches an index that does not fit int64_t");
  expectBothReject(P, "S1: A@(1) reaches an index that does not fit int64_t");
}

TEST(NormalFormTest, OffsetOutsideTheUDVRange) {
  // 2^30 - 1 is the largest magnitude whose differences all fit int32_t.
  Program P("udv");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);
  ArraySymbol *B = P.makeArray("B", 1);
  ArraySymbol *C = P.makeArray("C", 1);
  ScalarSymbol *S = P.makeScalar("s");
  P.assign(R, A, aref(C, {1073741823}));
  P.assign(R, B, aref(A, {-1073741823}));
  EXPECT_TRUE(isWellFormed(P));
  P.assign(R, C, aref(A, {-1073741824}));
  P.reduce(R, S, ReduceStmt::ReduceOpKind::Sum, aref(B, {1073741824}));
  expectBothReject(P, "S2: A@(-1073741824) has an offset element outside");
  expectBothReject(P, "S3: B@(1073741824) has an offset element outside");
}

TEST(NormalFormTest, TryCompileGatesEveryRule) {
  // A comm direction of the wrong rank used to pass the gate and reach
  // the ASDG build; now the gate rejects it as an invalid program.
  // Alignment and normalization leave communication statements alone.
  Program P("comm");
  ArraySymbol *A = P.makeArray("A", 2);
  P.comm(A, Offset({1}));
  driver::Pipeline PL(P);
  driver::CompileStatus St = PL.tryCompile(driver::CompileRequest());
  EXPECT_EQ(St.Code, driver::CompileCode::InvalidProgram);
  EXPECT_EQ(St.Message, "S0: comm direction rank 1 != array A rank 2");
}

} // namespace

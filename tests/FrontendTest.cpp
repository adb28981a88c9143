//===- tests/FrontendTest.cpp - Lexer and parser tests -----------------------===//

#include "frontend/Lexer.h"
#include "frontend/Parser.h"

#include "analysis/ASDG.h"
#include "ir/Normalize.h"
#include "ir/Verifier.h"
#include "support/Casting.h"
#include "xform/Strategy.h"

#include <gtest/gtest.h>

#include <limits>

using namespace alf;
using namespace alf::frontend;
using namespace alf::ir;

namespace {

TEST(LexerTest, BasicTokens) {
  auto Tokens = tokenize("region R : [1..8, 1..8];");
  ASSERT_GE(Tokens.size(), 12u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::KwRegion);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Ident);
  EXPECT_EQ(Tokens[1].Text, "R");
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Colon);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::LBracket);
  EXPECT_EQ(Tokens[4].Kind, TokenKind::Number);
  EXPECT_EQ(Tokens[5].Kind, TokenKind::DotDot);
  EXPECT_EQ(Tokens.back().Kind, TokenKind::Eof);
}

TEST(LexerTest, NumbersAndRanges) {
  auto Tokens = tokenize("1.5 2..3 0.25");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Number);
  EXPECT_DOUBLE_EQ(Tokens[0].NumValue, 1.5);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Number);
  EXPECT_DOUBLE_EQ(Tokens[1].NumValue, 2.0);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::DotDot);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::Number);
  EXPECT_EQ(Tokens[4].Kind, TokenKind::Number);
  EXPECT_DOUBLE_EQ(Tokens[4].NumValue, 0.25);
}

TEST(LexerTest, OperatorsAndComments) {
  auto Tokens = tokenize(":= @ << -- a comment\n+ - * /");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Assign);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::At);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Reduce);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::Plus);
  EXPECT_EQ(Tokens[4].Kind, TokenKind::Minus);
  EXPECT_EQ(Tokens[5].Kind, TokenKind::Star);
  EXPECT_EQ(Tokens[6].Kind, TokenKind::Slash);
}

TEST(LexerTest, PositionsTracked) {
  auto Tokens = tokenize("a\n  b");
  EXPECT_EQ(Tokens[0].Line, 1u);
  EXPECT_EQ(Tokens[0].Col, 1u);
  EXPECT_EQ(Tokens[1].Line, 2u);
  EXPECT_EQ(Tokens[1].Col, 3u);
}

const char *StencilSource = R"(
-- Jacobi-style stencil with a user temporary.
region R : [1..16, 1..16];
array A, B : R;
array T : R temp;
scalar total;

[R] T := (A@(-1,0) + A@(1,0) + A@(0,-1) + A@(0,1)) * 0.25;
[R] B := T + A * 0.5;
[R] total := + << T;
)";

TEST(ParserTest, ParsesStencilProgram) {
  ParseResult Result = parseProgram(StencilSource, "stencil");
  ASSERT_TRUE(Result.succeeded())
      << (Result.Errors.empty() ? "" : Result.Errors.front());
  Program &P = *Result.Prog;
  EXPECT_TRUE(isWellFormed(P));
  ASSERT_EQ(P.numStmts(), 3u);
  EXPECT_EQ(P.getStmt(0)->str(),
            "[1..16,1..16] T := ((((A@(-1,0) + A@(1,0)) + A@(0,-1)) + "
            "A@(0,1)) * 0.25);");
  EXPECT_EQ(P.getStmt(2)->str(), "[1..16,1..16] total := +<< T;");

  const auto *T = dyn_cast<ArraySymbol>(P.findSymbol("T"));
  ASSERT_NE(T, nullptr);
  EXPECT_FALSE(T->isLiveOut());
  const auto *A = dyn_cast<ArraySymbol>(P.findSymbol("A"));
  EXPECT_TRUE(A->isLiveOut());
}

TEST(ParserTest, ParsedProgramOptimizes) {
  ParseResult Result = parseProgram(StencilSource);
  ASSERT_TRUE(Result.succeeded());
  normalizeProgram(*Result.Prog);
  analysis::ASDG G = analysis::ASDG::build(*Result.Prog);
  xform::StrategyResult SR = xform::applyStrategy(G, xform::Strategy::C2);
  ASSERT_EQ(SR.Contracted.size(), 1u);
  EXPECT_EQ(SR.Contracted[0]->getName(), "T");
}

TEST(ParserTest, SelfUpdateAndBuiltins) {
  ParseResult Result = parseProgram(R"(
region R : [1..8];
array A : R;
[R] A := sqrt(abs(A@(-1))) + min(A@(1), 2.0);
)");
  ASSERT_TRUE(Result.succeeded())
      << (Result.Errors.empty() ? "" : Result.Errors.front());
  // Reads and writes A: needs normalization.
  EXPECT_FALSE(isWellFormed(*Result.Prog));
  EXPECT_EQ(normalizeProgram(*Result.Prog), 1u);
  EXPECT_TRUE(isWellFormed(*Result.Prog));
}

TEST(ParserTest, LHSOffset) {
  ParseResult Result = parseProgram(R"(
region R : [1..8];
array A, B : R;
[R] A@(1) := B * 2;
)");
  ASSERT_TRUE(Result.succeeded());
  EXPECT_EQ(Result.Prog->getStmt(0)->str(), "[1..8] A@(1) := (B * 2);");
}

TEST(ParserTest, MinMaxReductions) {
  ParseResult Result = parseProgram(R"(
region R : [1..8];
array A : R;
scalar lo, hi;
[R] lo := min << A;
[R] hi := max << A;
)");
  ASSERT_TRUE(Result.succeeded());
  EXPECT_EQ(Result.Prog->getStmt(0)->str(), "[1..8] lo := min<< A;");
  EXPECT_EQ(Result.Prog->getStmt(1)->str(), "[1..8] hi := max<< A;");
}

TEST(ParserTest, NegativeOffsetsAndPrecedence) {
  ParseResult Result = parseProgram(R"(
region R : [1..4, 1..4];
array A, B : R;
[R] B := A + A@(-1,-1) * 2 - 1;
)");
  ASSERT_TRUE(Result.succeeded());
  EXPECT_EQ(Result.Prog->getStmt(0)->str(),
            "[1..4,1..4] B := ((A + (A@(-1,-1) * 2)) - 1);");
}

TEST(ParserTest, NamedDirections) {
  ParseResult Result = parseProgram(R"(
region R : [1..8, 1..8];
direction north : (-1, 0);
direction east  : (0, 1);
array A, B : R;
[R] B := A@north + A@east * 0.5;
)");
  ASSERT_TRUE(Result.succeeded())
      << (Result.Errors.empty() ? "" : Result.Errors.front());
  EXPECT_EQ(Result.Prog->getStmt(0)->str(),
            "[1..8,1..8] B := (A@(-1,0) + (A@(0,1) * 0.5));");
}

TEST(ParserTest, DirectionOnAssignmentTarget) {
  ParseResult Result = parseProgram(R"(
region R : [1..8];
direction left : (-1);
array A, B : R;
[R] A@left := B;
)");
  ASSERT_TRUE(Result.succeeded());
  EXPECT_EQ(Result.Prog->getStmt(0)->str(), "[1..8] A@(-1) := B;");
}

TEST(ParserTest, ReportsUnknownDirection) {
  ParseResult Result = parseProgram(R"(
region R : [1..8];
array A, B : R;
[R] B := A@nowhere;
)");
  EXPECT_FALSE(Result.succeeded());
  EXPECT_NE(Result.Errors[0].find("unknown direction nowhere"),
            std::string::npos);
}

TEST(ParserTest, ReportsDirectionRankMismatch) {
  ParseResult Result = parseProgram(R"(
region R : [1..8];
direction north : (-1, 0);
array A, B : R;
[R] B := A@north;
)");
  EXPECT_FALSE(Result.succeeded());
  EXPECT_NE(Result.Errors[0].find("direction north has 2 elements"),
            std::string::npos);
}

TEST(ParserTest, ReportsUnknownSymbol) {
  ParseResult Result = parseProgram(R"(
region R : [1..8];
array A : R;
[R] A := Bogus + 1;
)");
  EXPECT_FALSE(Result.succeeded());
  ASSERT_FALSE(Result.Errors.empty());
  EXPECT_NE(Result.Errors[0].find("unknown symbol Bogus"),
            std::string::npos);
}

TEST(ParserTest, ReportsRankMismatch) {
  ParseResult Result = parseProgram(R"(
region R : [1..8];
array A : R;
[R] A := A@(1,1);
)");
  EXPECT_FALSE(Result.succeeded());
  ASSERT_FALSE(Result.Errors.empty());
  EXPECT_NE(Result.Errors[0].find("offset has 2 elements"),
            std::string::npos);
}

TEST(ParserTest, ReportsScalarAssignWithoutReduce) {
  ParseResult Result = parseProgram(R"(
region R : [1..8];
array A : R;
scalar s;
[R] s := A;
)");
  EXPECT_FALSE(Result.succeeded());
  ASSERT_FALSE(Result.Errors.empty());
  EXPECT_NE(Result.Errors[0].find("use a reduction"), std::string::npos);
}

TEST(ParserTest, ReportsDuplicateDeclarations) {
  ParseResult Result = parseProgram(R"(
region R : [1..8];
region R : [1..9];
)");
  EXPECT_FALSE(Result.succeeded());
  EXPECT_NE(Result.Errors[0].find("already declared"), std::string::npos);
}

TEST(ParserTest, ErrorsCarryLineAndColumnPositions) {
  // The zplc driver prepends the file name to form "file:line:col: error:
  // message" diagnostics, so every parser error must start with a
  // machine-readable "line:col: " position.
  ParseResult Result = parseProgram(R"(
region R : [1..8];
array A : R;
[R] A := A +* 2;
)");
  EXPECT_FALSE(Result.succeeded());
  ASSERT_FALSE(Result.Errors.empty());
  const std::string &E = Result.Errors[0];
  size_t C1 = E.find(':');
  ASSERT_NE(C1, std::string::npos) << E;
  size_t C2 = E.find(": ", C1 + 1);
  ASSERT_NE(C2, std::string::npos) << E;
  EXPECT_EQ(E.substr(0, C1), "4") << E; // the bad token's line
  for (size_t I = C1 + 1; I < C2; ++I)
    EXPECT_TRUE(isdigit(E[I])) << E;
}

TEST(ParserTest, RecoversAndReportsMultipleErrors) {
  ParseResult Result = parseProgram(R"(
region R : [1..8];
array A : Bogus;
array B : R;
[R] B := Missing;
)");
  EXPECT_FALSE(Result.succeeded());
  EXPECT_GE(Result.Errors.size(), 2u);
}

TEST(ParserTest, ErrorsCarryPositions) {
  ParseResult Result = parseProgram("region R : [1..8]\narray A : R;");
  EXPECT_FALSE(Result.succeeded());
  ASSERT_FALSE(Result.Errors.empty());
  // The missing ';' is discovered at line 2.
  EXPECT_EQ(Result.Errors[0].substr(0, 2), "2:");
}

// Integer literals come from their spelling, not the lexer's double:
// the largest int64_t bound survives exactly (it used to round to 2^63
// and wrap to "empty range 1..-9223372036854775808"), and anything past
// it, or past int32_t in an offset, is a diagnostic at the literal.
TEST(ParserTest, IntegerLiteralsAreExactOrRejected) {
  ParseResult Max = parseProgram(
      "region G : [1..9223372036854775807];\narray A : G;\n[G] A := 1;\n");
  ASSERT_TRUE(Max.succeeded()) << ::testing::PrintToString(Max.Errors);
  const auto *S = dyn_cast<NormalizedStmt>(Max.Prog->getStmt(0));
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->getRegion()->hi(0), std::numeric_limits<int64_t>::max());

  ParseResult Over = parseProgram("region G : [1..9223372036854775808];");
  EXPECT_FALSE(Over.succeeded());
  ASSERT_FALSE(Over.Errors.empty());
  EXPECT_EQ(Over.Errors[0], "1:16: range upper bound 9223372036854775808 "
                            "is out of range");

  ParseResult Offset = parseProgram(
      "region R : [1..8];\narray A : R;\n[R] A := A@(4294967296);\n");
  EXPECT_FALSE(Offset.succeeded());
  ASSERT_FALSE(Offset.Errors.empty());
  EXPECT_EQ(Offset.Errors[0],
            "3:13: offset element 4294967296 is out of range");
}

// A fractional bound used to truncate silently: [1..4.5] ran 4 elements.
TEST(ParserTest, FractionalRangeBoundIsRejected) {
  ParseResult R = parseProgram("region R : [1..4.5];");
  EXPECT_FALSE(R.succeeded());
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_EQ(R.Errors[0], "1:16: range upper bound 4.5 is not an integer");

  // A zero fraction still spells an integer.
  EXPECT_TRUE(
      parseProgram("region R : [1..4.0];\narray A : R;\n[R] A := 1;\n")
          .succeeded());
}

} // namespace

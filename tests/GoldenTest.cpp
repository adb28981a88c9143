//===- tests/GoldenTest.cpp - Pipeline snapshot tests ------------------------===//
//
// Full-text snapshots of the pipeline's output on the paper's worked
// examples. These pin the user-visible behaviour (statement ordering,
// loop structures, contraction rewriting, C emission) so regressions
// show up as readable diffs.
//
//===----------------------------------------------------------------------===//

#include "analysis/ASDG.h"
#include "frontend/Parser.h"
#include "ir/Normalize.h"
#include "scalarize/CEmitter.h"
#include "scalarize/Scalarize.h"
#include "xform/Strategy.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

namespace {

TEST(GoldenTest, Figure1TomcatvFragmentUnderC2) {
  // The paper's Figure 1: R contracts to the scalar s (here s_R), the
  // self-updates' compiler temporaries contract, and everything runs in
  // one nest.
  auto P = tp::makeTomcatvFragment(4);
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::C2));
  EXPECT_EQ(LP.str(),
            R"(// scalarized tomcatv-fragment
double s_R; // contracted R
double s__T1; // contracted _T1
double s__T2; // contracted _T2
for (i1 = 1; i1 <= 4; ++i1)
  {
    s_R = (AA[i1] * Dprev[i1]);
    D[i1] = recip((DD[i1] - (AAprev[i1] * s_R)));
    s__T1 = (Rx[i1] - (Rxprev[i1] * s_R));
    Rx[i1] = s__T1;
    s__T2 = (Ry[i1] - (Ryprev[i1] * s_R));
    Ry[i1] = s__T2;
  }
)");
}

TEST(GoldenTest, Figure2ScalarizationUnderBaseline) {
  auto P = tp::makeFigure2(3, 3);
  ASDG G = ASDG::build(*P);
  auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::Baseline));
  EXPECT_EQ(LP.str(),
            R"(// scalarized figure2
for (i1 = 1; i1 <= 3; ++i1)
  for (i2 = 1; i2 <= 3; ++i2)
    {
      A[i1][i2] = B[i1-1][i2];
    }
for (i1 = 1; i1 <= 3; ++i1)
  for (i2 = 1; i2 <= 3; ++i2)
    {
      C[i1][i2] = A[i1][i2-1];
    }
for (i1 = 1; i1 <= 3; ++i1)
  for (i2 = 1; i2 <= 3; ++i2)
    {
      B[i1][i2] = A[i1-1][i2+1];
    }
)");
  // Each statement is its own singleton nest, so no loop carries a
  // dependence and every nest takes the row-major identity structure
  // ("there are no constraints on the structure" of unconstrained
  // nests, paper section 2.2).
}

TEST(GoldenTest, Figure2FusedStatementsOneAndThree) {
  // The paper's Figure 2(c) puts statements 1 and 3 in one loop nest
  // with loop structure vector (-2,-1). Under Definition 5 proper this
  // fusion is *illegal* — the flow dependence on A carries distance
  // (1,-1), and condition (ii) exists precisely so that "a loop carried
  // flow dependence will not inhibit parallelism". Figure 2(c) shows
  // what a sequential scalar compiler may do; the sequential-dimension
  // relaxation recovers it.
  auto P = tp::makeFigure2(3, 3);
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  EXPECT_FALSE(isLegalFusion(FP, {0, 2}));
  ASSERT_TRUE(
      isLegalFusionRelaxed(FP, {0, 2}, SequentialDims::dims({0, 1})));
  FP.merge({0, 2});
  StrategyResult SR;
  SR.Partition = std::move(FP);
  auto LP = scalarize::scalarize(G, SR);
  std::string Text = LP.str();
  EXPECT_NE(Text.find(R"(for (i2 = 3; i2 >= 1; --i2)
  for (i1 = 3; i1 >= 1; --i1)
    {
      A[i1][i2] = B[i1-1][i2];
      B[i1][i2] = A[i1-1][i2+1];
    })"),
            std::string::npos)
      << Text;
}

TEST(GoldenTest, MiniZplThroughCBackend) {
  frontend::ParseResult Result = frontend::parseProgram(R"(
region R : [1..2, 1..2];
array A, B : R;
array T : R temp;
[R] T := A * 2;
[R] B := T + 1;
)");
  ASSERT_TRUE(Result.succeeded());
  ASDG G = ASDG::build(*Result.Prog);
  auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::C2));
  EXPECT_EQ(scalarize::emitC(LP, "kernel").Source,
            R"(/* generated by ALF from program 'main' */
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>

static double alf_sqrt(double v) { return sqrt(fabs(v)); }
static double alf_exp(double v) { return exp(fmin(v, 40.0)); }
static double alf_log(double v) { return log(fabs(v) + 1e-12); }
static double alf_recip(double v) { return 1.0 / (v + (v >= 0 ? 1e-12 : -1e-12)); }
static double alf_div(double l, double r) { return l / (r + (r >= 0 ? 1e-12 : -1e-12)); }

void kernel(double *A_A, double *A_B) {
  long i1, i2;
  double s_T = 0.0;
  for (i1 = 1; i1 <= 2; ++i1)
    for (i2 = 1; i2 <= 2; ++i2)
      {
        s_T = (A_A[(i1+0 - (1))*2 + (i2+0 - (1))] * 2);
        A_B[(i1+0 - (1))*2 + (i2+0 - (1))] = (s_T + 1);
      }
}
)");
}

} // namespace

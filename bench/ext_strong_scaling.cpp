//===- bench/ext_strong_scaling.cpp - Strong-scaling extension ---------------===//
//
// The paper's Figures 9-11 scale the problem with the processor count
// (weak scaling) "so that we may neutralize the effect of communication
// masking all other performance characteristics". This extension runs
// the complementary experiment the paper deliberately avoided: a fixed
// global problem divided across more processors (strong scaling), where
// per-processor compute shrinks while message latencies do not — so the
// relative benefit of contraction decays with p, exactly the masking
// the paper describes.
//
//===----------------------------------------------------------------------===//

#include "FigureCommon.h"

#include "support/StringUtil.h"
#include "support/TextTable.h"

#include <cmath>
#include <iostream>

using namespace alf;
using namespace alf::exec;
using namespace alf::machine;
using namespace alf::xform;

int main() {
  const int64_t GlobalN = 96;
  MachineDesc M = crayT3E();

  std::cout << "Extension: strong scaling (Tomcatv, fixed global "
            << GlobalN << "x" << GlobalN << ", modeled Cray T3E)\n\n";

  TextTable Table;
  Table.setHeader({"p", "per-proc N", "baseline (ms)", "c2 (ms)",
                   "comm share (c2)", "c2 improvement"});

  for (unsigned Procs : {1u, 4u, 16u, 64u}) {
    int64_t LocalN = GlobalN / static_cast<int64_t>(
                                   std::lround(std::sqrt(double(Procs))));
    auto P = benchprogs::buildTomcatv(LocalN);
    driver::PipelineOptions Opts;
    Opts.Comm = driver::CommPolicy::LoopLevel;
    driver::Pipeline PL(*P, Opts);
    ProcGrid Grid = ProcGrid::make(Procs, 2);

    driver::CompileStatus BaseSt =
        figures::compileOrExit(PL, Strategy::Baseline);
    PerfStats SB = simulate(BaseSt.Artifact->LP, M, Grid);
    driver::CompileStatus C2St = figures::compileOrExit(PL, Strategy::C2);
    PerfStats SC = simulate(C2St.Artifact->LP, M, Grid);

    Table.addRow(
        {formatString("%u", Procs),
         formatString("%lld", static_cast<long long>(LocalN)),
         formatString("%.3f", SB.totalNs() / 1e6),
         formatString("%.3f", SC.totalNs() / 1e6),
         formatString("%.1f%%", 100.0 * SC.CommNs / SC.totalNs()),
         formatString("%+.1f%%", percentImprovement(SB, SC))});
  }
  Table.print(std::cout);
  std::cout << "\n(As communication's share of the shrinking local work "
               "grows, the contraction benefit\ndecays — the masking "
               "effect the paper's weak-scaling methodology avoids.)\n";
  return 0;
}

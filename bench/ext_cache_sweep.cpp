//===- bench/ext_cache_sweep.cpp - Cache-size sensitivity ablation -----------===//
//
// Where does contraction's runtime benefit come from? The paper
// attributes it to temporal locality ("the elimination of a large
// portion of the compiler and user arrays by contraction drastically
// improves temporal locality"). Sweeping the first-level cache size on
// a fixed benchmark makes the mechanism visible: small caches cannot
// hold the temporaries between producer and consumer nests, so
// contraction (which moves the value into a register) wins big; once
// the cache holds the whole working set, the remaining benefit is just
// the removed loads/stores.
//
//===----------------------------------------------------------------------===//

#include "FigureCommon.h"

#include "support/StringUtil.h"
#include "support/TextTable.h"

#include <iostream>

using namespace alf;
using namespace alf::exec;
using namespace alf::machine;
using namespace alf::xform;

int main() {
  std::cout << "Ablation: contraction benefit vs. first-level cache size "
               "(Tomcatv, 48x48 per processor)\n\n";

  auto P = benchprogs::buildTomcatv(48);
  driver::Pipeline PL(*P);
  driver::CompileStatus BaseSt = figures::compileOrExit(PL, Strategy::Baseline);
  driver::CompileStatus C2St = figures::compileOrExit(PL, Strategy::C2);
  const lir::LoopProgram &Baseline = BaseSt.Artifact->LP;
  const lir::LoopProgram &C2 = C2St.Artifact->LP;

  TextTable Table;
  Table.setHeader({"L1 size", "baseline miss", "c2 miss", "baseline (ms)",
                   "c2 (ms)", "c2 improvement"});

  ProcGrid Grid = ProcGrid::make(1, 2);
  for (unsigned KB : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    MachineDesc M = crayT3E();
    M.L1 = CacheConfig{static_cast<uint64_t>(KB) * 1024, 32, 1};
    M.L2 = std::nullopt; // isolate the first-level effect
    PerfStats SB = simulate(Baseline, M, Grid);
    PerfStats SC = simulate(C2, M, Grid);
    Table.addRow({formatString("%u KB", KB),
                  formatString("%.1f%%", 100 * SB.l1MissRatio()),
                  formatString("%.1f%%", 100 * SC.l1MissRatio()),
                  formatString("%.2f", SB.totalNs() / 1e6),
                  formatString("%.2f", SC.totalNs() / 1e6),
                  formatString("%+.1f%%", percentImprovement(SB, SC))});
  }
  Table.print(std::cout);
  std::cout << "\n(The 1998 machines sit at the left edge of this sweep — "
               "8 KB on the T3E and Paragon —\nwhich is why the paper "
               "measures such large contraction wins.)\n";
  return 0;
}

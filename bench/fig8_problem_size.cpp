//===- bench/fig8_problem_size.cpp - Paper Figure 8 --------------------------===//
//
// Reproduces Figure 8: "Effect of contraction on maximum achievable
// problem size". For each benchmark: the peak simultaneously-live array
// counts lb (before) and la (after contraction), the predicted percent
// change C(lb, la) = 100 x (lb - la)/la, and the measured largest
// problem size that fits a fixed per-node memory budget (the paper used
// OS process-size limits on single T3E and SP-2 nodes; both had 256 MB).
//
//===----------------------------------------------------------------------===//

#include "benchprogs/Benchmarks.h"

#include "FigureCommon.h"
#include "exec/MemoryAccounting.h"
#include "support/StringUtil.h"
#include "support/TextTable.h"

#include <cmath>
#include <iostream>
#include <set>

using namespace alf;
using namespace alf::benchprogs;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::xform;

namespace {

uint64_t peakBytesAt(const BenchmarkInfo &B, int64_t N, bool Contract) {
  auto P = B.Build(N);
  driver::Pipeline PL(*P);
  std::set<const ArraySymbol *> Contracted;
  if (Contract) {
    StrategyResult SR = *figures::compileOrExit(PL, Strategy::C2).SR;
    Contracted.insert(SR.Contracted.begin(), SR.Contracted.end());
  }
  return computeCensus(PL.program(), Contracted).PeakBytes;
}

} // namespace

int main() {
  const uint64_t Budget = 256ull << 20; // 256 MB per node (T3E and SP-2)
  std::cout << "Figure 8: effect of contraction on maximum achievable "
               "problem size\n";
  std::cout << "(memory budget per node: 256 MB)\n\n";

  TextTable Table;
  Table.setHeader({"application", "lb", "la", "C(%)", "max N w/o", "max N w/",
                   "dN(%)", "dVol(%)", "paper lb", "paper la"});

  for (const BenchmarkInfo &B : allBenchmarks()) {
    auto P = B.Build(8);
    driver::Pipeline PL(*P);
    StrategyResult SR = *figures::compileOrExit(PL, Strategy::C2).SR;
    std::set<const ArraySymbol *> Contracted(SR.Contracted.begin(),
                                             SR.Contracted.end());
    unsigned Lb = computeCensus(PL.program(), {}).PeakLive;
    unsigned La = computeCensus(PL.program(), Contracted).PeakLive;
    double C = problemSizeChangePercent(Lb, La);

    // Measured: binary-search the largest problem size that fits. The
    // contracted EP uses constant memory, so cap the search range.
    int64_t MaxN = B.Rank == 1 ? (64 << 20) : 65536;
    int64_t Before = findMaxProblemSize(
        [&B](int64_t N) { return peakBytesAt(B, N, false); }, Budget, MaxN);
    int64_t After = findMaxProblemSize(
        [&B](int64_t N) { return peakBytesAt(B, N, true); }, Budget, MaxN);

    double DimChange =
        Before == 0 ? 0.0
                    : 100.0 * (static_cast<double>(After) / Before - 1.0);
    double Pow = B.Rank == 1 ? 1.0 : 2.0;
    double VolChange =
        Before == 0
            ? 0.0
            : 100.0 * (std::pow(static_cast<double>(After) / Before, Pow) -
                       1.0);

    bool Unbounded = After >= MaxN;
    Table.addRow({B.Name, formatString("%u", Lb), formatString("%u", La),
                  std::isinf(C) ? "inf" : formatString("%.1f", C),
                  formatString("%lld", static_cast<long long>(Before)),
                  Unbounded
                      ? ">" + formatString("%lld",
                                           static_cast<long long>(MaxN))
                      : formatString("%lld", static_cast<long long>(After)),
                  Unbounded ? "inf" : formatString("%.1f", DimChange),
                  Unbounded ? "inf" : formatString("%.1f", VolChange),
                  formatString("%u", B.PaperLb),
                  formatString("%u", B.PaperLa)});
  }
  Table.print(std::cout);
  std::cout << "\n(EP's contracted form uses constant memory independent of "
               "problem size, as the paper reports.)\n";
  return 0;
}

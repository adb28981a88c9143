//===- bench/fig7_static_arrays.cpp - Paper Figure 7 ------------------------===//
//
// Reproduces Figure 7: "Static arrays contracted (categorized as
// compiler/user arrays)" for the six benchmarks, compared against the
// paper's reported values and the third-party scalar-language array
// counts the paper quotes.
//
//===----------------------------------------------------------------------===//

#include "benchprogs/Benchmarks.h"

#include "FigureCommon.h"
#include "exec/MemoryAccounting.h"
#include "support/StringUtil.h"
#include "support/TextTable.h"

#include <iostream>
#include <set>

using namespace alf;
using namespace alf::benchprogs;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::xform;

int main() {
  std::cout << "Figure 7: static arrays with and without contraction "
               "(compiler/user split)\n\n";

  TextTable Table;
  Table.setHeader({"application", "w/o contr.", "w/ contr.", "% change",
                   "scalar lang.", "paper w/o", "paper w/"});

  auto AddRows = [&Table](const std::vector<BenchmarkInfo> &Benchmarks) {
    for (const BenchmarkInfo &B : Benchmarks) {
      auto P = B.Build(8);
      driver::Pipeline PL(*P);
      StrategyResult SR = *figures::compileOrExit(PL, Strategy::C2).SR;
      std::set<const ArraySymbol *> Contracted(SR.Contracted.begin(),
                                               SR.Contracted.end());
      MemoryCensus Before = computeCensus(PL.program(), {});
      MemoryCensus After = computeCensus(PL.program(), Contracted);

      double Change =
          Before.StaticArrays == 0
              ? 0.0
              : 100.0 * (static_cast<double>(After.StaticArrays) -
                         static_cast<double>(Before.StaticArrays)) /
                    static_cast<double>(Before.StaticArrays);
      Table.addRow(
          {B.Name,
           formatString("%u(%u/%u)", Before.StaticArrays,
                        Before.StaticCompiler, Before.StaticUser),
           formatString("%u(%u/%u)", After.StaticArrays, After.StaticCompiler,
                        After.StaticUser),
           formatString("%.1f", Change),
           B.PaperScalarArrays < 0 ? "na"
                                   : formatString("%d", B.PaperScalarArrays),
           formatString("%u(%u/%u)", B.PaperStaticBefore,
                        B.PaperCompilerBefore,
                        B.PaperStaticBefore - B.PaperCompilerBefore),
           formatString("%u", B.PaperStaticAfter)});
    }
  };
  AddRows(allBenchmarks());
  // The semiring workload zoo rides below the paper's six rows; its
  // "paper" columns hold the expected census rather than published data.
  AddRows(zooBenchmarks());
  Table.print(std::cout);
  std::cout << "\n(\"scalar lang.\" quotes the paper's counts for the "
               "third-party C/Fortran 77 codes; the last three rows are "
               "the semiring workload zoo, expected counts.)\n";
  return 0;
}

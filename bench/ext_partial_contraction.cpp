//===- bench/ext_partial_contraction.cpp - Future-work extension -------------===//
//
// The paper's section 5.2 closes: "SP contains a great many opportunities
// to contract arrays to lower dimensional arrays. Though the resulting
// arrays cannot be manipulated in registers, they conserve memory and
// make better use of the cache." This bench implements that future work
// (Definition 6 relaxed along non-distributed dimensions, rolling-buffer
// storage) and measures it on the six benchmarks with a 1-D processor
// decomposition (dimension 2 sequential).
//
//===----------------------------------------------------------------------===//

#include "benchprogs/Benchmarks.h"

#include "analysis/ASDG.h"
#include "driver/Pipeline.h"
#include "exec/PerfModel.h"
#include "scalarize/Scalarize.h"
#include "support/StringUtil.h"
#include "support/TextTable.h"
#include "xform/Strategy.h"

#include <iostream>

using namespace alf;
using namespace alf::analysis;
using namespace alf::benchprogs;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::xform;

namespace {

uint64_t allocatedBytes(const lir::LoopProgram &LP) {
  uint64_t Bytes = 0;
  for (const ArraySymbol *A : LP.source().arrays())
    if (const Region *Bounds = LP.storageBounds(A))
      Bytes += static_cast<uint64_t>(Bounds->size()) * A->getElemSize();
  return Bytes;
}

} // namespace

int main() {
  std::cout << "Extension: contraction to lower-dimensional arrays "
               "(paper section 5.2 future work)\n";
  std::cout << "(c2 plus rolling-buffer contraction; dimension 2 "
               "sequential — a 1-D processor decomposition)\n\n";

  TextTable Table;
  Table.setHeader({"application", "full contr.", "rolling buffers",
                   "array bytes (c2)", "array bytes (+partial)", "saved",
                   "T3E time vs c2"});

  machine::MachineDesc M = machine::crayT3E();
  SequentialDims Seq = SequentialDims::dims({1});

  for (const BenchmarkInfo &B : allBenchmarks()) {
    int64_t N = B.Rank == 1 ? 2048 : 24;
    auto P = B.Build(N);
    driver::Pipeline PL(*P);
    const ASDG &G = PL.asdg();

    auto Full = scalarize::scalarize(G, applyStrategy(G, Strategy::C2));
    auto Partial =
        scalarize::scalarizeWithPartialContraction(G, Strategy::C2, Seq);

    machine::ProcGrid Grid = machine::ProcGrid::make(1, B.Rank);
    PerfStats SFull = simulate(Full, M, Grid);
    PerfStats SPartial = simulate(Partial, M, Grid);

    uint64_t BytesFull = allocatedBytes(Full);
    uint64_t BytesPartial = allocatedBytes(Partial);
    double Saved =
        BytesFull == 0
            ? 0.0
            : 100.0 * (1.0 - static_cast<double>(BytesPartial) /
                                 static_cast<double>(BytesFull));

    // Count full contractions in the partial pipeline for reporting.
    std::vector<PartialPlan> Plans;
    StrategyResult SR =
        applyStrategyWithPartialContraction(G, Strategy::C2, Seq, Plans);

    Table.addRow(
        {B.Name, formatString("%zu", SR.Contracted.size()),
         formatString("%zu", Plans.size()),
         formatString("%.1f KB", BytesFull / 1024.0),
         formatString("%.1f KB", BytesPartial / 1024.0),
         formatString("%.1f%%", Saved),
         formatString("%+.1f%%", percentImprovement(SFull, SPartial))});
  }
  Table.print(std::cout);
  std::cout << "\n(SP's forward-substitution sweep temporaries collapse to "
               "single-row buffers, the\nlower-dimensional contraction the "
               "paper anticipated; the buffers stay cache-resident.)\n";
  return 0;
}

//===- bench/related_statement_merge.cpp - Related-work comparison -----------===//
//
// Quantifies the paper's section 6 claim about Hwang et al.'s array
// operation synthesis: statement merge also removes the intermediate
// array, but "it potentially introduces redundant computation and
// increases overall program execution time". A temporary holding an
// expensive expression is consumed by K statements; contraction computes
// it once per element, merge K times.
//
//===----------------------------------------------------------------------===//

#include "FigureCommon.h"

#include "support/StringUtil.h"
#include "support/TextTable.h"
#include "xform/StatementMerge.h"

#include <iostream>
#include <memory>

using namespace alf;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::xform;

namespace {

/// Arrays that actually require storage after a pipeline.
size_t storedArrays(const lir::LoopProgram &LP) {
  size_t Count = 0;
  for (const ArraySymbol *A : LP.source().arrays())
    if (LP.storageBounds(A))
      ++Count;
  return Count;
}

std::unique_ptr<Program> makeDiamond(unsigned Consumers, int64_t N) {
  auto P = std::make_unique<Program>("diamond");
  const Region *R = P->regionFromExtents({N, N});
  ArraySymbol *A = P->makeArray("A", 2);
  ArraySymbol *T = P->makeUserTemp("T", 2);
  // An expensive definition: several flops per element.
  P->assign(R, T,
            esqrt(add(mul(aref(A), aref(A)),
                      eexp(mul(aref(A), cst(0.01))))));
  for (unsigned I = 0; I < Consumers; ++I) {
    ArraySymbol *Out =
        P->makeArray(formatString("out%u", I), 2);
    P->assign(R, Out, add(aref(T), cst(0.5 * I)));
  }
  return P;
}

} // namespace

int main() {
  const int64_t N = 64;
  machine::MachineDesc M = machine::crayT3E();
  machine::ProcGrid Grid = machine::ProcGrid::make(1, 2);

  std::cout << "Related work: fusion-for-contraction vs. statement merge "
               "(Hwang et al.)\n";
  std::cout << "(one temporary with an expensive definition, K consumers, "
            << N << "x" << N << ", modeled Cray T3E)\n\n";

  TextTable Table;
  Table.setHeader({"K", "arrays: contr.", "arrays: merge", "flops: contr.",
                   "flops: merge", "time: contr.", "time: merge",
                   "merge penalty"});

  for (unsigned K : {1u, 2u, 4u, 8u}) {
    // Contraction pipeline (the paper's approach).
    auto PC = makeDiamond(K, N);
    driver::Pipeline PLC(*PC);
    driver::CompileStatus CSt = figures::compileOrExit(PLC, Strategy::C2F3);
    const lir::LoopProgram &Contracted = CSt.Artifact->LP;
    PerfStats SC = simulate(Contracted, M, Grid);

    // Statement merge + dead code elimination (the related-work
    // approach), then the same fusion pipeline on what remains.
    auto PM = makeDiamond(K, N);
    mergeStatements(*PM);
    eliminateDeadStatements(*PM);
    driver::Pipeline PLM(*PM);
    driver::CompileStatus MSt = figures::compileOrExit(PLM, Strategy::C2F3);
    const lir::LoopProgram &Merged = MSt.Artifact->LP;
    PerfStats SM = simulate(Merged, M, Grid);

    Table.addRow(
        {formatString("%u", K),
         formatString("%zu", storedArrays(Contracted)),
         formatString("%zu", storedArrays(Merged)),
         formatString("%llu", static_cast<unsigned long long>(SC.Flops)),
         formatString("%llu", static_cast<unsigned long long>(SM.Flops)),
         formatString("%.2f ms", SC.totalNs() / 1e6),
         formatString("%.2f ms", SM.totalNs() / 1e6),
         formatString("%.2fx", SM.totalNs() / SC.totalNs())});
  }
  Table.print(std::cout);
  std::cout << "\n(Both remove the temporary array; merge re-evaluates the "
               "definition at every use,\nso its cost grows with K while "
               "contraction's stays flat — the paper's argument for\n"
               "solving the intermediate-array problem with fusion and "
               "contraction.)\n";
  return 0;
}

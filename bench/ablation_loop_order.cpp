//===- bench/ablation_loop_order.cpp - Ablation: loop/dimension matching -----===//
//
// DESIGN.md ablation A2: FIND-LOOP-STRUCTURE matches inner loops with
// higher array dimensions "to exploit spatial locality (assuming
// row-major allocation)" (Figure 4 discussion). This ablation scalarizes
// a stencil program, then overrides each nest's loop structure vector
// with the reversed (column-major-order) permutation and compares cache
// behaviour on the three machines.
//
//===----------------------------------------------------------------------===//

#include "FigureCommon.h"

#include "support/StringUtil.h"
#include "support/TextTable.h"

#include <iostream>

using namespace alf;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::lir;
using namespace alf::machine;
using namespace alf::xform;

namespace {

std::unique_ptr<Program> makeStencil(int64_t N) {
  auto P = std::make_unique<Program>("stencil");
  const Region *R = P->regionFromExtents({N, N});
  ArraySymbol *A = P->makeArray("A", 2);
  ArraySymbol *B = P->makeArray("B", 2);
  ArraySymbol *C = P->makeArray("C", 2);
  P->assign(R, B,
            mul(add(add(aref(A, {-1, 0}), aref(A, {1, 0})),
                    add(aref(A, {0, -1}), aref(A, {0, 1}))),
                cst(0.25)));
  P->assign(R, C, add(aref(B), mul(aref(A), cst(0.5))));
  return P;
}

/// Reverses the dimension assignment of every nest (outer loop iterates
/// the highest dimension). The stencil has no loop-carried dependences
/// inside its nests, so any permutation is legal.
void reverseLoopOrders(LoopProgram &LP) {
  for (auto &NodePtr : LP.nodesMutable()) {
    auto *Nest = dyn_cast<LoopNest>(NodePtr.get());
    if (!Nest)
      continue;
    unsigned Rank = Nest->LSV.rank();
    std::vector<int> Elems(Rank);
    for (unsigned L = 0; L < Rank; ++L)
      Elems[L] = Nest->LSV.element(Rank - 1 - L);
    Nest->LSV = xform::LoopStructureVector(Elems);
  }
}

} // namespace

int main() {
  const int64_t N = 256;
  std::cout << "Ablation A2: loop/dimension matching in "
               "FIND-LOOP-STRUCTURE (stencil, " << N << "x" << N << ")\n\n";

  TextTable Table;
  Table.setHeader({"machine", "row-major L1 miss", "reversed L1 miss",
                   "row-major time", "reversed time", "slowdown"});

  for (const MachineDesc &M : allMachines()) {
    auto P = makeStencil(N);
    driver::Pipeline PL(*P);
    driver::CompileStatus GoodSt = figures::compileOrExit(PL, Strategy::C2F3);
    driver::CompileStatus BadSt = figures::compileOrExit(PL, Strategy::C2F3);
    const LoopProgram &Good = GoodSt.Artifact->LP;
    LoopProgram &Bad = BadSt.Artifact->LP;
    reverseLoopOrders(Bad);

    ProcGrid Grid = ProcGrid::make(1, 2);
    PerfStats SGood = simulate(Good, M, Grid);
    PerfStats SBad = simulate(Bad, M, Grid);
    Table.addRow({M.Name, formatString("%.1f%%", 100 * SGood.l1MissRatio()),
                  formatString("%.1f%%", 100 * SBad.l1MissRatio()),
                  formatString("%.2f ms", SGood.totalNs() / 1e6),
                  formatString("%.2f ms", SBad.totalNs() / 1e6),
                  formatString("%.2fx", SBad.totalNs() / SGood.totalNs())});
  }
  Table.print(std::cout);
  std::cout << "\n(Matching inner loops to the highest dimension walks "
               "memory contiguously; the reversed order strides by a full "
               "row per iteration.)\n";
  return 0;
}

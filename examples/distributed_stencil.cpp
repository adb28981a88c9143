//===- examples/distributed_stencil.cpp - Communication policies ------------===//
//
// A distributed 5-point stencil pipeline showing the section 5.5
// interaction between fusion and communication optimization. The same
// program is compiled twice: favoring fusion (exchanges inserted at the
// loop level after contraction) and favoring communication (pipelined
// send/recv pairs inserted at the array level before fusion, which
// blocks the contraction of temporaries whose live ranges span the
// exchange windows). Simulated times are compared across processor
// counts on the modeled IBM SP-2.
//
// Run:  ./distributed_stencil
//
//===----------------------------------------------------------------------===//

#include "analysis/ASDG.h"
#include "comm/CommInsertion.h"
#include "exec/PerfModel.h"
#include "ir/Program.h"
#include "scalarize/Scalarize.h"
#include "support/StringUtil.h"
#include "support/TextTable.h"
#include "xform/Strategy.h"

#include <iostream>
#include <memory>

using namespace alf;
using namespace alf::ir;
using namespace alf::xform;

namespace {

/// A stencil pipeline: temporaries computed before the boundary sweep
/// and consumed after it, so the favor-communication policy loses their
/// contraction.
std::unique_ptr<Program> makePipeline(int64_t N) {
  auto P = std::make_unique<Program>("stencil-pipeline");
  const Region *R = P->regionFromExtents({N, N});
  ArraySymbol *U = P->makeArray("U", 2);
  ArraySymbol *V = P->makeArray("V", 2);
  ArraySymbol *T1 = P->makeUserTemp("T1", 2);
  ArraySymbol *T2 = P->makeUserTemp("T2", 2);
  ArraySymbol *F = P->makeUserTemp("flux", 2);

  P->assign(R, T1, mul(aref(U), cst(0.5)));             // local work
  P->assign(R, T2, add(aref(T1), aref(V)));             // local work
  P->assign(R, F,                                        // boundary sweep
            add(aref(U, {-1, 0}), add(aref(U, {1, 0}),
                add(aref(U, {0, -1}), aref(U, {0, 1})))));
  P->assign(R, V, add(aref(F), aref(T2)));              // consumes both
  return P;
}

} // namespace

int main() {
  const int64_t N = 64;
  machine::MachineDesc M = machine::ibmSP2();

  {
    auto P = makePipeline(N);
    std::cout << "=== Source pipeline ===\n";
    P->print(std::cout);
  }

  // Favor fusion: contract first, exchange before the consuming nests.
  auto FavorFusion = [&](unsigned Procs) {
    auto P = makePipeline(N);
    analysis::ASDG G = analysis::ASDG::build(*P);
    auto LP = scalarize::scalarize(G, applyStrategy(G, Strategy::C2F3));
    comm::CommPlan Plan = comm::insertLoopLevelComm(LP);
    exec::PerfStats Stats =
        exec::simulate(LP, M, machine::ProcGrid::make(Procs, 2));
    return std::pair<exec::PerfStats, unsigned>(Stats, Plan.Exchanges);
  };

  // Favor communication: pipelined exchanges first, fusion constrained.
  auto FavorComm = [&](unsigned Procs) {
    auto P = makePipeline(N);
    comm::CommPlan Plan = comm::insertArrayLevelComm(*P, /*Pipelined=*/true);
    analysis::ASDG G = analysis::ASDG::build(*P);
    StrategyResult SR = applyStrategy(G, Strategy::C2F3);
    auto LP = scalarize::scalarize(G, SR);
    exec::PerfStats Stats =
        exec::simulate(LP, M, machine::ProcGrid::make(Procs, 2));
    return std::tuple<exec::PerfStats, unsigned, size_t>(
        Stats, Plan.Exchanges, SR.Contracted.size());
  };

  {
    auto P = makePipeline(N);
    comm::insertArrayLevelComm(*P, /*Pipelined=*/true);
    std::cout << "\n=== With array-level pipelined exchanges ===\n";
    P->print(std::cout);
  }

  TextTable Table;
  Table.setHeader({"p", "favor-fusion (ms)", "favor-comm (ms)",
                   "favor-comm contracted", "slowdown"});
  for (unsigned Procs : {1u, 4u, 16u, 64u}) {
    auto [FF, FFEx] = FavorFusion(Procs);
    auto [FC, FCEx, FCContracted] = FavorComm(Procs);
    Table.addRow({formatString("%u", Procs),
                  formatString("%.3f", FF.totalNs() / 1e6),
                  formatString("%.3f", FC.totalNs() / 1e6),
                  formatString("%zu of 3", FCContracted),
                  formatString("%+.1f%%",
                               (FC.totalNs() / FF.totalNs() - 1.0) * 100)});
  }
  std::cout << "\n=== Policy comparison on the modeled IBM SP-2 ===\n";
  Table.print(std::cout);
  std::cout << "\nFavoring fusion keeps all three temporaries contracted; "
               "favoring communication\npipelines the exchanges but loses "
               "the contractions whose live ranges span them.\n";
  return 0;
}

//===- examples/tomcatv_walkthrough.cpp - The paper's Figure 1 --------------===//
//
// Walks through the paper's motivating example (Figure 1): the
// tridiagonal-solver fragment of SPEC Tomcatv, where the full array R of
// the array-language source contracts to the scalar `s` of the
// hand-written Fortran 77. Shows normalization inserting the compiler
// temporaries for the Rx/Ry self-updates, the contraction decision, and
// the simulated-time effect of each optimization strategy on the modeled
// Cray T3E.
//
// Run:  ./tomcatv_walkthrough
//
//===----------------------------------------------------------------------===//

#include "benchprogs/Benchmarks.h"
#include "driver/Pipeline.h"
#include "exec/PerfModel.h"
#include "support/StringUtil.h"
#include "support/TextTable.h"

#include <cstdlib>
#include <iostream>

using namespace alf;
using namespace alf::ir;
using namespace alf::xform;

int main() {
  auto P = benchprogs::buildTomcatv(48);

  std::cout << "=== Tomcatv before normalization (" << P->numStmts()
            << " statements) ===\n";
  P->print(std::cout);

  // The pipeline builds the normal form: each compiler temporary it adds
  // is a new array.
  size_t ArraysBefore = P->arrays().size();
  driver::Pipeline PL(*P);
  size_t Temps = PL.program().arrays().size() - ArraysBefore;
  std::cout << "\nnormalization inserted " << Temps
            << " compiler temporaries (the four self-updates of RX, RY, "
               "X and Y)\n";

  auto compile = [&PL](Strategy S) {
    driver::CompileStatus St = PL.tryCompile(driver::CompileRequest{S});
    if (!St.ok()) {
      std::cerr << "compile failed: " << St.Message << '\n';
      std::exit(1);
    }
    return St;
  };
  driver::CompileStatus C2 = compile(Strategy::C2);
  const StrategyResult &SR = *C2.SR;
  std::cout << "\ncontracted under c2 (" << SR.Contracted.size()
            << " arrays):";
  for (const ArraySymbol *A : SR.Contracted)
    std::cout << ' ' << A->getName();
  std::cout << "\n  -> r becomes a scalar, exactly as in Figure 1(b).\n";

  const lir::LoopProgram &LP = C2.Artifact->LP;
  std::cout << "\n=== Scalarized under c2 (excerpt) ===\n";
  std::string Text = LP.str();
  std::cout << Text.substr(0, Text.find("for")) << "...\n";

  // Strategy comparison on the modeled Cray T3E, one processor.
  machine::MachineDesc M = machine::crayT3E();
  machine::ProcGrid Grid = machine::ProcGrid::make(1, 2);
  TextTable Table;
  Table.setHeader({"strategy", "arrays", "refs", "L1 miss", "time (ms)",
                   "vs baseline"});
  exec::PerfStats Base;
  for (Strategy S : allStrategies()) {
    driver::CompileStatus St = compile(S);
    const lir::LoopProgram &SP = St.Artifact->LP;
    exec::PerfStats Stats = exec::simulate(SP, M, Grid);
    size_t Stored = 0;
    for (const ir::ArraySymbol *A : SP.source().arrays())
      if (SP.storageBounds(A))
        ++Stored;
    if (S == Strategy::Baseline)
      Base = Stats;
    Table.addRow(
        {getStrategyName(S),
         formatString("%zu", Stored),
         formatString("%llu", static_cast<unsigned long long>(Stats.Refs)),
         formatString("%.1f%%", 100.0 * Stats.l1MissRatio()),
         formatString("%.2f", Stats.totalNs() / 1e6),
         formatString("%+.1f%%", exec::percentImprovement(Base, Stats))});
  }
  std::cout << "\n=== Strategies on the modeled Cray T3E ===\n";
  Table.print(std::cout);
  return 0;
}

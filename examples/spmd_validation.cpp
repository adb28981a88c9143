//===- examples/spmd_validation.cpp - Distributed execution demo --------------===//
//
// Compiles a mini-ZPL program, optimizes it with c2+f3, inserts halo
// exchanges, and executes it BOTH sequentially and SPMD-style on a
// simulated processor grid — verifying element-wise that the distributed
// results match. This is the full distributed story of the paper's
// setting: block distribution, compiler-inserted communication, fusion
// and contraction, all checked against a sequential oracle.
//
// Run:  ./spmd_validation [procs]
//
//===----------------------------------------------------------------------===//

#include "ToolOptions.h"

#include "comm/CommInsertion.h"
#include "distsim/DistInterpreter.h"
#include "driver/Pipeline.h"
#include "exec/Interpreter.h"
#include "frontend/Parser.h"
#include "support/StringUtil.h"
#include "support/TextTable.h"

#include <iostream>

using namespace alf;

namespace {

const char *Source = R"(
-- Two smoothing sweeps with a diagnostic reduction.
region G : [1..48, 1..48];
array u, v : G;
array flux : G temp;

[G] flux := (u@(-1,0) + u@(1,0) + u@(0,-1) + u@(0,1)) * 0.25;
[G] v    := u + (flux - u) * 0.7;
[G] u    := v + (v@(1,0) - v@(-1,0)) * 0.05;

scalar energy;
[G] energy := + << u * u;
)";

} // namespace

int main(int argc, char **argv) {
  unsigned Procs = 4;
  std::string Error;
  if (argc > 1 && !tool::parseNumberArg("procs", argv[1], Procs, Error, 1)) {
    std::cerr << "spmd_validation: " << Error << '\n';
    return 2;
  }

  frontend::ParseResult Result = frontend::parseProgram(Source, "spmd-demo");
  if (!Result.succeeded()) {
    for (const std::string &E : Result.Errors)
      std::cerr << E << '\n';
    return 1;
  }
  driver::Pipeline PL(*Result.Prog);
  driver::CompileStatus St =
      PL.tryCompile(driver::CompileRequest{xform::Strategy::C2F3});
  if (!St.ok()) {
    std::cerr << "compile failed: " << St.Message << '\n';
    return 1;
  }
  lir::LoopProgram &LP = St.Artifact->LP;
  comm::CommPlan Plan = comm::insertLoopLevelComm(LP);

  std::cout << "=== Compiled program ===\n" << LP.str();
  std::cout << "\nhalo exchanges inserted: " << Plan.Exchanges
            << " (redundant elided: " << Plan.RedundantElided << ")\n";

  // Sequential oracle.
  exec::RunResult Seq = exec::run(LP, 2026);

  // Distributed execution on a p-processor grid.
  machine::ProcGrid Grid = machine::ProcGrid::make(Procs, 2);
  exec::RunResult Dist = distsim::runDistributed(LP, Grid, 2026);

  std::cout << "\n=== SPMD execution on a " << Grid.Extents[0] << "x"
            << Grid.Extents[1] << " grid ===\n";
  TextTable Table;
  Table.setHeader({"result", "sequential", "distributed"});
  for (const auto &[Name, Data] : Seq.LiveOut) {
    double SeqSum = 0, DistSum = 0;
    for (double V : Data)
      SeqSum += V;
    for (double V : Dist.LiveOut.at(Name))
      DistSum += V;
    Table.addRow({Name, formatString("%.10g", SeqSum),
                  formatString("%.10g", DistSum)});
  }
  for (const auto &[Name, V] : Seq.ScalarsOut)
    Table.addRow({Name, formatString("%.10g", V),
                  formatString("%.10g", Dist.ScalarsOut.at(Name))});
  Table.print(std::cout);

  std::string Why;
  if (!exec::resultsMatch(Seq, Dist, 1e-9, &Why)) {
    std::cerr << "\nMISMATCH: " << Why << '\n';
    return 1;
  }
  std::cout << "\ndistributed results match the sequential oracle "
               "element-wise.\n";
  return 0;
}

//===- bench/FigureCommon.cpp - Shared experiment harness -------------------===//

#include "FigureCommon.h"

#include "support/StringUtil.h"
#include "support/TextTable.h"

#include <cstdlib>
#include <iostream>

using namespace alf;
using namespace alf::benchprogs;
using namespace alf::driver;
using namespace alf::exec;
using namespace alf::figures;
using namespace alf::ir;
using namespace alf::machine;
using namespace alf::xform;

CompileStatus figures::compileOrExit(Pipeline &PL, Strategy S) {
  CompileStatus St = PL.tryCompile(CompileRequest{S});
  if (!St.ok()) {
    std::cerr << PL.program().getName() << " " << getStrategyName(S)
              << ": compile failed: " << St.Message << '\n';
    std::exit(1);
  }
  return St;
}

int64_t figures::perProcessorSize(const BenchmarkInfo &B) {
  if (B.Name == "EP")
    return 4096; // rank 1
  if (B.Name == "Frac")
    return 64;
  if (B.Name == "SP")
    return 24;
  if (B.Name == "Tomcatv")
    return 48;
  if (B.Name == "Simple")
    return 32;
  return 40; // Fibro
}

PerfStats figures::simulateStrategy(const BenchmarkInfo &B, Strategy S,
                                    const MachineDesc &M, unsigned Procs) {
  auto P = B.Build(perProcessorSize(B));
  PipelineOptions Opts;
  Opts.Comm = CommPolicy::LoopLevel;
  Pipeline PL(*P, Opts);
  return simulate(compileOrExit(PL, S).Artifact->LP, M,
                  ProcGrid::make(Procs, B.Rank));
}

PerfStats figures::simulateFavorComm(const BenchmarkInfo &B,
                                     const MachineDesc &M, unsigned Procs) {
  auto P = B.Build(perProcessorSize(B));
  PipelineOptions Opts;
  Opts.Comm = CommPolicy::ArrayLevel;
  Pipeline PL(*P, Opts);
  return simulate(compileOrExit(PL, Strategy::C2F3).Artifact->LP, M,
                  ProcGrid::make(Procs, B.Rank));
}

void figures::printRuntimeFigure(const MachineDesc &M, std::ostream &OS) {
  OS << "Benchmark performance on " << M.Name
     << " (percent improvement over baseline; problem size scaled with "
        "processors)\n\n";

  for (const BenchmarkInfo &B : allBenchmarks()) {
    // Build and optimize once per benchmark; only the grid varies with p.
    auto P = B.Build(perProcessorSize(B));
    PipelineOptions Opts;
    Opts.Comm = CommPolicy::LoopLevel;
    Pipeline PL(*P, Opts);

    std::vector<std::unique_ptr<lir::LoopProgram>> Programs;
    for (Strategy S : allStrategies())
      Programs.push_back(std::make_unique<lir::LoopProgram>(
          std::move(compileOrExit(PL, S).Artifact->LP)));

    TextTable Table;
    std::vector<std::string> Header{"p"};
    for (Strategy S : allStrategies())
      if (S != Strategy::Baseline)
        Header.push_back(getStrategyName(S));
    Table.setHeader(std::move(Header));

    for (unsigned Procs : ProcCounts) {
      ProcGrid Grid = ProcGrid::make(Procs, B.Rank);
      PerfStats Base = simulate(*Programs[0], M, Grid);
      std::vector<std::string> Row{formatString("%u", Procs)};
      for (size_t I = 1; I < Programs.size(); ++I) {
        PerfStats Opt = simulate(*Programs[I], M, Grid);
        Row.push_back(formatPercent(percentImprovement(Base, Opt)));
      }
      Table.addRow(std::move(Row));
    }

    OS << B.Name << ":\n";
    Table.print(OS);
    OS << '\n';
  }
}

//===- examples/zplc.cpp - Mini-ZPL compiler driver --------------------------===//
//
// A small command-line compiler for the mini-ZPL input language: parses a
// source file, normalizes, applies an optimization strategy, and prints
// the scalarized loop nests. With no file argument it compiles a built-in
// Jacobi demo.
//
// Usage:  ./zplc [file.zpl] [--strategy=c2|baseline|c1|f1|f2|f3|c2+f3|c2+f4|ilp]
//                [--dump-asdg] [--dump-source] [--emit-c]
//                [--explain] [--stats] [--simulate] [--lint]
//                [--exec=sequential|parallel|jit|jit-simd] [--seed=S]
//                [--semiring=plus-times|min-plus|max-times|max-plus|or-and]
//                [--verify=off|structural|full]
//                [--trace=out.json] [--metrics]
//
// --trace=FILE records every compilation phase and kernel launch and
// writes a Chrome trace_event file (load it at chrome://tracing or
// ui.perfetto.dev); --metrics prints the aggregated per-span timing
// table (count, total/p50/p95 wall time, bytes moved) to stdout.
//
// --exec runs the compiled program and prints its live-out scalars and
// array checksums; `--exec=jit` compiles the kernels natively with the
// system compiler (falling back to the interpreter when there is none).
// Storage too large to allocate prints a `resource-limit` error and
// exits 1.
//
// --lint reports frontend diagnostics (uninitialized reads, dead
// statements, rank mismatches) as `file:line:col: severity: message` and
// exits 1 when any error-severity diagnostic fired; nothing is compiled.
//
// --verify selects the translation-validation level (default full for the
// tool): each analysis product is re-proved as it is built, and a failed
// proof prints one `zplc: verification failed: ...` line and exits 1.
//
//===----------------------------------------------------------------------===//

#include "ToolOptions.h"

#include "analysis/ASDG.h"
#include "driver/Pipeline.h"
#include "exec/ParallelExecutor.h"
#include "exec/PerfModel.h"
#include "frontend/Parser.h"
#include "ir/Align.h"
#include "ir/Normalize.h"
#include "ir/Verifier.h"
#include "obs/Obs.h"
#include "scalarize/CEmitter.h"
#include "scalarize/Scalarize.h"
#include "support/StringUtil.h"
#include "verify/Lint.h"
#include "verify/Verify.h"
#include "xform/Report.h"
#include "xform/Strategy.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>

using namespace alf;

namespace {

const char *DemoSource = R"(
-- Built-in demo: Jacobi smoothing step with diagnostics.
region R : [1..32, 1..32];
array U, Unew : R;
array Res : R temp;
scalar maxres;

[R] Res  := (U@(-1,0) + U@(1,0) + U@(0,-1) + U@(0,1)) * 0.25 - U;
[R] Unew := U + Res * 0.8;
[R] maxres := max << abs(Res);
)";

} // namespace

int main(int argc, char **argv) {
  std::string Source = DemoSource;
  std::string FileName = "<demo>";
  bool DumpASDG = false, DumpSource = false, EmitC = false,
       Explain = false, Stats = false, Simulate = false, Lint = false;
  tool::ToolOptions TO; // shared flags; zplc's verify default is full

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    std::string FlagError;
    switch (tool::parseToolFlag(Arg, tool::TF_All, TO, FlagError)) {
    case tool::FlagParse::Consumed:
      continue;
    case tool::FlagParse::Error:
      std::cerr << "zplc: " << FlagError << '\n';
      return 1;
    case tool::FlagParse::NotMine:
      break;
    }
    if (Arg == "--dump-asdg") {
      DumpASDG = true;
      continue;
    }
    if (Arg == "--dump-source") {
      DumpSource = true;
      continue;
    }
    if (Arg == "--emit-c") {
      EmitC = true;
      continue;
    }
    if (Arg == "--explain") {
      Explain = true;
      continue;
    }
    if (Arg == "--stats") {
      Stats = true;
      continue;
    }
    if (Arg == "--simulate") {
      Simulate = true;
      continue;
    }
    if (Arg == "--lint") {
      Lint = true;
      continue;
    }
    std::ifstream In(Arg);
    if (!In) {
      std::cerr << "zplc: error: cannot open " << Arg << '\n';
      return 1;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
    FileName = Arg;
  }

  tool::applyObsLevel(TO);
  xform::Strategy Strat = TO.Strat.value_or(xform::Strategy::C2);
  verify::VerifyLevel VerifyLevel = TO.Verify;

  frontend::ParseResult Result = frontend::parseProgram(Source, FileName);
  if (!Result.succeeded()) {
    // Parser errors carry "line:col: message"; render them as standard
    // compiler diagnostics so editors and CI can jump to the position.
    for (const std::string &E : Result.Errors) {
      size_t Sep = E.find(": ");
      if (Sep == std::string::npos)
        std::cerr << FileName << ": error: " << E << '\n';
      else
        std::cerr << FileName << ':' << E.substr(0, Sep)
                  << ": error: " << E.substr(Sep + 2) << '\n';
    }
    return 1;
  }
  ir::Program &P = *Result.Prog;

  // --semiring rebinds every reduction's algebra before any analysis
  // runs, so the override flows through strategy, verify and execution.
  if (TO.SemiringSel)
    P.setReductionSemiring(*TO.SemiringSel);

  if (Lint) {
    // Lint looks at the program exactly as written (pre-normalization,
    // pre-alignment) so positions and names match the source.
    verify::LintResult LR = verify::lintProgram(P, Result.StmtPositions);
    std::cout << LR.render(FileName);
    return LR.exitCode();
  }

  unsigned Temps;
  {
    obs::Span S("pipeline.normalize", FileName);
    ir::alignProgram(P);
    Temps = ir::normalizeProgram(P);
  }
  auto Errors = ir::verifyProgram(P);
  if (!Errors.empty()) {
    // Verifier findings have no source position; still use the
    // "error:" marker and a nonzero exit.
    for (const std::string &E : Errors)
      std::cerr << FileName << ": error: " << E << '\n';
    return 1;
  }

  if (DumpSource) {
    std::cout << "// normalized (" << Temps << " compiler temporaries)\n";
    P.print(std::cout);
    std::cout << '\n';
  }

  // The pipeline owns ASDG -> strategy -> scalarize from here (opening
  // the same obs spans this tool used to open by hand). Alignment and
  // normalization already ran above, so the pipeline's own pass is off.
  driver::PipelineOptions PO;
  PO.Normalize = false;
  PO.Verify = VerifyLevel;
  driver::Pipeline PL(P, PO);
  driver::CompileStatus CSt = PL.tryCompile(driver::CompileRequest{
      Strat, TO.Exec.value_or(xform::ExecMode::Sequential)});
  if (CSt.Code == driver::CompileCode::InvalidProgram) {
    std::cerr << FileName << ": error: " << CSt.Message << '\n';
    return 1;
  }
  // A failed proof (the parallel race check included) prints one line
  // and exits nonzero so scripts and CI can gate on the exit status.
  if (!CSt.ok()) {
    std::cerr << "zplc: verification failed: " << CSt.Message << '\n';
    return 1;
  }
  if (DumpASDG) {
    PL.asdg().print(std::cout);
    std::cout << '\n';
  }

  const xform::StrategyResult &SR = *CSt.SR;
  std::cout << "// strategy " << xform::getStrategyName(Strat) << ": "
            << SR.Partition.numClusters() << " loop nests, "
            << SR.Contracted.size() << " arrays contracted";
  if (!SR.Contracted.empty()) {
    std::cout << " (";
    for (size_t I = 0; I < SR.Contracted.size(); ++I)
      std::cout << (I ? ", " : "") << SR.Contracted[I]->getName();
    std::cout << ")";
  }
  std::cout << "\n\n";

  if (Explain) {
    std::cout << "// contraction decisions:\n"
              << xform::contractionReport(SR) << '\n';
  }

  const lir::LoopProgram &LP = CSt.Artifact->LP;
  if (EmitC)
    std::cout << scalarize::emitC(LP, "kernel");
  else
    LP.print(std::cout);
  if (Simulate) {
    unsigned Rank = 2;
    for (const ir::Stmt *S : P.stmts())
      if (const auto *NS = dyn_cast<ir::NormalizedStmt>(S))
        Rank = NS->getRegion()->rank();
    std::cout << "\n// simulated single-processor execution:\n";
    for (const machine::MachineDesc &M : machine::allMachines()) {
      exec::PerfStats Stats =
          exec::simulate(LP, M, machine::ProcGrid::make(1, Rank));
      std::cout << "//   " << M.Name << ": "
                << alf::formatString(
                       "%.3f ms (L1 miss %.1f%%, %llu flops)",
                       Stats.totalNs() / 1e6, 100.0 * Stats.l1MissRatio(),
                       static_cast<unsigned long long>(Stats.Flops))
                << '\n';
    }
  }
  if (TO.Exec) {
    exec::RunResult Res;
    // A region too large to allocate is a diagnostic, as alfd's
    // resource-limit answer is, not a crash.
    try {
      Res = CSt.Artifact->run(TO.Seed);
    } catch (const std::bad_alloc &) {
      std::cerr << FileName
                << ": error: resource-limit: storage allocation failed\n";
      return 1;
    } catch (const std::length_error &E) {
      std::cerr << FileName
                << ": error: resource-limit: storage allocation failed: "
                << E.what() << '\n';
      return 1;
    }
    std::cout << "\n// executed (" << xform::getExecModeName(*TO.Exec)
              << ", seed " << TO.Seed << "):\n";
    for (const auto &[Name, Value] : Res.ScalarsOut)
      std::cout << "//   " << Name << " = "
                << alf::formatString("%.17g", Value) << '\n';
    for (const auto &[Name, Values] : Res.LiveOut) {
      double Sum = 0.0;
      for (double V : Values)
        Sum += V;
      std::cout << "//   sum(" << Name << ") = "
                << alf::formatString("%.17g", Sum) << " (" << Values.size()
                << " elements)\n";
    }
  }
  if (Stats) {
    std::cout << '\n';
    obs::writeCounterTable(std::cout);
  }
  if (TO.Metrics)
    std::cout << '\n';
  if (!tool::emitObsOutputs(TO, std::cout, std::cerr, "zplc"))
    return 1;
  if (!TO.TraceFile.empty())
    std::cout << "// trace: " << obs::numTraceEvents() << " events -> "
              << TO.TraceFile << '\n';
  return 0;
}

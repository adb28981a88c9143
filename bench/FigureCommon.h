//===- bench/FigureCommon.h - Shared experiment harness --------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pipeline for the runtime experiments (Figures 9-11 and section
/// 5.5): build a benchmark at its per-processor problem size, compile it
/// under each strategy with communication inserted, and simulate on a
/// modeled machine. Every figure harness compiles through compileOrExit.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_BENCH_FIGURECOMMON_H
#define ALF_BENCH_FIGURECOMMON_H

#include "benchprogs/Benchmarks.h"
#include "driver/Pipeline.h"
#include "exec/PerfModel.h"
#include "machine/Machine.h"
#include "xform/Strategy.h"

#include <ostream>

namespace alf {
namespace figures {

/// Compiles \p S through \p PL for sequential execution. The paper's
/// benchmarks always compile, so a rejection prints the status message
/// and exits with status 1.
driver::CompileStatus compileOrExit(driver::Pipeline &PL, xform::Strategy S);

/// Processor counts of Figures 9-11.
inline const unsigned ProcCounts[] = {1, 4, 16, 64};

/// Per-processor problem size used for each benchmark ("the amount of
/// data per processor remains constant as the number of processors
/// increases", section 5.4). Sized so each run simulates in seconds.
int64_t perProcessorSize(const benchprogs::BenchmarkInfo &B);

/// Simulated time of \p B at per-processor size under \p S on machine
/// \p M with \p Procs processors, favoring fusion (communication
/// inserted after fusion at the loop level).
exec::PerfStats simulateStrategy(const benchprogs::BenchmarkInfo &B,
                                 xform::Strategy S,
                                 const machine::MachineDesc &M,
                                 unsigned Procs);

/// Prints one machine's runtime figure: percent improvement over
/// baseline for every benchmark, strategy and processor count.
void printRuntimeFigure(const machine::MachineDesc &M, std::ostream &OS);

/// Simulated time under the favor-communication policy (exchanges
/// inserted and pipelined at the array level before fusion), c2+f3.
exec::PerfStats simulateFavorComm(const benchprogs::BenchmarkInfo &B,
                                  const machine::MachineDesc &M,
                                  unsigned Procs);

} // namespace figures
} // namespace alf

#endif // ALF_BENCH_FIGURECOMMON_H

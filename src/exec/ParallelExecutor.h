//===- exec/ParallelExecutor.h - Tiled multithreaded executor --*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multithreaded execution of scalarized programs. Each loop nest whose
/// dependence structure allows it (xform::analyzeNestParallelism on the
/// UDVs fusion computed for the nest) runs its parallel loop split into
/// one contiguous row-tile per worker; nests whose outermost loop
/// carries a dependence fall back to tile-with-barriers (outer loops
/// sequential, one pool dispatch — hence one barrier — per outer
/// iteration), and reducing or fully carried nests run sequentially.
/// Array buffers are shared (tiles never touch the same element, by
/// legality); contracted arrays' replacement scalars are kept in a
/// per-thread overlay so each worker has private contraction storage.
///
/// Results are bit-identical to the sequential interpreter: tile
/// ownership is deterministic, every element's arithmetic is unchanged,
/// and reductions — the one place parallelism would reassociate floating
/// point — are never parallelized.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_EXEC_PARALLELEXECUTOR_H
#define ALF_EXEC_PARALLELEXECUTOR_H

#include "exec/Interpreter.h"
#include "scalarize/Schedule.h"

#include <string>
#include <vector>

namespace alf {
namespace exec {

/// Execution knobs for the parallel executor.
struct ParallelOptions {
  /// Tiles each parallel loop is split into; 0 = one per thread of
  /// ThreadPool::shared(). The tiles run on that pool, so this sets the
  /// partition (and with it the results), not the number of threads.
  unsigned NumThreads = 0;
};

using lir::ParallelSchedule;

/// Computes the parallelism decision of every nest of \p LP
/// (lir::planNest) and records the outcome in the
/// `parallel.nests_outer`, `parallel.nests_inner` and
/// `parallel.nests_sequential` obs counters.
ParallelSchedule planParallelism(const lir::LoopProgram &LP);

/// One-line-per-nest report of the schedule: which nests run parallel,
/// at which loop, and why (rendered by xform::parallelismReport).
std::string describeSchedule(const lir::LoopProgram &LP,
                             const ParallelSchedule &Sched);

/// Runs \p LP under \p Sched with \p Opts.NumThreads tiles per parallel
/// loop, on the process-wide pool. Same observable semantics as
/// exec::run on the same seed.
RunResult runParallel(const lir::LoopProgram &LP, uint64_t Seed,
                      const ParallelOptions &Opts,
                      const ParallelSchedule &Sched);

/// Executes \p LP under \p Sched against caller-provided storage, in
/// place (the parallel counterpart of exec::runOnStorage). The runtime
/// engine pairs this with a cached schedule so a warm flush pays no
/// parallelism re-analysis.
void runParallelOnStorage(const lir::LoopProgram &LP, Storage &Store,
                          const ParallelOptions &Opts,
                          const ParallelSchedule &Sched);

/// Convenience: plan, then run.
RunResult runParallel(const lir::LoopProgram &LP, uint64_t Seed,
                      const ParallelOptions &Opts = ParallelOptions());

} // namespace exec
} // namespace alf

#endif // ALF_EXEC_PARALLELEXECUTOR_H

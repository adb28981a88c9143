//===- distsim/DistInterpreter.h - SPMD execution simulator ----*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A distributed-memory execution simulator: every processor of the grid
/// owns a block of each array (plus halo cells), loop nests execute over
/// each processor's local slice, and communication operations *actually
/// move data* between neighbouring blocks. Running a scalarized program
/// here and comparing against the sequential interpreter validates the
/// communication insertion end to end — a missing or stale halo exchange
/// produces wrong values, not just wrong cost estimates.
///
/// The simulator owns only what is distributed: the block decomposition,
/// halo widths, per-processor storage, the exchanges and the rank-order
/// combine of reduction partials. Allocation and seeding
/// (exec::allocateStorage), nest evaluation (exec::runNestLoops) and
/// result collection (exec::collectResults) are the sequential
/// interpreter's own.
///
/// Supported programs: loop nests (including reductions, contraction and
/// loop reversal/interchange) and halo exchanges with zero-offset
/// assignment targets; opaque statements and partial-contraction plans
/// are out of scope here.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_DISTSIM_DISTINTERPRETER_H
#define ALF_DISTSIM_DISTINTERPRETER_H

#include "distsim/BlockDist.h"
#include "exec/Interpreter.h"
#include "scalarize/LoopIR.h"

namespace alf {
namespace distsim {

/// Runs \p LP SPMD-style over \p Grid with inputs seeded by \p Seed
/// (exec::run's initialization, so results are directly comparable).
/// Reductions combine partial results across processors in rank order.
exec::RunResult runDistributed(const lir::LoopProgram &LP,
                               const machine::ProcGrid &Grid, uint64_t Seed);

} // namespace distsim
} // namespace alf

#endif // ALF_DISTSIM_DISTINTERPRETER_H

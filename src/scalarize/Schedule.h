//===- scalarize/Schedule.h - Per-nest parallelism plans --------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallelism decision of a nest of a LoopProgram
/// (xform::analyzeNestParallelism over the nest's UDVs, its reduction
/// flag and the dimensions its rolling buffers wrap), and the nests the
/// native kernels split across threads. Both backends that run nests
/// concurrently read these answers. The parallel executor runs every
/// parallel nest of planNest (exec::planParallelism). The C emitter runs
/// every nest of splitSchedule in chunks of its outer loop.
/// driver::Pipeline proves the same schedules race-free
/// (verify::verifyParallelSafety) at `--verify=full`.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_SCALARIZE_SCHEDULE_H
#define ALF_SCALARIZE_SCHEDULE_H

#include "scalarize/LoopIR.h"
#include "xform/Parallelize.h"

#include <cstdint>
#include <vector>

namespace alf {
namespace lir {

/// The per-node parallelism decisions for one LoopProgram, in node order
/// (non-nest nodes get a default sequential plan).
struct ParallelSchedule {
  std::vector<xform::NestParallelPlan> NodePlans;

  /// Number of nests that run some loop in parallel.
  unsigned numParallelNests() const;

  /// The plan of the \p I-th loop nest (skipping comm/opaque nodes), for
  /// tests that address nests positionally. Returns null when absent.
  const xform::NestParallelPlan *planForNest(const LoopProgram &LP,
                                             unsigned I) const;
};

/// The parallelism decision for \p Nest of \p LP.
xform::NestParallelPlan planNest(const LoopProgram &LP, const LoopNest &Nest);

/// Points a nest must iterate before the native kernels split it: one
/// dispatch on the shared pool costs 20-30 us, which a nest of fewer
/// points does not win back.
constexpr int64_t MinSplitPoints = int64_t(1) << 14;

/// The nests the native kernels split into chunks of their outer loop:
/// outer-parallel nests of at least MinSplitPoints points that assign no
/// program scalar and read each contracted scalar only after assigning
/// it, so every scalar they write can be a local of the chunk. Every
/// other node gets a sequential plan; reducing and inner-parallel nests
/// never split.
ParallelSchedule splitSchedule(const LoopProgram &LP);

} // namespace lir
} // namespace alf

#endif // ALF_SCALARIZE_SCHEDULE_H

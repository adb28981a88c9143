//===- exec/Interpreter.h - Concrete loop-nest interpreter -----*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a scalarized LoopProgram numerically. The interpreter is the
/// project's correctness oracle: every optimization strategy must produce
/// live-out values identical to the unoptimized baseline on the same
/// seeded inputs (fusion reorders iterations and contraction re-homes
/// values, but each element's arithmetic is unchanged, so results match
/// exactly). Property tests run random programs through every strategy.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_EXEC_INTERPRETER_H
#define ALF_EXEC_INTERPRETER_H

#include "exec/Storage.h"
#include "scalarize/LoopIR.h"

#include <map>
#include <string>
#include <vector>

namespace alf {
namespace exec {

/// The observable outcome of running a program: final contents of every
/// live-out array (full allocated buffer, which is identical across
/// strategies because footprints derive from the shared source program).
/// Each payload is the one the run allocated, moved out of its storage;
/// a copy of a RunResult copies its payloads to the heap.
struct RunResult {
  std::map<std::string, Payload> LiveOut;
  std::map<std::string, double> ScalarsOut; ///< reduction results etc.
};

/// Runs \p LP with inputs seeded by \p Seed. Contracted arrays get no
/// storage; live-in arrays and scalar parameters are seeded by name so
/// every strategy of the same program sees identical inputs.
RunResult run(const lir::LoopProgram &LP, uint64_t Seed);

/// Executes \p LP against caller-provided storage, in place: buffers and
/// scalars are read and written as they are, nothing is allocated or
/// seeded. The runtime engine uses this to rebind a cached loop program
/// to the live buffers of the current trace; `run` is allocate + this +
/// collectResults. \p Store must have a buffer for every allocated
/// (non-contracted) array of \p LP.
void runOnStorage(const lir::LoopProgram &LP, Storage &Store);

/// Compares two run results; on mismatch, describes the first difference
/// in \p WhyNot (when non-null). \p Tol is an absolute tolerance (0 for
/// exact comparison; optimization preserves bitwise results here).
bool resultsMatch(const RunResult &A, const RunResult &B, double Tol = 0.0,
                  std::string *WhyNot = nullptr);

} // namespace exec
} // namespace alf

#endif // ALF_EXEC_INTERPRETER_H

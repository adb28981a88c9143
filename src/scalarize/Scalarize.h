//===- scalarize/Scalarize.h - Scalarization ------------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scalarization (paper section 4.2): "generates a loop nest for each
/// fusible cluster in a fusion partition, where the loop nests and the
/// statements in the loop nests are ordered by a topological sort using
/// inter- and intra-fusible-cluster dependences, respectively". The loop
/// structure of each nest is the vector found by FIND-LOOP-STRUCTURE.
/// Arrays selected for contraction are rewritten to scalars (all their
/// references carry the same offset inside one nest, by Definition 6).
///
//===----------------------------------------------------------------------===//

#ifndef ALF_SCALARIZE_SCALARIZE_H
#define ALF_SCALARIZE_SCALARIZE_H

#include "scalarize/LoopIR.h"
#include "xform/Strategy.h"

#include <optional>
#include <string>

namespace alf {
namespace scalarize {

/// Lowers \p SR's fusion partition over \p G's program into loop nests,
/// contracting the arrays in \p SR.Contracted. A caller holding a graph
/// and a strategy calls scalarize(G, xform::applyStrategy(G, S)); a
/// compile of a whole program goes through driver::Pipeline::tryCompile,
/// which also builds the normal form and proves each product.
lir::LoopProgram scalarize(const analysis::ASDG &G,
                           const xform::StrategyResult &SR);

/// Status-returning variant of scalarize(): instead of aborting on a
/// partition the lowering cannot express (dependence cycle, a cluster
/// with no representable UDVs or no legal loop structure vector), returns
/// nullopt and describes the reason in \p Error (when non-null). The
/// native JIT and other recovering callers use this; scalarize() wraps it
/// and treats failure as an internal invariant violation.
std::optional<lir::LoopProgram>
scalarizeChecked(const analysis::ASDG &G, const xform::StrategyResult &SR,
                 std::string *Error = nullptr);

/// Applies \p S plus the lower-dimensional contraction extension (paper
/// section 5.2 future work): arrays whose dependences are carried only
/// along the sequential dimensions in \p Seq become rolling buffers.
lir::LoopProgram
scalarizeWithPartialContraction(const analysis::ASDG &G, xform::Strategy S,
                                const xform::SequentialDims &Seq);

/// Fault-injection modes for testing the safety checker, mirroring the
/// ASDG corruption hooks (analysis/ASDG.h) and setIlpCorruptionForTest:
/// each mode plants one memory-safety bug in the next scalarization.
enum class ScalarizeCorruption {
  None,
  /// Grows one nest's region by one along dimension 0, targeting a nest
  /// whose grown accesses provably escape an array's allocation (so the
  /// plant is never masked by another reference's halo).
  OffByOneBound,
  /// Drops the ⊕-identity initialization of one reduction accumulator.
  SkipAccumulatorInit,
  /// Shrinks the region of a nest writing a live-out array by one plane
  /// along dimension 0, truncating the copy-out the source promises.
  ShrunkenCopyOut,
};

/// Installs \p Mode for subsequent scalarizations. Never called by the
/// pipeline: VerifyTest and the StressSweepTest.SafetyAgrees sweep plant
/// one bug per mode and assert verify::verifySafety rejects the result
/// statically, before anything executes.
void setScalarizeCorruptionForTest(ScalarizeCorruption Mode);

/// Whether the most recent scalarization actually planted the installed
/// corruption. Each mode needs a suitable site (an edge-touching access,
/// a reduction accumulator, a live-out store); on generated programs
/// without one the hook is a no-op, and sweep tests use this to skip the
/// must-reject assertion rather than demand findings in a clean program.
bool scalarizeCorruptionAppliedForTest();

} // namespace scalarize
} // namespace alf

#endif // ALF_SCALARIZE_SCALARIZE_H

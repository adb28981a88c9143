//===- xform/Parallelize.h - UDV-based parallelization legality -*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decides which loop of a scalarized nest may run its iterations
/// concurrently. Fusion hands us the exact dependence structure of every
/// nest — the unconstrained distance vectors (Definition 2) of all
/// intra-cluster dependences — so the classic legality rule applies
/// directly: loop L of the nest may be parallelized iff every dependence
/// is either carried by a loop outer to L (some earlier component of the
/// constrained distance vector is nonzero) or independent of L (the L-th
/// component is zero). The analysis picks the outermost such loop:
/// level 0 means free outer-loop parallelism, a deeper level means the
/// outer loops run sequentially with a barrier per outer iteration
/// (tile-with-barriers), and no level means the nest stays sequential.
///
/// Two nest-level conditions override the distance test:
///  * a scalar reduction accumulator carries a dependence on every loop
///    (and splitting it would perturb floating-point association, which
///    the bit-identical oracle forbids), so reducing nests stay
///    sequential;
///  * a rolling buffer from partial contraction aliases iterations along
///    its reduced (modulo-indexed) dimensions, so loops over such
///    dimensions are not eligible.
///
/// Contracted scalars need no entry here: Definition 6 guarantees all of
/// their references carry the same offset, so their dependences are
/// loop-independent and each backend keeps them thread-private (the
/// parallel executor in per-tile overlays, the native kernels as locals
/// of the chunk function).
///
/// Two backends act on the decisions, which lir::planNest and
/// lir::splitSchedule (scalarize/Schedule.h) make for the nests of a loop
/// program: the parallel executor runs every parallel nest, with
/// barriers where needed; the native kernels run only the large
/// outer-parallel nests in chunks of their outer loop, with no barrier.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_XFORM_PARALLELIZE_H
#define ALF_XFORM_PARALLELIZE_H

#include "xform/LoopStructure.h"

#include <string>
#include <vector>

namespace alf {
namespace xform {

/// The decision made for one nest, in report-friendly form.
enum class ParallelDecision {
  OuterParallel, ///< outermost loop carries no dependence
  InnerParallel, ///< a deeper loop parallelized; barrier per outer iter
  SeqReduction,  ///< scalar reduction carries every loop
  SeqCarried,    ///< every loop carries a dependence or is wrapped
  SeqNoLoops,    ///< rank-0 nest: nothing to parallelize
};

/// Printable name ("outer-parallel", "inner-parallel", ...).
const char *getParallelDecisionName(ParallelDecision D);

/// Everything the legality test needs to know about one nest.
struct NestParallelInput {
  LoopStructureVector LSV;       ///< the nest's loop structure
  std::vector<ir::Offset> UDVs;  ///< intra-cluster unconstrained distances
  bool HasReduction = false;     ///< body folds into a scalar accumulator
  std::vector<bool> WrappedDims; ///< array dims aliased by rolling buffers
};

/// The plan for one nest: which loop level (0 = outermost) runs its
/// iterations concurrently, or -1 for sequential execution.
struct NestParallelPlan {
  int ParallelLoop = -1;
  ParallelDecision Decision = ParallelDecision::SeqNoLoops;
  std::string Reason; ///< one-line human-readable justification

  bool isParallel() const { return ParallelLoop >= 0; }

  /// True when outer loops run sequentially around the parallel loop,
  /// i.e. execution needs one barrier per outer iteration.
  bool needsBarriers() const { return ParallelLoop > 0; }
};

/// True iff loop \p Loop of \p LSV can run concurrently given \p UDVs:
/// every constrained distance vector either has a nonzero component at
/// some outer loop or a zero component at \p Loop.
bool isLoopParallelizable(const LoopStructureVector &LSV,
                          const std::vector<ir::Offset> &UDVs, unsigned Loop);

/// Picks the outermost legal parallel loop of a nest (see file comment).
NestParallelPlan analyzeNestParallelism(const NestParallelInput &In);

} // namespace xform
} // namespace alf

#endif // ALF_XFORM_PARALLELIZE_H

//===- xform/PartialContraction.h - Lower-dimensional contraction -*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's future-work extension: contraction of arrays to
/// *lower-dimensional* buffers. Section 5.2 observes that "SP contains a
/// great many opportunities to contract arrays to lower dimensional
/// arrays. Though the resulting arrays cannot be manipulated in
/// registers, they conserve memory and make better use of the cache",
/// and Definition 6's discussion notes that the null-distance condition
/// "may be relaxed when the dependence is along a dimension of the array
/// that is not distributed".
///
/// This module implements that relaxation. Given a set of *sequential*
/// (non-distributed) dimensions:
///
///  * fusion legality is extended (`isLegalFusionRelaxed`): intra-cluster
///    flow dependences may carry nonzero distance along sequential
///    dimensions (the loops over those dimensions run sequentially on
///    each processor, so such dependences do not inhibit parallelism);
///  * an array whose dependences all have zero distance along every
///    distributed dimension contracts to a rolling buffer: dimensions
///    iterated by loops outside the outermost dependence-carrying loop
///    shrink to extent 1, the carrying dimension shrinks to (max
///    distance + 1) planes addressed modulo, and inner dimensions keep
///    their full extent.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_XFORM_PARTIALCONTRACTION_H
#define ALF_XFORM_PARTIALCONTRACTION_H

#include "xform/FusionPartition.h"

#include <cstdint>
#include <vector>

namespace alf {
namespace xform {

/// Which array dimensions are sequential (not distributed across the
/// processor grid). The paper's default — every dimension distributed —
/// is `SequentialDims::none()`.
class SequentialDims {
  std::vector<bool> Seq;

public:
  /// All dimensions distributed (partial contraction disabled).
  static SequentialDims none() { return SequentialDims(); }

  /// Marks the given zero-based dimensions sequential.
  static SequentialDims dims(std::initializer_list<unsigned> Dims) {
    SequentialDims S;
    for (unsigned D : Dims) {
      if (D >= S.Seq.size())
        S.Seq.resize(D + 1, false);
      S.Seq[D] = true;
    }
    return S;
  }

  bool isSequential(unsigned D) const {
    return D < Seq.size() && Seq[D];
  }
};

/// The rolling-buffer shape chosen for one partially contracted array.
struct PartialPlan {
  const ir::ArraySymbol *Array = nullptr;
  std::vector<int64_t> OrigLo;        ///< footprint lower bound per dim
  std::vector<int64_t> FullExtents;   ///< footprint extents per dim
  std::vector<int64_t> BufferExtents; ///< chosen buffer extents per dim

  /// True when dimension \p D was reduced (indexed modulo BufferExtents).
  bool isReduced(unsigned D) const {
    return BufferExtents[D] < FullExtents[D];
  }

  /// Maps an absolute coordinate into the buffer along dimension \p D.
  int64_t wrap(unsigned D, int64_t Coord) const {
    if (!isReduced(D))
      return Coord;
    int64_t E = BufferExtents[D];
    int64_t Rel = (Coord - OrigLo[D]) % E;
    return Rel < 0 ? Rel + E : Rel;
  }

  uint64_t origBytes() const;
  uint64_t bufferBytes() const;

  /// The allocation bounds of the rolling buffer: [0..E-1] along reduced
  /// dimensions, the original footprint bounds elsewhere.
  ir::Region bufferRegion() const;
};

/// Definition 5 legality with condition (ii) relaxed for sequential
/// dimensions: intra-cluster flow dependences must have zero distance
/// along every *distributed* dimension, but may carry distance along
/// sequential ones. All other conditions are unchanged.
bool isLegalFusionRelaxed(const FusionPartition &P,
                          const std::set<unsigned> &C,
                          const SequentialDims &Seq,
                          LoopStructureVector *OutLSV = nullptr,
                          CandidateSet Set = CandidateSet::Arbitrary);

/// True if \p Var can be contracted to a rolling buffer under partition
/// \p P (Definition 6 with condition (ii) relaxed along sequential
/// dimensions). Fully contractible arrays (all distances null) also
/// satisfy this; callers typically handle them first.
bool isPartiallyContractible(const FusionPartition &P,
                             const std::set<unsigned> &C,
                             const ir::ArraySymbol *Var,
                             const SequentialDims &Seq);

/// Greedy fusion pass (the Figure 3 loop with the relaxed predicates)
/// that merges clusters to enable partial contraction of arrays that are
/// not already contractible. Returns the number of merges.
unsigned fuseForPartialContraction(FusionPartition &P,
                                   const SequentialDims &Seq);

/// Computes rolling-buffer plans for every array that is partially (but
/// not fully) contractible in the final partition \p P. \p Exclude lists
/// arrays already chosen for full contraction.
std::vector<PartialPlan>
planPartialContraction(const FusionPartition &P, const SequentialDims &Seq,
                       const std::vector<const ir::ArraySymbol *> &Exclude);

} // namespace xform
} // namespace alf

#endif // ALF_XFORM_PARTIALCONTRACTION_H

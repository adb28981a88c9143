//===- distsim/BlockDist.h - Block distribution geometry -------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Geometry of the block distribution the paper assumes ("here we assume
/// that all dimensions are distributed", section 2.2): each dimension of
/// the global index domain is split into near-equal contiguous blocks
/// across the processor grid.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_DISTSIM_BLOCKDIST_H
#define ALF_DISTSIM_BLOCKDIST_H

#include "machine/Machine.h"

#include <cstdint>
#include <vector>

namespace alf {
namespace distsim {

/// An inclusive 1-D index range; empty when Lo > Hi.
struct BlockRange {
  int64_t Lo = 0;
  int64_t Hi = -1;

  bool empty() const { return Lo > Hi; }
  int64_t extent() const { return empty() ? 0 : Hi - Lo + 1; }
};

/// The \p Part-th of \p Parts near-equal contiguous blocks of
/// [\p Lo, \p Hi]. Leading blocks absorb the remainder, matching the
/// usual BLOCK distribution.
BlockRange blockSlice(int64_t Lo, int64_t Hi, unsigned Parts, unsigned Part);

/// The part of blockSlice(\p Lo, \p Hi, \p Parts, ...) that holds \p X,
/// in O(1), or -1 when X lies outside [\p Lo, \p Hi].
int blockOwner(int64_t Lo, int64_t Hi, unsigned Parts, int64_t X);

/// A processor's coordinates in the grid, decoded from its linear rank
/// (row-major over ProcGrid::Extents).
std::vector<unsigned> procCoords(const machine::ProcGrid &Grid,
                                 unsigned Rank);

} // namespace distsim
} // namespace alf

#endif // ALF_DISTSIM_BLOCKDIST_H

//===- ir/Region.h - Rectangular index sets --------------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A `Region` is the rectangular index set `[l1..h1, ..., ln..hn]` that
/// defines the extent of a normalized array statement's computation (paper
/// section 2.1). Regions are interned by `Program`, so statements compare
/// regions by pointer; value equality is also provided.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_IR_REGION_H
#define ALF_IR_REGION_H

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace alf {
namespace ir {

/// A rank-n rectangular index set with inclusive per-dimension bounds.
class Region {
  std::vector<int64_t> Lo;
  std::vector<int64_t> Hi;

public:
  Region() = default;

  /// Constructs the region [Lo1..Hi1, ..., Lon..Hin]. Each dimension must be
  /// nonempty.
  Region(std::vector<int64_t> LoBounds, std::vector<int64_t> HiBounds)
      : Lo(std::move(LoBounds)), Hi(std::move(HiBounds)) {
    assert(Lo.size() == Hi.size() && "mismatched bound ranks");
    for (size_t D = 0; D < Lo.size(); ++D)
      assert(Lo[D] <= Hi[D] && "empty region dimension");
  }

  /// Constructs the region [1..E1, ..., 1..En] from per-dimension extents,
  /// matching the paper's canonical regions.
  static Region fromExtents(const std::vector<int64_t> &Extents) {
    std::vector<int64_t> LoBounds(Extents.size(), 1);
    return Region(std::move(LoBounds), Extents);
  }

  unsigned rank() const { return static_cast<unsigned>(Lo.size()); }

  int64_t lo(unsigned D) const {
    assert(D < Lo.size() && "region dimension out of range");
    return Lo[D];
  }

  int64_t hi(unsigned D) const {
    assert(D < Hi.size() && "region dimension out of range");
    return Hi[D];
  }

  /// Number of indices along dimension \p D.
  int64_t extent(unsigned D) const { return hi(D) - lo(D) + 1; }

  /// Total number of index tuples in the region, saturated at INT64_MAX
  /// when the product overflows (storage allocation then rejects the
  /// region with std::length_error).
  int64_t size() const {
    int64_t Product = 1;
    for (unsigned D = 0; D < rank(); ++D)
      if (__builtin_mul_overflow(Product, extent(D), &Product))
        return INT64_MAX;
    return Product;
  }

  bool operator==(const Region &RHS) const {
    return Lo == RHS.Lo && Hi == RHS.Hi;
  }
  bool operator!=(const Region &RHS) const { return !(*this == RHS); }

  /// Renders as "[l1..h1,l2..h2]".
  std::string str() const;
};

/// Calls \p Visit(Idx) at every point of \p R in row-major order, the last
/// dimension fastest (once, at the empty index, for a rank-0 region).
template <typename Fn> void forEachPoint(const Region &R, Fn &&Visit) {
  std::vector<int64_t> Idx(R.rank());
  for (unsigned D = 0; D < R.rank(); ++D)
    Idx[D] = R.lo(D);
  for (;;) {
    Visit(static_cast<const std::vector<int64_t> &>(Idx));
    unsigned D = R.rank();
    while (D > 0 && Idx[D - 1] == R.hi(D - 1)) {
      --D;
      Idx[D] = R.lo(D);
    }
    if (D == 0)
      return;
    ++Idx[D - 1];
  }
}

} // namespace ir
} // namespace alf

#endif // ALF_IR_REGION_H

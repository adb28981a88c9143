//===- analysis/Footprint.h - Array allocation bounds ----------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes, for each array of a program, the rectangular index set the
/// program actually touches: the union over all references of the
/// statement's region shifted by the reference offset. A LoopProgram
/// records these bounds as its arrays' storage (offset references reach
/// outside the statement region, the "halo"), and the memory-accounting
/// experiment (Figure 8) sizes arrays from them.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_ANALYSIS_FOOTPRINT_H
#define ALF_ANALYSIS_FOOTPRINT_H

#include "ir/Program.h"
#include "ir/Region.h"

#include <map>

namespace alf {
namespace analysis {

/// Allocation bounds per array (by symbol id). Arrays referenced only by
/// opaque/communication statements get the enclosing statement's region
/// when available.
class FootprintInfo {
  std::map<unsigned, ir::Region> Bounds;

public:
  static FootprintInfo compute(const ir::Program &P);

  /// Returns the allocation bounds of \p A, or null when the program never
  /// gives it a footprint (unreferenced array).
  const ir::Region *boundsFor(const ir::ArraySymbol *A) const {
    auto It = Bounds.find(A->getId());
    return It == Bounds.end() ? nullptr : &It->second;
  }

  /// Total bytes needed to allocate \p A (0 when unreferenced).
  uint64_t bytesFor(const ir::ArraySymbol *A) const {
    const ir::Region *R = boundsFor(A);
    if (!R)
      return 0;
    return static_cast<uint64_t>(R->size()) * A->getElemSize();
  }
};

} // namespace analysis
} // namespace alf

#endif // ALF_ANALYSIS_FOOTPRINT_H

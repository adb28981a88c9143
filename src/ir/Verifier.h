//===- ir/Verifier.h - Normal-form and program invariants ------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one definition of a well-formed program. The verifier enforces the
/// paper's normal-form conditions (section 2.1) on every normalized
/// statement of a Program:
///   (i)  the same array is not both read and written,
///   (ii) all arrays in a statement have the rank of the statement's region,
///   (iii) all references are constant offsets from the region (guaranteed
///        structurally by `ArrayRefExpr`, re-checked for rank agreement),
/// and the same rank rules on reductions, plus structural invariants:
/// dense ids; a non-null, nonempty, rectangular region of rank at least 1
/// under every normalized and reduce statement; comm directions of their
/// array's rank; region extents and region bounds shifted by each offset
/// that fit int64_t; and offset elements within +-(2^30 - 1), so every
/// UDV (`source offset - target offset`) fits int32_t.
///
/// Pipeline::tryCompile gates analysis on it, and verification pass 1
/// (verify::verifyStructure) reports each violation as a finding.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_IR_VERIFIER_H
#define ALF_IR_VERIFIER_H

#include <string>
#include <vector>

namespace alf {
namespace ir {

class Program;

/// Returns a list of human-readable invariant violations; empty means the
/// program is well formed.
std::vector<std::string> verifyProgram(const Program &P);

/// Convenience wrapper: true when verifyProgram reports no violations.
bool isWellFormed(const Program &P);

} // namespace ir
} // namespace alf

#endif // ALF_IR_VERIFIER_H

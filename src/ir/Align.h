//===- ir/Align.h - Statement alignment canonicalization -------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Alignment canonicalization. The paper's normal form makes "the
/// alignment of arrays explicit. All array references are perfectly
/// aligned except for vector offsets" (section 2.1). A statement written
/// with an offset assignment target,
///
///   [R] A@d := f(B@e1, C@e2);
///
/// denotes the same element-wise computation as the canonical
///
///   [R+d] A := f(B@(e1-d), C@(e2-d));
///
/// where R+d shifts the region by d. Canonicalizing the target offset to
/// zero aligns statements that compute over the same index set of their
/// output array, enabling fusions (and hence contractions) that the
/// as-written regions would block — condition (i) of Definition 5
/// compares regions, and two statements writing A over the same elements
/// through different region/offset decompositions would otherwise never
/// fuse.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_IR_ALIGN_H
#define ALF_IR_ALIGN_H

namespace alf {
namespace ir {

class Program;

/// Rewrites every normalized statement with a nonzero target offset into
/// the equivalent zero-target-offset form (shifted region, adjusted
/// reference offsets), in place. Returns the number of statements
/// rewritten. driver::Pipeline runs it before normalization and
/// dependence analysis; semantics are unchanged.
/// It runs before ir::verifyProgram, so a statement whose shifted bounds
/// would leave int64_t, or whose shifted offsets would leave int32_t, is
/// left as written for the verifier to reject.
unsigned alignProgram(Program &P);

} // namespace ir
} // namespace alf

#endif // ALF_IR_ALIGN_H

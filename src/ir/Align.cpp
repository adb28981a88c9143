//===- ir/Align.cpp - Statement alignment canonicalization -----------------===//

#include "ir/Align.h"

#include "ir/Program.h"

using namespace alf;
using namespace alf::ir;

unsigned ir::alignProgram(Program &P) {
  unsigned Rewritten = 0;
  for (unsigned Pos = 0; Pos < P.numStmts(); ++Pos) {
    auto *S = dyn_cast<NormalizedStmt>(P.getStmt(Pos));
    if (!S || S->getLHSOffset().isZero())
      continue;

    Offset D = S->getLHSOffset();
    const Region &R = *S->getRegion();

    // Shifted region R+d. A shift that overflows leaves the statement as
    // written, for ir::verifyProgram to reject.
    std::vector<int64_t> Lo(R.rank()), Hi(R.rank());
    bool Overflows = false;
    for (unsigned Dim = 0; Dim < R.rank(); ++Dim)
      Overflows |= __builtin_add_overflow(R.lo(Dim), D[Dim], &Lo[Dim]) ||
                   __builtin_add_overflow(R.hi(Dim), D[Dim], &Hi[Dim]);

    // References shift the other way: e' = e - d.
    for (const ArrayRefExpr *Ref : S->rhsArrayRefs()) {
      const Offset &E = Ref->getOffset();
      int32_t Elem;
      for (unsigned Dim = 0; Dim < D.rank(); ++Dim)
        Overflows |= __builtin_sub_overflow(E[Dim], D[Dim], &Elem);
    }
    if (Overflows)
      continue;

    const Region *Shifted = P.internRegion(Region(std::move(Lo), std::move(Hi)));
    ExprPtr NewRHS = cloneExprRewriting(
        S->getRHS(), [&D](const ArrayRefExpr &Ref) -> ExprPtr {
          return aref(Ref.getSymbol(), Ref.getOffset() - D);
        });

    auto Replacement = std::make_unique<NormalizedStmt>(
        Shifted, S->getLHS(), Offset::zero(D.rank()), std::move(NewRHS));
    P.removeStmt(Pos);
    P.insertStmt(Pos, std::move(Replacement));
    ++Rewritten;
  }
  return Rewritten;
}

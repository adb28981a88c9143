//===- ir/Verifier.cpp - Normal-form and program invariants ----------------===//

#include "ir/Verifier.h"

#include "ir/Program.h"
#include "support/StringUtil.h"

using namespace alf;
using namespace alf::ir;

namespace {

/// True when every extent of \p R fits int64_t.
bool extentsFit(const Region &R) {
  for (unsigned D = 0; D < R.rank(); ++D) {
    int64_t Extent;
    if (__builtin_sub_overflow(R.hi(D), R.lo(D), &Extent) ||
        __builtin_add_overflow(Extent, 1, &Extent))
      return false;
  }
  return true;
}

/// True when \p R's bounds shifted by \p Off fit int64_t (an offset of
/// the wrong rank is reported as a rank mismatch instead).
bool shiftedBoundsFit(const Region &R, const Offset &Off) {
  if (Off.rank() != R.rank())
    return true;
  for (unsigned D = 0; D < R.rank(); ++D) {
    int64_t Bound;
    if (__builtin_add_overflow(R.lo(D), Off[D], &Bound) ||
        __builtin_add_overflow(R.hi(D), Off[D], &Bound))
      return false;
  }
  return true;
}

} // namespace

std::vector<std::string> ir::verifyProgram(const Program &P) {
  std::vector<std::string> Errors;
  auto Report = [&Errors](std::string Msg) { Errors.push_back(std::move(Msg)); };
  // Footprints, storage layouts and region sizes compute with a
  // statement's extents and its region bounds plus reference offsets;
  // reject the program before any of that arithmetic can overflow.
  auto CheckExtents = [&Report](const Stmt *S, const Region &R) {
    if (!extentsFit(R))
      Report(formatString("S%u: region %s has an extent that does not fit "
                          "int64_t",
                          S->getId(), R.str().c_str()));
  };
  auto CheckShift = [&Report](const Stmt *S, const Region &R,
                              const ArraySymbol *A, const Offset &Off) {
    if (!shiftedBoundsFit(R, Off))
      Report(formatString("S%u: %s%s reaches an index that does not fit "
                          "int64_t",
                          S->getId(), A->getName().c_str(), Off.str().c_str()));
  };

  unsigned ExpectedId = 0;
  for (const Stmt *S : P.stmts()) {
    if (S->getId() != ExpectedId)
      Report(formatString("statement at position %u has id %u", ExpectedId,
                          S->getId()));
    ++ExpectedId;

    if (const auto *OS = dyn_cast<OpaqueStmt>(S)) {
      if (OS->getRegion())
        CheckExtents(S, *OS->getRegion());
      continue;
    }

    if (const auto *RS = dyn_cast<ReduceStmt>(S)) {
      const Region *R = RS->getRegion();
      unsigned Rank = R->rank();
      CheckExtents(S, *R);
      for (const ArrayRefExpr *Ref : RS->bodyArrayRefs()) {
        CheckShift(S, *R, Ref->getSymbol(), Ref->getOffset());
        if (Ref->getSymbol()->getRank() != Rank)
          Report(formatString(
              "S%u: reduction reads %s of rank %u under a rank-%u region",
              S->getId(), Ref->getSymbol()->getName().c_str(),
              Ref->getSymbol()->getRank(), Rank));
        if (Ref->getOffset().rank() != Ref->getSymbol()->getRank())
          Report(formatString("S%u: offset rank mismatch on reference to %s",
                              S->getId(),
                              Ref->getSymbol()->getName().c_str()));
      }
      continue;
    }

    const auto *NS = dyn_cast<NormalizedStmt>(S);
    if (!NS)
      continue;

    const Region *R = NS->getRegion();
    if (!R) {
      Report(formatString("S%u: normalized statement without a region",
                          S->getId()));
      continue;
    }
    unsigned Rank = R->rank();
    CheckExtents(S, *R);
    CheckShift(S, *R, NS->getLHS(), NS->getLHSOffset());

    // Condition (ii): common rank across the statement.
    if (NS->getLHS()->getRank() != Rank)
      Report(formatString("S%u: LHS %s has rank %u but region has rank %u",
                          S->getId(), NS->getLHS()->getName().c_str(),
                          NS->getLHS()->getRank(), Rank));
    if (NS->getLHSOffset().rank() != Rank)
      Report(formatString("S%u: LHS offset rank mismatch", S->getId()));

    for (const ArrayRefExpr *Ref : NS->rhsArrayRefs()) {
      CheckShift(S, *R, Ref->getSymbol(), Ref->getOffset());
      if (Ref->getSymbol()->getRank() != Rank)
        Report(formatString(
            "S%u: reference to %s has rank %u but region has rank %u",
            S->getId(), Ref->getSymbol()->getName().c_str(),
            Ref->getSymbol()->getRank(), Rank));
      // Condition (iii): constant-offset references; structurally true, but
      // the offset must agree with the array's rank.
      if (Ref->getOffset().rank() != Ref->getSymbol()->getRank())
        Report(formatString("S%u: offset rank mismatch on reference to %s",
                            S->getId(), Ref->getSymbol()->getName().c_str()));
      // Condition (i): no array is both read and written.
      if (Ref->getSymbol() == NS->getLHS())
        Report(formatString(
            "S%u: array %s is both read and written (normal-form "
            "condition (i)); run normalizeProgram first",
            S->getId(), NS->getLHS()->getName().c_str()));
    }
  }
  return Errors;
}

bool ir::isWellFormed(const Program &P) { return verifyProgram(P).empty(); }

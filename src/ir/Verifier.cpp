//===- ir/Verifier.cpp - Normal-form and program invariants ----------------===//

#include "ir/Verifier.h"

#include "ir/Program.h"
#include "support/StringUtil.h"

using namespace alf;
using namespace alf::ir;

namespace {

/// Offsets are int32_t and a UDV is `source offset - target offset`, so a
/// bound of 2^30 - 1 on every offset element keeps every UDV in int32_t.
constexpr int32_t MaxOffset = (1 << 30) - 1;

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

/// True when \p R's bounds shifted by \p Off (of \p R's rank) fit int64_t.
bool shiftedBoundsFit(const Region &R, const Offset &Off) {
  for (unsigned D = 0; D < R.rank(); ++D) {
    int64_t Bound;
    if (__builtin_add_overflow(R.lo(D), Off[D], &Bound) ||
        __builtin_add_overflow(R.hi(D), Off[D], &Bound))
      return false;
  }
  return true;
}

bool offsetInRange(const Offset &Off) {
  for (unsigned D = 0; D < Off.rank(); ++D)
    if (Off[D] < -MaxOffset || Off[D] > MaxOffset)
      return false;
  return true;
}

/// Collects the violations of one program, statement by statement.
class Checker {
  std::vector<std::string> &Errors;

  void report(const Stmt &S, const std::string &Msg) {
    Errors.push_back(formatString("S%u: %s", S.getId(), Msg.c_str()));
  }

  /// \p S's region is non-null, of rank at least 1, rectangular (every
  /// dimension a nonempty inclusive interval: the Region constructor
  /// asserts this, but asserts vanish under NDEBUG) and has extents that
  /// fit int64_t. Returns false when there is no region of rank at least
  /// 1 to check \p S's accesses against.
  bool checkRegion(const Stmt &S, const Region *R, const char *Kind) {
    if (!R) {
      report(S, formatString("%s without a region", Kind));
      return false;
    }
    if (R->rank() == 0) {
      report(S, "region of rank 0");
      return false;
    }
    for (unsigned D = 0; D < R->rank(); ++D)
      if (R->lo(D) > R->hi(D))
        report(S, formatString("empty region dimension %u (%lld..%lld)", D,
                               static_cast<long long>(R->lo(D)),
                               static_cast<long long>(R->hi(D))));
    checkExtents(S, *R);
    return true;
  }

  /// Footprints, storage layouts and region sizes compute with a
  /// statement's extents and its region bounds plus reference offsets;
  /// reject the program before any of that arithmetic can overflow.
  void checkExtents(const Stmt &S, const Region &R) {
    if (!extentsFit(R))
      report(S, formatString("region %s has an extent that does not fit "
                             "int64_t",
                             R.str().c_str()));
  }

  /// Condition (iii): the offset of \p A@Off is constant (structurally
  /// true) and has \p A's rank, each element is within MaxOffset, and
  /// the region \p R shifted by it fits int64_t.
  void checkOffset(const Stmt &S, const Region &R, const ArraySymbol *A,
                   const Offset &Off) {
    if (Off.rank() != A->getRank()) {
      report(S, formatString("offset rank mismatch on reference to %s",
                             A->getName().c_str()));
      return;
    }
    if (!offsetInRange(Off))
      report(S, formatString("%s%s has an offset element outside -%d..%d",
                             A->getName().c_str(), Off.str().c_str(),
                             MaxOffset, MaxOffset));
    if (Off.rank() == R.rank() && !shiftedBoundsFit(R, Off))
      report(S, formatString("%s%s reaches an index that does not fit "
                             "int64_t",
                             A->getName().c_str(), Off.str().c_str()));
  }

  void check(const NormalizedStmt &NS) {
    const Region *R = NS.getRegion();
    if (!checkRegion(NS, R, "normalized statement"))
      return;
    unsigned Rank = R->rank();
    const ArraySymbol *LHS = NS.getLHS();
    // Condition (ii): common rank across the statement.
    if (LHS->getRank() != Rank)
      report(NS, formatString("LHS %s has rank %u but region has rank %u",
                              LHS->getName().c_str(), LHS->getRank(), Rank));
    checkOffset(NS, *R, LHS, NS.getLHSOffset());
    for (const ArrayRefExpr *Ref : NS.rhsArrayRefs()) {
      const ArraySymbol *A = Ref->getSymbol();
      if (A->getRank() != Rank)
        report(NS, formatString("reference to %s has rank %u but region "
                                "has rank %u",
                                A->getName().c_str(), A->getRank(), Rank));
      checkOffset(NS, *R, A, Ref->getOffset());
      // Condition (i): no array is both read and written.
      if (A == LHS)
        report(NS, formatString("array %s is both read and written "
                                "(normal-form condition (i)); run "
                                "normalizeProgram first",
                                LHS->getName().c_str()));
    }
  }

  void check(const ReduceStmt &RS) {
    const Region *R = RS.getRegion();
    if (!checkRegion(RS, R, "reduction"))
      return;
    for (const ArrayRefExpr *Ref : RS.bodyArrayRefs()) {
      const ArraySymbol *A = Ref->getSymbol();
      if (A->getRank() != R->rank())
        report(RS, formatString("reduction reads %s of rank %u under a "
                                "rank-%u region",
                                A->getName().c_str(), A->getRank(),
                                R->rank()));
      checkOffset(RS, *R, A, Ref->getOffset());
    }
  }

  void check(const CommStmt &CS) {
    if (CS.getDir().rank() != CS.getArray()->getRank())
      report(CS, formatString("comm direction rank %u != array %s rank %u",
                              CS.getDir().rank(),
                              CS.getArray()->getName().c_str(),
                              CS.getArray()->getRank()));
  }

  /// An opaque statement's accesses carry no offsets, and it may have no
  /// region (scalar-only work).
  void check(const OpaqueStmt &OS) {
    if (OS.getRegion())
      checkExtents(OS, *OS.getRegion());
  }

public:
  explicit Checker(std::vector<std::string> &Errors) : Errors(Errors) {}

  void check(const Program &P) {
    unsigned ExpectedId = 0;
    for (const Stmt *S : P.stmts()) {
      if (S->getId() != ExpectedId)
        Errors.push_back(formatString("statement at position %u has id %u",
                                      ExpectedId, S->getId()));
      ++ExpectedId;
      if (const auto *NS = dyn_cast<NormalizedStmt>(S))
        check(*NS);
      else if (const auto *RS = dyn_cast<ReduceStmt>(S))
        check(*RS);
      else if (const auto *CS = dyn_cast<CommStmt>(S))
        check(*CS);
      else if (const auto *OS = dyn_cast<OpaqueStmt>(S))
        check(*OS);
    }
  }
};

} // namespace

std::vector<std::string> ir::verifyProgram(const Program &P) {
  std::vector<std::string> Errors;
  Checker(Errors).check(P);
  return Errors;
}

bool ir::isWellFormed(const Program &P) { return verifyProgram(P).empty(); }

//===- ir/Stmt.cpp - Array-level statements -------------------------------===//

#include "ir/Stmt.h"

#include "support/StringUtil.h"

using namespace alf;
using namespace alf::ir;

Stmt::~Stmt() = default;

//===----------------------------------------------------------------------===//
// NormalizedStmt
//===----------------------------------------------------------------------===//

bool NormalizedStmt::readsArray(const ArraySymbol *Sym) const {
  for (const ArrayRefExpr *Ref : rhsArrayRefs())
    if (Ref->getSymbol() == Sym)
      return true;
  return false;
}

void NormalizedStmt::getAccesses(std::vector<Access> &Out) const {
  Out.push_back(Access{LHS, LHSOff, /*IsWrite=*/true});
  walkExpr(RHS.get(), [&Out](const Expr *E) {
    if (const auto *Ref = dyn_cast<ArrayRefExpr>(E)) {
      Out.push_back(Access{Ref->getSymbol(), Ref->getOffset(),
                           /*IsWrite=*/false});
      return;
    }
    if (const auto *Ref = dyn_cast<ScalarRefExpr>(E))
      Out.push_back(Access{Ref->getSymbol(), std::nullopt,
                           /*IsWrite=*/false});
  });
}

std::string NormalizedStmt::str() const {
  std::string LHSText = LHS->getName();
  if (!LHSOff.isZero())
    LHSText += LHSOff.str();
  return R->str() + " " + LHSText + " := " + RHS->str() + ";";
}

//===----------------------------------------------------------------------===//
// ReduceStmt
//===----------------------------------------------------------------------===//

const semiring::Semiring &ReduceStmt::canonical(ReduceOpKind Op) {
  switch (Op) {
  case ReduceOpKind::Sum:
    return semiring::plusTimes();
  case ReduceOpKind::Min:
    return semiring::minPlus();
  case ReduceOpKind::Max:
    // max-plus, not max-times: a plain max<< must be lawful (and keep its
    // -inf identity) over arbitrary-sign data, which max-times is not.
    return semiring::maxPlus();
  case ReduceOpKind::Or:
    return semiring::orAnd();
  }
  return semiring::plusTimes();
}

void ReduceStmt::getAccesses(std::vector<Access> &Out) const {
  Out.push_back(Access{Acc, std::nullopt, /*IsWrite=*/true});
  walkExpr(Body.get(), [&Out](const Expr *E) {
    if (const auto *Ref = dyn_cast<ArrayRefExpr>(E)) {
      Out.push_back(Access{Ref->getSymbol(), Ref->getOffset(),
                           /*IsWrite=*/false});
      return;
    }
    if (const auto *Ref = dyn_cast<ScalarRefExpr>(E))
      Out.push_back(Access{Ref->getSymbol(), std::nullopt,
                           /*IsWrite=*/false});
  });
}

std::string ReduceStmt::str() const {
  return R->str() + " " + Acc->getName() + " := " + SR->plusName() +
         "<< " + Body->str() + ";";
}

//===----------------------------------------------------------------------===//
// CommStmt
//===----------------------------------------------------------------------===//

void CommStmt::getAccesses(std::vector<Access> &Out) const {
  // A halo exchange consumes the producer's values and produces the values
  // every consumer at this offset reads: model it as an unrepresentable
  // read + write of the array.
  Out.push_back(Access{Array, std::nullopt, /*IsWrite=*/false});
  Out.push_back(Access{Array, std::nullopt, /*IsWrite=*/true});
}

std::string CommStmt::str() const {
  const char *PhaseName = "exchange";
  switch (Phase) {
  case CommPhase::Whole:
    PhaseName = "exchange";
    break;
  case CommPhase::Send:
    PhaseName = "send";
    break;
  case CommPhase::Recv:
    PhaseName = "recv";
    break;
  }
  return formatString("comm.%s %s%s;", PhaseName, Array->getName().c_str(),
                      Dir.str().c_str());
}

//===----------------------------------------------------------------------===//
// OpaqueStmt
//===----------------------------------------------------------------------===//

void OpaqueStmt::getAccesses(std::vector<Access> &Out) const {
  for (const ArraySymbol *A : ArrayReads)
    Out.push_back(Access{A, std::nullopt, /*IsWrite=*/false});
  for (const ArraySymbol *A : ArrayWrites)
    Out.push_back(Access{A, std::nullopt, /*IsWrite=*/true});
  for (const ScalarSymbol *S : ScalarReads)
    Out.push_back(Access{S, std::nullopt, /*IsWrite=*/false});
  for (const ScalarSymbol *S : ScalarWrites)
    Out.push_back(Access{S, std::nullopt, /*IsWrite=*/true});
}

std::string OpaqueStmt::str() const {
  std::vector<std::string> Reads, Writes;
  for (const ArraySymbol *A : ArrayReads)
    Reads.push_back(A->getName());
  for (const ScalarSymbol *S : ScalarReads)
    Reads.push_back(S->getName());
  for (const ArraySymbol *A : ArrayWrites)
    Writes.push_back(A->getName());
  for (const ScalarSymbol *S : ScalarWrites)
    Writes.push_back(S->getName());
  return formatString("opaque \"%s\" reads(%s) writes(%s);", Desc.c_str(),
                      join(Reads, ", ").c_str(), join(Writes, ", ").c_str());
}

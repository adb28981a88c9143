//===- ir/Expr.cpp - Element-wise expression trees ------------------------===//

#include "ir/Expr.h"

#include "support/ErrorHandling.h"
#include "support/StringUtil.h"

#include <cmath>

using namespace alf;
using namespace alf::ir;

Expr::~Expr() = default;

//===----------------------------------------------------------------------===//
// ConstExpr
//===----------------------------------------------------------------------===//

ExprPtr ConstExpr::clone() const { return cst(Value); }

std::string ConstExpr::str() const { return formatString("%g", Value); }

//===----------------------------------------------------------------------===//
// ScalarRefExpr
//===----------------------------------------------------------------------===//

ExprPtr ScalarRefExpr::clone() const { return sref(Sym); }

std::string ScalarRefExpr::str() const { return Sym->getName(); }

//===----------------------------------------------------------------------===//
// ArrayRefExpr
//===----------------------------------------------------------------------===//

ExprPtr ArrayRefExpr::clone() const { return aref(Sym, Off); }

std::string ArrayRefExpr::str() const {
  if (Off.isZero())
    return Sym->getName();
  return Sym->getName() + Off.str();
}

//===----------------------------------------------------------------------===//
// UnaryExpr
//===----------------------------------------------------------------------===//

double UnaryExpr::evaluate(Opcode Op, double V) {
  switch (Op) {
  case Opcode::Neg:
    return -V;
  case Opcode::Abs:
    return std::fabs(V);
  case Opcode::Sqrt:
    return std::sqrt(std::fabs(V));
  case Opcode::Exp:
    return std::exp(std::fmin(V, 40.0));
  case Opcode::Log:
    return std::log(std::fabs(V) + 1e-12);
  case Opcode::Sin:
    return std::sin(V);
  case Opcode::Cos:
    return std::cos(V);
  case Opcode::Recip:
    return 1.0 / (V + (V >= 0 ? 1e-12 : -1e-12));
  }
  alf_unreachable("unhandled unary opcode");
}

const char *UnaryExpr::getOpcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Neg:
    return "-";
  case Opcode::Abs:
    return "abs";
  case Opcode::Sqrt:
    return "sqrt";
  case Opcode::Exp:
    return "exp";
  case Opcode::Log:
    return "log";
  case Opcode::Sin:
    return "sin";
  case Opcode::Cos:
    return "cos";
  case Opcode::Recip:
    return "recip";
  }
  alf_unreachable("unhandled unary opcode");
}

ExprPtr UnaryExpr::clone() const {
  return std::make_unique<UnaryExpr>(Op, Operand->clone());
}

std::string UnaryExpr::str() const {
  if (Op == Opcode::Neg)
    return std::string("-(") + Operand->str() + ")";
  return std::string(getOpcodeName(Op)) + "(" + Operand->str() + ")";
}

//===----------------------------------------------------------------------===//
// BinaryExpr
//===----------------------------------------------------------------------===//

double BinaryExpr::evaluate(Opcode Op, double L, double R) {
  switch (Op) {
  case Opcode::Add:
    return L + R;
  case Opcode::Sub:
    return L - R;
  case Opcode::Mul:
    return L * R;
  case Opcode::Div:
    return L / (R + (R >= 0 ? 1e-12 : -1e-12));
  case Opcode::Min:
    return std::fmin(L, R);
  case Opcode::Max:
    return std::fmax(L, R);
  }
  alf_unreachable("unhandled binary opcode");
}

const char *BinaryExpr::getOpcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Add:
    return "+";
  case Opcode::Sub:
    return "-";
  case Opcode::Mul:
    return "*";
  case Opcode::Div:
    return "/";
  case Opcode::Min:
    return "min";
  case Opcode::Max:
    return "max";
  }
  alf_unreachable("unhandled binary opcode");
}

ExprPtr BinaryExpr::clone() const {
  return std::make_unique<BinaryExpr>(Op, LHS->clone(), RHS->clone());
}

std::string BinaryExpr::str() const {
  const char *Name = getOpcodeName(Op);
  if (Op == Opcode::Min || Op == Opcode::Max)
    return std::string(Name) + "(" + LHS->str() + ", " + RHS->str() + ")";
  return "(" + LHS->str() + " " + Name + " " + RHS->str() + ")";
}

//===----------------------------------------------------------------------===//
// Tree utilities
//===----------------------------------------------------------------------===//

std::vector<const ArrayRefExpr *> ir::collectArrayRefs(const Expr *Root) {
  std::vector<const ArrayRefExpr *> Refs;
  walkExpr(Root, [&Refs](const Expr *E) {
    if (const auto *Ref = dyn_cast<ArrayRefExpr>(E))
      Refs.push_back(Ref);
  });
  return Refs;
}

std::vector<const ScalarSymbol *> ir::collectScalarRefs(const Expr *Root) {
  std::vector<const ScalarSymbol *> Refs;
  walkExpr(Root, [&Refs](const Expr *E) {
    if (const auto *Ref = dyn_cast<ScalarRefExpr>(E))
      Refs.push_back(Ref->getSymbol());
  });
  return Refs;
}

unsigned ir::countOps(const Expr *Root) {
  unsigned Count = 0;
  walkExpr(Root, [&Count](const Expr *E) {
    if (isa<UnaryExpr>(E) || isa<BinaryExpr>(E))
      ++Count;
  });
  return Count;
}

ExprPtr ir::cloneExprRewriting(
    const Expr *Root,
    const std::function<ExprPtr(const ArrayRefExpr &)> &RewriteArray) {
  if (const auto *Ref = dyn_cast<ArrayRefExpr>(Root)) {
    if (ExprPtr Replacement = RewriteArray(*Ref))
      return Replacement;
    return Root->clone();
  }
  if (const auto *U = dyn_cast<UnaryExpr>(Root))
    return std::make_unique<UnaryExpr>(
        U->getOpcode(), cloneExprRewriting(U->getOperand(), RewriteArray));
  if (const auto *B = dyn_cast<BinaryExpr>(Root))
    return std::make_unique<BinaryExpr>(
        B->getOpcode(), cloneExprRewriting(B->getLHS(), RewriteArray),
        cloneExprRewriting(B->getRHS(), RewriteArray));
  return Root->clone();
}

//===----------------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------------===//

ExprPtr ir::cst(double Value) { return std::make_unique<ConstExpr>(Value); }

ExprPtr ir::sref(const ScalarSymbol *Sym) {
  return std::make_unique<ScalarRefExpr>(Sym);
}

ExprPtr ir::aref(const ArraySymbol *Sym, Offset Off) {
  assert(Sym->getRank() == Off.rank() && "offset rank must match array rank");
  return std::make_unique<ArrayRefExpr>(Sym, std::move(Off));
}

ExprPtr ir::aref(const ArraySymbol *Sym) {
  return aref(Sym, Offset::zero(Sym->getRank()));
}

static ExprPtr makeBinary(BinaryExpr::Opcode Op, ExprPtr L, ExprPtr R) {
  return std::make_unique<BinaryExpr>(Op, std::move(L), std::move(R));
}

static ExprPtr makeUnary(UnaryExpr::Opcode Op, ExprPtr E) {
  return std::make_unique<UnaryExpr>(Op, std::move(E));
}

ExprPtr ir::add(ExprPtr L, ExprPtr R) {
  return makeBinary(BinaryExpr::Opcode::Add, std::move(L), std::move(R));
}
ExprPtr ir::sub(ExprPtr L, ExprPtr R) {
  return makeBinary(BinaryExpr::Opcode::Sub, std::move(L), std::move(R));
}
ExprPtr ir::mul(ExprPtr L, ExprPtr R) {
  return makeBinary(BinaryExpr::Opcode::Mul, std::move(L), std::move(R));
}
ExprPtr ir::div(ExprPtr L, ExprPtr R) {
  return makeBinary(BinaryExpr::Opcode::Div, std::move(L), std::move(R));
}
ExprPtr ir::emin(ExprPtr L, ExprPtr R) {
  return makeBinary(BinaryExpr::Opcode::Min, std::move(L), std::move(R));
}
ExprPtr ir::emax(ExprPtr L, ExprPtr R) {
  return makeBinary(BinaryExpr::Opcode::Max, std::move(L), std::move(R));
}
ExprPtr ir::neg(ExprPtr E) {
  return makeUnary(UnaryExpr::Opcode::Neg, std::move(E));
}
ExprPtr ir::esqrt(ExprPtr E) {
  return makeUnary(UnaryExpr::Opcode::Sqrt, std::move(E));
}
ExprPtr ir::eexp(ExprPtr E) {
  return makeUnary(UnaryExpr::Opcode::Exp, std::move(E));
}
ExprPtr ir::elog(ExprPtr E) {
  return makeUnary(UnaryExpr::Opcode::Log, std::move(E));
}
ExprPtr ir::esin(ExprPtr E) {
  return makeUnary(UnaryExpr::Opcode::Sin, std::move(E));
}
ExprPtr ir::ecos(ExprPtr E) {
  return makeUnary(UnaryExpr::Opcode::Cos, std::move(E));
}
ExprPtr ir::recip(ExprPtr E) {
  return makeUnary(UnaryExpr::Opcode::Recip, std::move(E));
}

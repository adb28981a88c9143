//===- ir/Expr.h - Element-wise expression trees ---------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The right-hand side of a normalized array statement is an element-wise
/// expression over array references at constant offsets, scalar references
/// and constants (the paper's `f(A1@d1, ..., As@ds)`). Expressions are
/// immutable trees owned by their statement through `std::unique_ptr` and
/// use Kind-based LLVM-style RTTI.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_IR_EXPR_H
#define ALF_IR_EXPR_H

#include "ir/Offset.h"
#include "ir/Symbol.h"
#include "support/Casting.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace alf {
namespace ir {

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Base class of all expression nodes.
class Expr {
public:
  enum class ExprKind { Const, ScalarRef, ArrayRef, Unary, Binary };

private:
  ExprKind Kind;

protected:
  explicit Expr(ExprKind Kind) : Kind(Kind) {}

public:
  virtual ~Expr();

  ExprKind getKind() const { return Kind; }

  /// Deep copy of the tree.
  virtual ExprPtr clone() const = 0;

  /// Renders the expression as source-like text.
  virtual std::string str() const = 0;
};

/// A floating-point literal.
class ConstExpr : public Expr {
  double Value;

public:
  explicit ConstExpr(double Value)
      : Expr(ExprKind::Const), Value(Value) {}

  double getValue() const { return Value; }

  ExprPtr clone() const override;
  std::string str() const override;

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Const;
  }
};

/// A reference to a scalar variable.
class ScalarRefExpr : public Expr {
  const ScalarSymbol *Sym;

public:
  explicit ScalarRefExpr(const ScalarSymbol *Sym)
      : Expr(ExprKind::ScalarRef), Sym(Sym) {}

  const ScalarSymbol *getSymbol() const { return Sym; }

  ExprPtr clone() const override;
  std::string str() const override;

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::ScalarRef;
  }
};

/// A reference to array \p Sym at constant offset \p Off from the
/// statement's region. This is the only way arrays are read in normal form
/// (paper condition (iii)).
class ArrayRefExpr : public Expr {
  const ArraySymbol *Sym;
  Offset Off;

public:
  ArrayRefExpr(const ArraySymbol *Sym, Offset Off)
      : Expr(ExprKind::ArrayRef), Sym(Sym), Off(std::move(Off)) {}

  const ArraySymbol *getSymbol() const { return Sym; }
  const Offset &getOffset() const { return Off; }

  ExprPtr clone() const override;
  std::string str() const override;

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::ArrayRef;
  }
};

/// Element-wise unary operation.
class UnaryExpr : public Expr {
public:
  enum class Opcode { Neg, Abs, Sqrt, Exp, Log, Sin, Cos, Recip };

private:
  Opcode Op;
  ExprPtr Operand;

public:
  UnaryExpr(Opcode Op, ExprPtr Operand)
      : Expr(ExprKind::Unary), Op(Op), Operand(std::move(Operand)) {}

  Opcode getOpcode() const { return Op; }
  const Expr *getOperand() const { return Operand.get(); }

  /// Applies the operation to a concrete value (used by the interpreter).
  static double evaluate(Opcode Op, double V);

  /// Operator spelling for printing ("sqrt", "-", ...).
  static const char *getOpcodeName(Opcode Op);

  ExprPtr clone() const override;
  std::string str() const override;

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Unary;
  }
};

/// Element-wise binary operation.
class BinaryExpr : public Expr {
public:
  enum class Opcode { Add, Sub, Mul, Div, Min, Max };

private:
  Opcode Op;
  ExprPtr LHS;
  ExprPtr RHS;

public:
  BinaryExpr(Opcode Op, ExprPtr LHS, ExprPtr RHS)
      : Expr(ExprKind::Binary), Op(Op), LHS(std::move(LHS)),
        RHS(std::move(RHS)) {}

  Opcode getOpcode() const { return Op; }
  const Expr *getLHS() const { return LHS.get(); }
  const Expr *getRHS() const { return RHS.get(); }

  /// Applies the operation to concrete values (used by the interpreter).
  static double evaluate(Opcode Op, double L, double R);

  /// Operator spelling for printing ("+", "min", ...).
  static const char *getOpcodeName(Opcode Op);

  ExprPtr clone() const override;
  std::string str() const override;

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Binary;
  }
};

/// Invokes \p Fn on every node of \p Root in pre-order. The visitor is a
/// template parameter, so a walk makes no indirect call per node.
template <typename FnT> void walkExpr(const Expr *Root, FnT &&Fn) {
  Fn(Root);
  if (const auto *U = dyn_cast<UnaryExpr>(Root)) {
    walkExpr(U->getOperand(), Fn);
    return;
  }
  if (const auto *B = dyn_cast<BinaryExpr>(Root)) {
    walkExpr(B->getLHS(), Fn);
    walkExpr(B->getRHS(), Fn);
  }
}

/// Collects every array reference in \p Root, left to right.
std::vector<const ArrayRefExpr *> collectArrayRefs(const Expr *Root);

/// Collects every scalar reference in \p Root, left to right (no dedup).
std::vector<const ScalarSymbol *> collectScalarRefs(const Expr *Root);

/// Counts the arithmetic operations in \p Root (unary + binary nodes); the
/// performance model charges one flop per operation.
unsigned countOps(const Expr *Root);

/// Deep-copies \p Root while rewriting references: \p RewriteArray is
/// consulted for each array reference and may return a replacement
/// expression (or null to keep the reference). Used by contraction to
/// rewrite array references into scalars.
ExprPtr cloneExprRewriting(
    const Expr *Root,
    const std::function<ExprPtr(const ArrayRefExpr &)> &RewriteArray);

// Convenience factories for building expression trees. These read
// naturally at call sites: add(aref(A, {0, -1}), cst(1.0)).
ExprPtr cst(double Value);
ExprPtr sref(const ScalarSymbol *Sym);
ExprPtr aref(const ArraySymbol *Sym, Offset Off);
/// Array reference at the null offset (A == A@0).
ExprPtr aref(const ArraySymbol *Sym);
ExprPtr add(ExprPtr L, ExprPtr R);
ExprPtr sub(ExprPtr L, ExprPtr R);
ExprPtr mul(ExprPtr L, ExprPtr R);
ExprPtr div(ExprPtr L, ExprPtr R);
ExprPtr emin(ExprPtr L, ExprPtr R);
ExprPtr emax(ExprPtr L, ExprPtr R);
ExprPtr neg(ExprPtr E);
ExprPtr esqrt(ExprPtr E);
ExprPtr eexp(ExprPtr E);
ExprPtr elog(ExprPtr E);
ExprPtr esin(ExprPtr E);
ExprPtr ecos(ExprPtr E);
ExprPtr recip(ExprPtr E);

} // namespace ir
} // namespace alf

#endif // ALF_IR_EXPR_H

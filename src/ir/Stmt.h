//===- ir/Stmt.h - Array-level statements ----------------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Statements of an array program basic block. `NormalizedStmt` is the
/// paper's normal form `[R] A@d0 := f(A1@d1, ..., As@ds)`; together with
/// `ReduceStmt` (element-wise reductions into scalars) these are the
/// statement kinds that participate in fusion and contraction. `CommStmt`
/// models a compiler-generated communication primitive ("communication
/// primitives need not be normalized because they are not candidates for
/// fusion or contraction", section 2.1). `OpaqueStmt` models statements that
/// could not be normalized (reductions, scans, I/O); they take part in
/// dependences conservatively but never fuse.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_IR_STMT_H
#define ALF_IR_STMT_H

#include "ir/Expr.h"
#include "ir/Offset.h"
#include "ir/Region.h"
#include "ir/Symbol.h"
#include "semiring/Semiring.h"
#include "support/Casting.h"

#include <optional>
#include <string>
#include <vector>

namespace alf {
namespace ir {

/// One variable access made by a statement, as seen by dependence analysis.
/// `Off` is the constant reference offset when the access is representable
/// in normal form; `std::nullopt` marks an unrepresentable access (opaque
/// statements, communication), which dependence analysis treats
/// conservatively (unknown distance).
struct Access {
  const Symbol *Sym = nullptr;
  std::optional<Offset> Off;
  bool IsWrite = false;
};

/// Base class of all array-level statements.
class Stmt {
public:
  enum class StmtKind { Normalized, Reduce, Comm, Opaque };

private:
  StmtKind Kind;
  unsigned Id = 0;

protected:
  explicit Stmt(StmtKind Kind) : Kind(Kind) {}

public:
  virtual ~Stmt();

  StmtKind getKind() const { return Kind; }

  /// Dense position of the statement in its Program (program order).
  unsigned getId() const { return Id; }
  void setId(unsigned NewId) { Id = NewId; }

  /// Appends every variable access this statement makes to \p Out.
  virtual void getAccesses(std::vector<Access> &Out) const = 0;

  /// Renders the statement as source-like text.
  virtual std::string str() const = 0;
};

/// The paper's normalized array statement: an element-wise computation over
/// region \p R assigning to \p LHS at constant offset \p LHSOff.
class NormalizedStmt : public Stmt {
  const Region *R;
  const ArraySymbol *LHS;
  Offset LHSOff;
  ExprPtr RHS;

public:
  NormalizedStmt(const Region *R, const ArraySymbol *LHS, Offset LHSOff,
                 ExprPtr RHS)
      : Stmt(StmtKind::Normalized), R(R), LHS(LHS), LHSOff(std::move(LHSOff)),
        RHS(std::move(RHS)) {}

  const Region *getRegion() const { return R; }
  const ArraySymbol *getLHS() const { return LHS; }
  const Offset &getLHSOffset() const { return LHSOff; }
  const Expr *getRHS() const { return RHS.get(); }

  /// Replaces the right-hand side (used by normalization/contraction).
  void setRHS(ExprPtr NewRHS) { RHS = std::move(NewRHS); }

  /// Array references on the right-hand side, left to right.
  std::vector<const ArrayRefExpr *> rhsArrayRefs() const {
    return collectArrayRefs(RHS.get());
  }

  /// True if the statement reads \p Sym on its right-hand side.
  bool readsArray(const ArraySymbol *Sym) const;

  void getAccesses(std::vector<Access> &Out) const override;
  std::string str() const override;

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Normalized;
  }
};

/// A full reduction of an element-wise expression over a region into a
/// scalar accumulator (ZPL's `<<` reduction operators). Reductions are
/// element-wise over the region with constant-offset references, so they
/// participate in fusion like normalized statements — fusing a reduction
/// with the producer of its input enables contraction of the input (the
/// EP benchmark contracts *every* array this way). On a parallel machine
/// a reduction additionally costs a log2(p) cross-processor combine.
///
/// Every reduction carries the semiring whose ⊕ it folds with; the legacy
/// `ReduceOpKind {Sum, Min, Max, Or}` kinds survive as aliases of the
/// canonical registry instances (plus-times, min-plus, max-plus, or-and)
/// so existing builders keep compiling unchanged.
class ReduceStmt : public Stmt {
public:
  enum class ReduceOpKind { Sum, Min, Max, Or };

  /// The canonical registry semiring a legacy op kind is an alias of.
  static const semiring::Semiring &canonical(ReduceOpKind Op);

private:
  const Region *R;
  const ScalarSymbol *Acc;
  const semiring::Semiring *SR;
  ExprPtr Body;

public:
  ReduceStmt(const Region *R, const ScalarSymbol *Acc, ReduceOpKind Op,
             ExprPtr Body)
      : ReduceStmt(R, Acc, canonical(Op), std::move(Body)) {}

  ReduceStmt(const Region *R, const ScalarSymbol *Acc,
             const semiring::Semiring &SR, ExprPtr Body)
      : Stmt(StmtKind::Reduce), R(R), Acc(Acc), SR(&SR),
        Body(std::move(Body)) {}

  const Region *getRegion() const { return R; }
  const ScalarSymbol *getAccumulator() const { return Acc; }
  const Expr *getBody() const { return Body.get(); }

  /// The algebra this reduction folds with.
  const semiring::Semiring &getSemiring() const { return *SR; }

  /// Rebinds the reduction to another semiring (e.g. a tool-level
  /// `--semiring=` override applied after parsing).
  void setSemiring(const semiring::Semiring &NewSR) { SR = &NewSR; }

  /// Replaces the reduced expression (used by statement merging).
  void setBody(ExprPtr NewBody) { Body = std::move(NewBody); }

  /// Array references in the reduced expression, left to right.
  std::vector<const ArrayRefExpr *> bodyArrayRefs() const {
    return collectArrayRefs(Body.get());
  }

  void getAccesses(std::vector<Access> &Out) const override;
  std::string str() const override;

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Reduce;
  }
};

/// A compiler-generated communication primitive that makes the elements of
/// \p Array referenced at offset \p Dir available locally (a halo/boundary
/// exchange under a block distribution). For dependence purposes it both
/// reads and writes the array with unrepresentable distance, which orders
/// it between the array's producers and consumers and prevents fusion
/// across it.
class CommStmt : public Stmt {
public:
  /// A whole exchange, or one half of a pipelined (split) exchange.
  enum class CommPhase { Whole, Send, Recv };

private:
  const ArraySymbol *Array;
  Offset Dir;
  CommPhase Phase;
  int PairId;

public:
  CommStmt(const ArraySymbol *Array, Offset Dir,
           CommPhase Phase = CommPhase::Whole, int PairId = -1)
      : Stmt(StmtKind::Comm), Array(Array), Dir(std::move(Dir)), Phase(Phase),
        PairId(PairId) {}

  const ArraySymbol *getArray() const { return Array; }

  /// The reference offset whose halo this transfer fills.
  const Offset &getDir() const { return Dir; }

  CommPhase getPhase() const { return Phase; }

  /// Identifier linking the Send and Recv halves of a pipelined exchange.
  int getPairId() const { return PairId; }

  void getAccesses(std::vector<Access> &Out) const override;
  std::string str() const override;

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::Comm; }
};

/// A statement that could not be put into normal form. Its reads and
/// writes are declared explicitly; dependence analysis treats every access
/// as having unknown distance, so opaque statements order their neighbours
/// but never join a fusible cluster.
class OpaqueStmt : public Stmt {
  std::string Desc;
  const Region *R;
  std::vector<const ArraySymbol *> ArrayReads;
  std::vector<const ArraySymbol *> ArrayWrites;
  std::vector<const ScalarSymbol *> ScalarReads;
  std::vector<const ScalarSymbol *> ScalarWrites;
  double FlopsPerElem;
  bool GlobalReduction;

public:
  OpaqueStmt(std::string Desc, const Region *R,
             std::vector<const ArraySymbol *> ArrayReads,
             std::vector<const ArraySymbol *> ArrayWrites,
             std::vector<const ScalarSymbol *> ScalarReads,
             std::vector<const ScalarSymbol *> ScalarWrites,
             double FlopsPerElem, bool GlobalReduction)
      : Stmt(StmtKind::Opaque), Desc(std::move(Desc)), R(R),
        ArrayReads(std::move(ArrayReads)), ArrayWrites(std::move(ArrayWrites)),
        ScalarReads(std::move(ScalarReads)),
        ScalarWrites(std::move(ScalarWrites)), FlopsPerElem(FlopsPerElem),
        GlobalReduction(GlobalReduction) {}

  const std::string &getDesc() const { return Desc; }

  /// Extent of the statement's computation; null for scalar-only work.
  const Region *getRegion() const { return R; }

  const std::vector<const ArraySymbol *> &arrayReads() const {
    return ArrayReads;
  }
  const std::vector<const ArraySymbol *> &arrayWrites() const {
    return ArrayWrites;
  }
  const std::vector<const ScalarSymbol *> &scalarReads() const {
    return ScalarReads;
  }
  const std::vector<const ScalarSymbol *> &scalarWrites() const {
    return ScalarWrites;
  }

  /// Arithmetic cost per region element charged by the performance model.
  double getFlopsPerElem() const { return FlopsPerElem; }

  /// True for global reductions, which cost an extra O(log p) combine on a
  /// p-processor machine.
  bool isGlobalReduction() const { return GlobalReduction; }

  void getAccesses(std::vector<Access> &Out) const override;
  std::string str() const override;

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Opaque;
  }
};

} // namespace ir
} // namespace alf

#endif // ALF_IR_STMT_H

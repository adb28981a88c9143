//===- ir/Program.h - An array-language basic block ------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A `Program` is a single basic block of array-level statements, the unit
/// over which the paper builds an array statement dependence graph (an ASDG
/// "represents a single basic block at the array statement level",
/// Definition 3). The Program owns its symbols, interned regions and
/// statements, and provides the builder API the examples, tests and
/// benchmark generators use.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_IR_PROGRAM_H
#define ALF_IR_PROGRAM_H

#include "ir/Region.h"
#include "ir/Stmt.h"
#include "ir/Symbol.h"

#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace alf {
namespace ir {

/// Traits of an array created through Program::makeArray. The defaults
/// describe a persistent user array (live into and out of the fragment,
/// hence never contractible); temporaries override LiveOut/LiveIn.
struct ArrayOpts {
  unsigned ElemSize = 8;
  bool CompilerTemp = false;
  bool LiveOut = true;
  bool LiveIn = true;
};

/// A basic block of array statements together with its symbols and regions.
class Program {
  std::string Name;
  std::vector<std::unique_ptr<Symbol>> Symbols;
  std::vector<std::unique_ptr<Region>> Regions;
  std::vector<std::unique_ptr<Stmt>> Stmts;

public:
  explicit Program(std::string Name) : Name(std::move(Name)) {}

  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  const std::string &getName() const { return Name; }

  //===--------------------------------------------------------------------===//
  // Symbols
  //===--------------------------------------------------------------------===//

  /// Creates an array variable. The paper's contraction candidates are the
  /// arrays with `Opts.LiveOut == false` (and no upward-exposed live-in
  /// read); persistent arrays keep the defaults.
  ArraySymbol *makeArray(std::string ArrName, unsigned Rank,
                         ArrayOpts Opts = ArrayOpts());

  /// Creates a user temporary: a user-declared array that is dead outside
  /// the fragment (the paper's `B`, `T1`, `T2`).
  ArraySymbol *makeUserTemp(std::string ArrName, unsigned Rank);

  /// Creates a compiler temporary (normalization inserts these).
  ArraySymbol *makeCompilerTemp(std::string ArrName, unsigned Rank);

  /// Creates a scalar variable.
  ScalarSymbol *makeScalar(std::string ScalarName);

  unsigned numSymbols() const {
    return static_cast<unsigned>(Symbols.size());
  }
  const Symbol *getSymbol(unsigned Id) const { return Symbols[Id].get(); }

  /// All symbols in creation order.
  std::vector<const Symbol *> symbols() const;

  /// All array symbols in creation order.
  std::vector<const ArraySymbol *> arrays() const;

  /// Looks up a symbol by name; returns null when absent.
  const Symbol *findSymbol(const std::string &SymName) const;

  //===--------------------------------------------------------------------===//
  // Regions
  //===--------------------------------------------------------------------===//

  /// Interns \p R: returns a pointer stable for the Program's lifetime,
  /// identical for value-equal regions.
  const Region *internRegion(const Region &R);

  /// Interns the canonical region [1..E1, ..., 1..En].
  const Region *regionFromExtents(const std::vector<int64_t> &Extents) {
    return internRegion(Region::fromExtents(Extents));
  }

  //===--------------------------------------------------------------------===//
  // Statements
  //===--------------------------------------------------------------------===//

  /// Appends `[R] LHS := RHS;`.
  NormalizedStmt *assign(const Region *R, const ArraySymbol *LHS, ExprPtr RHS);

  /// Appends `[R] LHS@LHSOff := RHS;`.
  NormalizedStmt *assign(const Region *R, const ArraySymbol *LHS,
                         Offset LHSOff, ExprPtr RHS);

  /// Appends `[R] Acc := op<< Body;` (full reduction to a scalar).
  ReduceStmt *reduce(const Region *R, const ScalarSymbol *Acc,
                     ReduceStmt::ReduceOpKind Op, ExprPtr Body);

  /// Appends a reduction folding with \p SR's ⊕ operator.
  ReduceStmt *reduce(const Region *R, const ScalarSymbol *Acc,
                     const semiring::Semiring &SR, ExprPtr Body);

  /// Appends a communication primitive.
  CommStmt *comm(const ArraySymbol *Array, Offset Dir,
                 CommStmt::CommPhase Phase = CommStmt::CommPhase::Whole,
                 int PairId = -1);

  /// Appends an opaque (unnormalizable) statement.
  OpaqueStmt *opaque(std::string Desc, const Region *R,
                     std::vector<const ArraySymbol *> ArrayReads,
                     std::vector<const ArraySymbol *> ArrayWrites,
                     std::vector<const ScalarSymbol *> ScalarReads = {},
                     std::vector<const ScalarSymbol *> ScalarWrites = {},
                     double FlopsPerElem = 1.0, bool GlobalReduction = false);

  /// Inserts an already-constructed statement before position \p Pos (or
  /// appends when Pos == numStmts()) and renumbers.
  Stmt *insertStmt(unsigned Pos, std::unique_ptr<Stmt> S);

  /// Removes the statement at position \p Pos and renumbers.
  void removeStmt(unsigned Pos);

  unsigned numStmts() const { return static_cast<unsigned>(Stmts.size()); }
  Stmt *getStmt(unsigned Id) { return Stmts[Id].get(); }
  const Stmt *getStmt(unsigned Id) const { return Stmts[Id].get(); }

  /// Statements in program order.
  std::vector<const Stmt *> stmts() const;

  /// Reassigns dense statement ids after mutation.
  void renumber();

  /// Rebinds every reduction to fold with \p SR's algebra. Overrides
  /// (zplc --semiring, alfd's "semiring" field) call this before any
  /// analysis, so strategy, verification and execution all see it.
  void setReductionSemiring(const semiring::Semiring &SR);

  /// Writes the whole program as source-like text.
  void print(std::ostream &OS) const;

  /// Returns print() output as a string.
  std::string str() const;

private:
  template <typename T, typename... Args> T *appendStmt(Args &&...CtorArgs);
};

} // namespace ir
} // namespace alf

#endif // ALF_IR_PROGRAM_H

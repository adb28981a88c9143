//===- ir/Program.cpp - An array-language basic block ---------------------===//

#include "ir/Program.h"

#include "support/StringUtil.h"

#include <sstream>

using namespace alf;
using namespace alf::ir;

//===----------------------------------------------------------------------===//
// Symbols
//===----------------------------------------------------------------------===//

ArraySymbol *Program::makeArray(std::string ArrName, unsigned Rank,
                                ArrayOpts Opts) {
  assert(!findSymbol(ArrName) && "duplicate symbol name");
  auto Sym = std::make_unique<ArraySymbol>(
      std::move(ArrName), numSymbols(), Rank, Opts.ElemSize, Opts.CompilerTemp,
      Opts.LiveOut, Opts.LiveIn);
  ArraySymbol *Raw = Sym.get();
  Symbols.push_back(std::move(Sym));
  return Raw;
}

ArraySymbol *Program::makeUserTemp(std::string ArrName, unsigned Rank) {
  ArrayOpts Opts;
  Opts.LiveOut = false;
  Opts.LiveIn = false;
  return makeArray(std::move(ArrName), Rank, Opts);
}

ArraySymbol *Program::makeCompilerTemp(std::string ArrName, unsigned Rank) {
  ArrayOpts Opts;
  Opts.CompilerTemp = true;
  Opts.LiveOut = false;
  Opts.LiveIn = false;
  return makeArray(std::move(ArrName), Rank, Opts);
}

ScalarSymbol *Program::makeScalar(std::string ScalarName) {
  assert(!findSymbol(ScalarName) && "duplicate symbol name");
  auto Sym = std::make_unique<ScalarSymbol>(std::move(ScalarName),
                                            numSymbols());
  ScalarSymbol *Raw = Sym.get();
  Symbols.push_back(std::move(Sym));
  return Raw;
}

std::vector<const Symbol *> Program::symbols() const {
  std::vector<const Symbol *> Result;
  Result.reserve(Symbols.size());
  for (const auto &Sym : Symbols)
    Result.push_back(Sym.get());
  return Result;
}

std::vector<const ArraySymbol *> Program::arrays() const {
  std::vector<const ArraySymbol *> Result;
  for (const auto &Sym : Symbols)
    if (const auto *Arr = dyn_cast<ArraySymbol>(Sym.get()))
      Result.push_back(Arr);
  return Result;
}

const Symbol *Program::findSymbol(const std::string &SymName) const {
  for (const auto &Sym : Symbols)
    if (Sym->getName() == SymName)
      return Sym.get();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Regions
//===----------------------------------------------------------------------===//

const Region *Program::internRegion(const Region &R) {
  for (const auto &Existing : Regions)
    if (*Existing == R)
      return Existing.get();
  Regions.push_back(std::make_unique<Region>(R));
  return Regions.back().get();
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

template <typename T, typename... Args>
T *Program::appendStmt(Args &&...CtorArgs) {
  auto S = std::make_unique<T>(std::forward<Args>(CtorArgs)...);
  T *Raw = S.get();
  Raw->setId(numStmts());
  Stmts.push_back(std::move(S));
  return Raw;
}

NormalizedStmt *Program::assign(const Region *R, const ArraySymbol *LHS,
                                ExprPtr RHS) {
  return assign(R, LHS, Offset::zero(LHS->getRank()), std::move(RHS));
}

NormalizedStmt *Program::assign(const Region *R, const ArraySymbol *LHS,
                                Offset LHSOff, ExprPtr RHS) {
  assert(R && "statement requires a region");
  assert(LHS->getRank() == R->rank() && "LHS rank must match region rank");
  return appendStmt<NormalizedStmt>(R, LHS, std::move(LHSOff), std::move(RHS));
}

ReduceStmt *Program::reduce(const Region *R, const ScalarSymbol *Acc,
                            ReduceStmt::ReduceOpKind Op, ExprPtr Body) {
  return reduce(R, Acc, ReduceStmt::canonical(Op), std::move(Body));
}

ReduceStmt *Program::reduce(const Region *R, const ScalarSymbol *Acc,
                            const semiring::Semiring &SR, ExprPtr Body) {
  assert(R && "reduction requires a region");
  return appendStmt<ReduceStmt>(R, Acc, SR, std::move(Body));
}

CommStmt *Program::comm(const ArraySymbol *Array, Offset Dir,
                        CommStmt::CommPhase Phase, int PairId) {
  return appendStmt<CommStmt>(Array, std::move(Dir), Phase, PairId);
}

OpaqueStmt *Program::opaque(std::string Desc, const Region *R,
                            std::vector<const ArraySymbol *> ArrayReads,
                            std::vector<const ArraySymbol *> ArrayWrites,
                            std::vector<const ScalarSymbol *> ScalarReads,
                            std::vector<const ScalarSymbol *> ScalarWrites,
                            double FlopsPerElem, bool GlobalReduction) {
  return appendStmt<OpaqueStmt>(std::move(Desc), R, std::move(ArrayReads),
                                std::move(ArrayWrites), std::move(ScalarReads),
                                std::move(ScalarWrites), FlopsPerElem,
                                GlobalReduction);
}

Stmt *Program::insertStmt(unsigned Pos, std::unique_ptr<Stmt> S) {
  assert(Pos <= numStmts() && "insertion position out of range");
  Stmt *Raw = S.get();
  Stmts.insert(Stmts.begin() + Pos, std::move(S));
  renumber();
  return Raw;
}

void Program::removeStmt(unsigned Pos) {
  assert(Pos < numStmts() && "removal position out of range");
  Stmts.erase(Stmts.begin() + Pos);
  renumber();
}

std::vector<const Stmt *> Program::stmts() const {
  std::vector<const Stmt *> Result;
  Result.reserve(Stmts.size());
  for (const auto &S : Stmts)
    Result.push_back(S.get());
  return Result;
}

void Program::renumber() {
  for (unsigned I = 0; I < Stmts.size(); ++I)
    Stmts[I]->setId(I);
}

void Program::setReductionSemiring(const semiring::Semiring &SR) {
  for (auto &S : Stmts)
    if (auto *RS = dyn_cast<ReduceStmt>(S.get()))
      RS->setSemiring(SR);
}

void Program::print(std::ostream &OS) const {
  OS << "program " << Name << " {\n";
  for (const auto &Sym : Symbols) {
    if (const auto *Arr = dyn_cast<ArraySymbol>(Sym.get())) {
      OS << "  array " << Arr->getName() << " : rank " << Arr->getRank();
      if (Arr->isCompilerTemp())
        OS << " [compiler-temp]";
      else if (!Arr->isLiveOut())
        OS << " [user-temp]";
      OS << ";\n";
      continue;
    }
    OS << "  scalar " << Sym->getName() << ";\n";
  }
  for (const auto &S : Stmts)
    OS << formatString("  S%-3u ", S->getId()) << S->str() << '\n';
  OS << "}\n";
}

std::string Program::str() const {
  std::ostringstream OS;
  print(OS);
  return OS.str();
}

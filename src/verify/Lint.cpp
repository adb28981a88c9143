//===- verify/Lint.cpp - Frontend source diagnostics ----------------------===//

#include "verify/Lint.h"

#include "support/Casting.h"
#include "obs/Obs.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <map>
#include <set>

using namespace alf;
using namespace alf::ir;
using namespace alf::verify;

ALF_COUNTER(NumLintRuns, "verify.lint_runs", "Programs linted");
ALF_COUNTER(NumLintErrors, "verify.lint_errors", "Lint errors reported");
ALF_COUNTER(NumLintWarnings, "verify.lint_warnings", "Lint warnings reported");

const char *verify::getLintSeverityName(LintSeverity S) {
  return S == LintSeverity::Error ? "error" : "warning";
}

std::string LintDiag::render(const std::string &FileName) const {
  if (Line == 0)
    return FileName + ": " + getLintSeverityName(Severity) + ": " + Message;
  return formatString("%s:%u:%u: %s: %s", FileName.c_str(), Line, Col,
                      getLintSeverityName(Severity), Message.c_str());
}

bool LintResult::hasErrors() const {
  for (const LintDiag &D : Diags)
    if (D.Severity == LintSeverity::Error)
      return true;
  return false;
}

std::string LintResult::render(const std::string &FileName) const {
  std::string Out;
  for (const LintDiag &D : Diags) {
    Out += D.render(FileName);
    Out += '\n';
  }
  return Out;
}

namespace {

/// Per-dimension inclusive bounding box, growable by union.
struct Box {
  std::vector<int64_t> Lo, Hi;
  bool Valid = false;

  void include(const Region &R, const Offset &Off) {
    if (!Valid) {
      Valid = true;
      Lo.assign(R.rank(), 0);
      Hi.assign(R.rank(), 0);
      for (unsigned D = 0; D < R.rank(); ++D) {
        Lo[D] = R.lo(D) + Off[D];
        Hi[D] = R.hi(D) + Off[D];
      }
      return;
    }
    if (Lo.size() != R.rank())
      return; // rank mismatch is reported separately
    for (unsigned D = 0; D < R.rank(); ++D) {
      Lo[D] = std::min(Lo[D], R.lo(D) + Off[D]);
      Hi[D] = std::max(Hi[D], R.hi(D) + Off[D]);
    }
  }

  /// True when the box of (R shifted by Off) lies inside this box.
  bool covers(const Region &R, const Offset &Off) const {
    if (!Valid || Lo.size() != R.rank())
      return false;
    for (unsigned D = 0; D < R.rank(); ++D)
      if (R.lo(D) + Off[D] < Lo[D] || R.hi(D) + Off[D] > Hi[D])
        return false;
    return true;
  }
};

struct Linter {
  const Program &P;
  const std::vector<std::pair<unsigned, unsigned>> &Positions;
  LintResult Out;

  // Per array id: union of footprints written so far.
  std::map<unsigned, Box> Written;
  // Per array id: union of footprints written anywhere in the program.
  // A read outside even this union names elements nothing ever defines —
  // an out-of-range offset, not merely an ordering hazard.
  std::map<unsigned, Box> WrittenAll;
  // Per array id: ids of statements reading it (for deadness).
  std::map<unsigned, std::set<unsigned>> ReadAt;
  std::set<unsigned> Referenced; // symbol ids touched by any statement

  Linter(const Program &Prog,
         const std::vector<std::pair<unsigned, unsigned>> &Pos)
      : P(Prog), Positions(Pos) {}

  void diag(LintSeverity Severity, unsigned StmtId, std::string Msg) {
    LintDiag D;
    D.Severity = Severity;
    if (StmtId < Positions.size()) {
      D.Line = Positions[StmtId].first;
      D.Col = Positions[StmtId].second;
    }
    D.Message = std::move(Msg);
    if (Severity == LintSeverity::Error)
      ++NumLintErrors;
    else
      ++NumLintWarnings;
    Out.Diags.push_back(std::move(D));
  }

  /// Records every read of the program up front (deadness needs to look
  /// forward).
  void indexReads() {
    for (unsigned Id = 0; Id < P.numStmts(); ++Id) {
      const Stmt *S = P.getStmt(Id);
      std::vector<const ArrayRefExpr *> Refs;
      if (const auto *NS = dyn_cast<NormalizedStmt>(S))
        Refs = NS->rhsArrayRefs();
      else if (const auto *RS = dyn_cast<ReduceStmt>(S))
        Refs = RS->bodyArrayRefs();
      else if (const auto *OS = dyn_cast<OpaqueStmt>(S))
        for (const ArraySymbol *A : OS->arrayReads())
          ReadAt[A->getId()].insert(Id);
      for (const ArrayRefExpr *Ref : Refs)
        ReadAt[Ref->getSymbol()->getId()].insert(Id);
    }
  }

  /// Records every write footprint of the program up front (the
  /// out-of-range check needs the final union, not the running one).
  void indexWrites() {
    for (unsigned Id = 0; Id < P.numStmts(); ++Id) {
      const Stmt *S = P.getStmt(Id);
      if (const auto *NS = dyn_cast<NormalizedStmt>(S)) {
        WrittenAll[NS->getLHS()->getId()].include(*NS->getRegion(),
                                                  NS->getLHSOffset());
        continue;
      }
      if (const auto *OS = dyn_cast<OpaqueStmt>(S))
        for (const ArraySymbol *A : OS->arrayWrites())
          if (OS->getRegion() && OS->getRegion()->rank() == A->getRank())
            WrittenAll[A->getId()].include(*OS->getRegion(),
                                           Offset::zero(A->getRank()));
    }
  }

  void checkReads(unsigned Id, const Region *R,
                  const std::vector<const ArrayRefExpr *> &Refs) {
    std::set<const ArraySymbol *> Diagnosed;
    for (const ArrayRefExpr *Ref : Refs) {
      const ArraySymbol *A = Ref->getSymbol();
      Referenced.insert(A->getId());
      if (A->getRank() != R->rank()) {
        if (Diagnosed.insert(A).second)
          diag(LintSeverity::Error, Id,
               formatString("array %s has rank %u but the statement's "
                            "region has rank %u",
                            A->getName().c_str(), A->getRank(), R->rank()));
        continue;
      }
      if (A->isLiveIn())
        continue; // carries a defined value into the fragment
      auto It = Written.find(A->getId());
      if (It == Written.end()) {
        if (Diagnosed.insert(A).second)
          diag(LintSeverity::Error, Id,
               formatString("%s is read before it is written (and is not "
                            "live-in)",
                            A->getName().c_str()));
        continue;
      }
      if (It->second.covers(*R, Ref->getOffset()) ||
          !Diagnosed.insert(A).second)
        continue;
      // Outside even the whole-program write union the elements are
      // never defined by anything: the offset itself is out of range.
      auto AllIt = WrittenAll.find(A->getId());
      if (AllIt == WrittenAll.end() ||
          !AllIt->second.covers(*R, Ref->getOffset()))
        diag(LintSeverity::Error, Id,
             formatString("reference %s%s reads elements of %s that no "
                          "statement ever writes (out-of-range offset)",
                          A->getName().c_str(),
                          Ref->getOffset().str().c_str(),
                          A->getName().c_str()));
      else
        diag(LintSeverity::Warning, Id,
             formatString("reference %s%s reaches elements of %s outside "
                          "the footprint written so far (uninitialized "
                          "halo reads)",
                          A->getName().c_str(),
                          Ref->getOffset().str().c_str(),
                          A->getName().c_str()));
    }
  }

  void checkDeadWrite(unsigned Id, const ArraySymbol *A) {
    if (A->isLiveOut())
      return;
    const std::set<unsigned> &Readers = ReadAt[A->getId()];
    if (Readers.upper_bound(Id) == Readers.end())
      diag(LintSeverity::Warning, Id,
           formatString("dead statement: %s is not live-out and this value "
                        "is never read",
                        A->getName().c_str()));
  }

  LintResult run() {
    ++NumLintRuns;
    indexReads();
    indexWrites();
    for (unsigned Id = 0; Id < P.numStmts(); ++Id) {
      const Stmt *S = P.getStmt(Id);
      if (const auto *NS = dyn_cast<NormalizedStmt>(S)) {
        checkReads(Id, NS->getRegion(), NS->rhsArrayRefs());
        Referenced.insert(NS->getLHS()->getId());
        checkDeadWrite(Id, NS->getLHS());
        Written[NS->getLHS()->getId()].include(*NS->getRegion(),
                                               NS->getLHSOffset());
        continue;
      }
      if (const auto *RS = dyn_cast<ReduceStmt>(S)) {
        checkReads(Id, RS->getRegion(), RS->bodyArrayRefs());
        continue;
      }
      if (const auto *OS = dyn_cast<OpaqueStmt>(S)) {
        // Opaque accesses have no offsets; record writes as covering the
        // statement region so later reads are not misflagged.
        for (const ArraySymbol *A : OS->arrayReads())
          Referenced.insert(A->getId());
        for (const ArraySymbol *A : OS->arrayWrites()) {
          Referenced.insert(A->getId());
          checkDeadWrite(Id, A);
          if (OS->getRegion() && OS->getRegion()->rank() == A->getRank())
            Written[A->getId()].include(*OS->getRegion(),
                                        Offset::zero(A->getRank()));
        }
        continue;
      }
      if (const auto *CS = dyn_cast<CommStmt>(S))
        Referenced.insert(CS->getArray()->getId());
    }

    for (const ArraySymbol *A : P.arrays())
      if (Referenced.count(A->getId()) == 0)
        diag(LintSeverity::Warning, P.numStmts(),
             formatString("array %s is declared but never referenced",
                          A->getName().c_str()));
    return std::move(Out);
  }
};

} // namespace

LintResult verify::lintProgram(
    const ir::Program &P,
    const std::vector<std::pair<unsigned, unsigned>> &StmtPositions) {
  Linter L(P, StmtPositions);
  return L.run();
}

//===- verify/StructuralVerifier.cpp - IR + ASDG structural checks --------===//
//
// Pass 1 of the verification layer: the program is structurally a normal
// form the later phases may trust (dense ids, non-empty rectangular
// regions, offsets whose ranks match the symbols and regions they attach
// to), and the ASDG — when one is supplied — is a plausible dependence
// graph of exactly that program: one node per statement, every edge
// pointing forward in program order (which is what makes the graph
// acyclic by construction), and every label's unconstrained distance
// vector re-derivable as `source access offset - target access offset`
// for some access pair of the label's type.
//
//===----------------------------------------------------------------------===//

#include "support/Casting.h"
#include "obs/Obs.h"
#include "support/StringUtil.h"
#include "verify/AccessModel.h"
#include "verify/Verify.h"

using namespace alf;
using namespace alf::ir;
using namespace alf::verify;

ALF_COUNTER(NumStructuralChecks, "verify.structural_checks",
            "Structural validations run");
ALF_COUNTER(NumStructuralFindings, "verify.structural_findings",
            "Structural validation failures");

namespace {

constexpr const char *PassName = "structure";

void checkRegion(const Region *R, unsigned StmtId, VerifyReport &Out) {
  if (!R) {
    Out.add(PassName, formatString("S%u: null region", StmtId));
    return;
  }
  if (R->rank() == 0) {
    Out.add(PassName, formatString("S%u: region of rank 0", StmtId));
    return;
  }
  // Rectangular = every dimension a nonempty inclusive interval. (The
  // Region constructor asserts this, but asserts vanish under NDEBUG and
  // regions can be default-constructed.)
  for (unsigned D = 0; D < R->rank(); ++D)
    if (R->lo(D) > R->hi(D))
      Out.add(PassName,
              formatString("S%u: empty region dimension %u (%lld..%lld)",
                           StmtId, D, static_cast<long long>(R->lo(D)),
                           static_cast<long long>(R->hi(D))));
}

void checkNormalized(const NormalizedStmt &NS, VerifyReport &Out) {
  unsigned Id = NS.getId();
  checkRegion(NS.getRegion(), Id, Out);
  const Region *R = NS.getRegion();
  if (!R || R->rank() == 0)
    return;
  unsigned Rank = R->rank();
  if (NS.getLHS()->getRank() != Rank)
    Out.add(PassName,
            formatString("S%u: LHS %s has rank %u but region rank is %u", Id,
                         NS.getLHS()->getName().c_str(),
                         NS.getLHS()->getRank(), Rank));
  if (NS.getLHSOffset().rank() != NS.getLHS()->getRank())
    Out.add(PassName,
            formatString("S%u: LHS offset rank %u != array rank %u", Id,
                         NS.getLHSOffset().rank(), NS.getLHS()->getRank()));
  for (const ArrayRefExpr *Ref : NS.rhsArrayRefs()) {
    if (Ref->getOffset().rank() != Ref->getSymbol()->getRank())
      Out.add(PassName,
              formatString("S%u: reference %s%s has offset rank %u but the "
                           "array has rank %u",
                           Id, Ref->getSymbol()->getName().c_str(),
                           Ref->getOffset().str().c_str(),
                           Ref->getOffset().rank(),
                           Ref->getSymbol()->getRank()));
    if (Ref->getSymbol()->getRank() != Rank)
      Out.add(PassName,
              formatString("S%u: RHS array %s has rank %u but region rank "
                           "is %u",
                           Id, Ref->getSymbol()->getName().c_str(),
                           Ref->getSymbol()->getRank(), Rank));
    // Normal-form condition (i): the target is not also a source.
    if (Ref->getSymbol() == NS.getLHS())
      Out.add(PassName,
              formatString("S%u: LHS %s is read on its own RHS (normal-form "
                           "condition (i))",
                           Id, NS.getLHS()->getName().c_str()));
  }
}

void checkReduce(const ReduceStmt &RS, VerifyReport &Out) {
  unsigned Id = RS.getId();
  checkRegion(RS.getRegion(), Id, Out);
  const Region *R = RS.getRegion();
  if (!R || R->rank() == 0)
    return;
  for (const ArrayRefExpr *Ref : RS.bodyArrayRefs()) {
    if (Ref->getOffset().rank() != Ref->getSymbol()->getRank())
      Out.add(PassName,
              formatString("S%u: reference %s%s has offset rank %u but the "
                           "array has rank %u",
                           Id, Ref->getSymbol()->getName().c_str(),
                           Ref->getOffset().str().c_str(),
                           Ref->getOffset().rank(),
                           Ref->getSymbol()->getRank()));
    if (Ref->getSymbol()->getRank() != R->rank())
      Out.add(PassName,
              formatString("S%u: reduced array %s has rank %u but region "
                           "rank is %u",
                           Id, Ref->getSymbol()->getName().c_str(),
                           Ref->getSymbol()->getRank(), R->rank()));
  }
}

void checkComm(const CommStmt &CS, VerifyReport &Out) {
  if (CS.getDir().rank() != CS.getArray()->getRank())
    Out.add(PassName,
            formatString("S%u: comm direction rank %u != array %s rank %u",
                         CS.getId(), CS.getDir().rank(),
                         CS.getArray()->getName().c_str(),
                         CS.getArray()->getRank()));
}

void checkGraph(const ir::Program &P, const analysis::ASDG &G,
                VerifyReport &Out) {
  if (&G.getProgram() != &P) {
    Out.add(PassName, "ASDG was built over a different program");
    return;
  }
  if (G.numNodes() != P.numStmts()) {
    Out.add(PassName,
            formatString("ASDG has %u nodes but the program has %u "
                         "statements",
                         G.numNodes(), P.numStmts()));
    return;
  }
  std::vector<std::vector<detail::Ref>> Refs(P.numStmts());
  for (unsigned I = 0; I < P.numStmts(); ++I)
    Refs[I] = detail::collectRefs(*P.getStmt(I));

  for (const analysis::DepEdge &E : G.edges()) {
    if (E.Src >= P.numStmts() || E.Tgt >= P.numStmts()) {
      Out.add(PassName, formatString("edge S%u -> S%u references a "
                                     "nonexistent statement",
                                     E.Src, E.Tgt));
      continue;
    }
    // Program order is what makes the graph a DAG (Definition 3).
    if (E.Src >= E.Tgt) {
      Out.add(PassName,
              formatString("edge S%u -> S%u violates program order (the "
                           "graph must be acyclic)",
                           E.Src, E.Tgt));
      continue;
    }
    if (E.Labels.empty())
      Out.add(PassName, formatString("edge S%u -> S%u has no labels", E.Src,
                                     E.Tgt));
    for (const analysis::DepLabel &L : E.Labels) {
      // Re-derive the label from the two statements' accesses: there must
      // be a (source access, target access) pair on L.Var whose directions
      // match L.Type and, when L carries a UDV, whose offset difference is
      // exactly that UDV.
      bool Derivable = false;
      for (const detail::Ref &SrcRef : Refs[E.Src]) {
        if (Derivable)
          break;
        if (SrcRef.Sym != L.Var)
          continue;
        for (const detail::Ref &TgtRef : Refs[E.Tgt]) {
          if (TgtRef.Sym != L.Var)
            continue;
          bool TypeMatches =
              (L.Type == analysis::DepType::Output && SrcRef.IsWrite &&
               TgtRef.IsWrite) ||
              (L.Type == analysis::DepType::Flow && SrcRef.IsWrite &&
               !TgtRef.IsWrite) ||
              (L.Type == analysis::DepType::Anti && !SrcRef.IsWrite &&
               TgtRef.IsWrite);
          if (!TypeMatches)
            continue;
          if (!L.UDV) {
            // Unrepresentable labels arise when either side has no
            // constant offset or the ranks disagree.
            if (!SrcRef.Off || !TgtRef.Off ||
                SrcRef.Off->rank() != TgtRef.Off->rank()) {
              Derivable = true;
              break;
            }
            continue;
          }
          if (SrcRef.Off && TgtRef.Off &&
              SrcRef.Off->rank() == TgtRef.Off->rank() &&
              *SrcRef.Off - *TgtRef.Off == *L.UDV) {
            Derivable = true;
            break;
          }
        }
      }
      if (!Derivable)
        Out.add(PassName,
                formatString("edge S%u -> S%u: label (%s, %s, %s) is not "
                             "derivable from the statements' accesses",
                             E.Src, E.Tgt, L.Var->getName().c_str(),
                             L.UDV ? L.UDV->str().c_str() : "unknown",
                             analysis::getDepTypeName(L.Type)));
    }
  }
}

} // namespace

VerifyReport verify::verifyStructure(const ir::Program &P,
                                     const analysis::ASDG *G) {
  ++NumStructuralChecks;
  VerifyReport Out;

  for (unsigned I = 0; I < P.numStmts(); ++I) {
    const Stmt *S = P.getStmt(I);
    if (S->getId() != I)
      Out.add(PassName, formatString("statement at position %u has id %u "
                                     "(ids must be dense program order)",
                                     I, S->getId()));
    if (const auto *NS = dyn_cast<NormalizedStmt>(S))
      checkNormalized(*NS, Out);
    else if (const auto *RS = dyn_cast<ReduceStmt>(S))
      checkReduce(*RS, Out);
    else if (const auto *CS = dyn_cast<CommStmt>(S))
      checkComm(*CS, Out);
    // Opaque statements have no structural obligations beyond their id.
  }

  if (G)
    checkGraph(P, *G, Out);

  NumStructuralFindings += Out.Findings.size();
  return Out;
}

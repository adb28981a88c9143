//===- verify/StructuralVerifier.cpp - IR + ASDG structural checks --------===//
//
// Pass 1 of the verification layer: the program is a normal form the
// later phases may trust — every violation ir::verifyProgram, the one
// definition of a well-formed program, reports is a finding — and the
// ASDG, when one is supplied, is a plausible dependence graph of exactly
// that program: one node per statement, every edge pointing forward in
// program order (which is what makes the graph acyclic by construction),
// and every label's unconstrained distance vector re-derivable as
// `source access offset - target access offset` for some access pair of
// the label's type.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"
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

  for (std::string &Msg : ir::verifyProgram(P))
    Out.add(PassName, std::move(Msg));
  if (G)
    checkGraph(P, *G, Out);

  NumStructuralFindings += Out.Findings.size();
  return Out;
}

//===- vendors/CompilerModel.cpp - Commercial compiler models ---------------===//

#include "vendors/CompilerModel.h"

#include "analysis/ASDG.h"
#include "ir/Normalize.h"
#include "vendors/Fragments.h"
#include "xform/Fusion.h"

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::vendors;
using namespace alf::xform;

std::vector<VendorPolicy> vendors::allVendorPolicies() {
  VendorPolicy PGI;
  PGI.Name = "PGI HPF 2.1";
  PGI.ContractCompilerTemps = true;

  VendorPolicy IBM = PGI;
  IBM.Name = "IBM XLHPF 1.2";

  VendorPolicy APR;
  APR.Name = "APR XHPF 2.0";
  APR.StatementFusion = true;
  APR.LocalityFusion = true;
  APR.ContractCompilerTemps = true;

  VendorPolicy Cray = APR;
  Cray.Name = "Cray F90 2.0.1.0";
  Cray.ContractUserTemps = true;

  VendorPolicy ZPL;
  ZPL.Name = "ZPL (ALF)";
  ZPL.StatementFusion = true;
  ZPL.LocalityFusion = true;
  ZPL.FuseAcrossAntiDeps = true;
  ZPL.ContractCompilerTemps = true;
  ZPL.ContractUserTemps = true;
  ZPL.UnifiedWeighing = true;

  return {PGI, IBM, APR, Cray, ZPL};
}

namespace {

/// Statements created from the same source statement during normalization
/// share a group (the compiler-temporary pair). Vendors that do no real
/// statement fusion still fuse within a group, and the anti-dependence
/// restriction does not apply within a group (scalar compilers handle a
/// single F90 statement's self-anti-dependence by direction choice).
std::vector<unsigned> computeSourceGroups(const Program &P) {
  std::vector<unsigned> GroupOf(P.numStmts());
  for (unsigned I = 0; I < P.numStmts(); ++I)
    GroupOf[I] = I;
  for (const ArraySymbol *A : P.arrays()) {
    if (!A->isCompilerTemp())
      continue;
    // All statements referencing this temporary join the first's group.
    int First = -1;
    for (unsigned I = 0; I < P.numStmts(); ++I) {
      std::vector<Access> Accs;
      P.getStmt(I)->getAccesses(Accs);
      bool Refs = false;
      for (const Access &Acc : Accs)
        if (Acc.Sym == A)
          Refs = true;
      if (!Refs)
        continue;
      if (First < 0)
        First = static_cast<int>(I);
      else
        GroupOf[I] = GroupOf[static_cast<unsigned>(First)];
    }
  }
  return GroupOf;
}

/// Vendor-specific fusion driver mirroring FUSION-FOR-CONTRACTION with
/// the policy's restrictions layered on the legality test.
class VendorEngine {
  const VendorPolicy &Policy;
  const ASDG &G;
  FusionPartition &FP;
  std::vector<unsigned> GroupOf;

public:
  VendorEngine(const VendorPolicy &Policy, const ASDG &G, FusionPartition &FP)
      : Policy(Policy), G(G), FP(FP),
        GroupOf(computeSourceGroups(G.getProgram())) {}

  bool singleSourceGroup(const std::set<unsigned> &C) const {
    int Group = -1;
    for (unsigned Cl : C)
      for (unsigned StmtId : FP.members(Cl)) {
        if (Group < 0)
          Group = static_cast<int>(GroupOf[StmtId]);
        else if (GroupOf[StmtId] != static_cast<unsigned>(Group))
          return false;
      }
    return true;
  }

  bool legalForPolicy(const std::set<unsigned> &C) const {
    if (!isLegalFusion(FP, C))
      return false;
    if (Policy.FuseAcrossAntiDeps || singleSourceGroup(C))
      return true;
    // The vendor cannot emit a fused nest with a loop-carried
    // anti-dependence across source statements.
    for (unsigned EdgeId : FP.internalEdges(C))
      for (const DepLabel &L : G.getEdge(EdgeId).Labels)
        if (L.Type == DepType::Anti && (!L.UDV || !L.UDV->isZero()))
          return false;
    return true;
  }

  void greedy(const ArrayFilter &Candidates, bool RequireContractible) {
    for (const ArraySymbol *Var : G.arraysByDecreasingWeight()) {
      if (!Candidates(Var))
        continue;
      std::set<unsigned> C = FP.fusionCandidates(Var);
      if (C.empty())
        continue;
      if (!Policy.StatementFusion && !singleSourceGroup(C))
        continue;
      if (RequireContractible && !isContractible(FP, C, Var))
        continue;
      if (!legalForPolicy(C))
        continue;
      FP.merge(C);
    }
  }
};

} // namespace

VendorRun vendors::runVendorPipeline(std::unique_ptr<Program> P,
                                     const VendorPolicy &Policy) {
  normalizeProgram(*P);
  ASDG G = ASDG::build(*P);
  FusionPartition FP = FusionPartition::trivial(G);
  VendorEngine Engine(Policy, G, FP);

  ArrayFilter UserTemps = [](const ArraySymbol *A) {
    return !A->isCompilerTemp();
  };

  if (Policy.UnifiedWeighing && Policy.ContractUserTemps) {
    Engine.greedy(anyArray(), /*RequireContractible=*/true);
  } else {
    // Compiler temporaries considered first, separately from user arrays
    // ("the compiler considers contraction of compiler and user temporary
    // arrays separately", section 5.1).
    if (Policy.ContractCompilerTemps)
      Engine.greedy(compilerTempsOnly(), /*RequireContractible=*/true);
    if (Policy.ContractUserTemps)
      Engine.greedy(UserTemps, /*RequireContractible=*/true);
  }
  if (Policy.LocalityFusion)
    Engine.greedy(anyArray(), /*RequireContractible=*/false);

  ArrayFilter Allowed = [&Policy](const ArraySymbol *A) {
    return A->isCompilerTemp() ? Policy.ContractCompilerTemps
                               : Policy.ContractUserTemps;
  };
  VendorRun Run;
  for (const ArraySymbol *A : contractibleArrays(FP, Allowed))
    Run.ContractedNames.insert(A->getName());
  Run.ClusterOf.resize(P->numStmts());
  for (unsigned I = 0; I < P->numStmts(); ++I)
    Run.ClusterOf[I] = FP.clusterOf(I);
  Run.Prog = std::move(P);
  return Run;
}

bool vendors::fragmentHandledProperly(unsigned FragId,
                                      const VendorPolicy &Policy) {
  VendorRun Run = runVendorPipeline(buildFragment(FragId), Policy);
  switch (probeKindOf(FragId)) {
  case ProbeKind::Fusion:
    return Run.ClusterOf.size() >= 2 && Run.ClusterOf[0] == Run.ClusterOf[1];
  case ProbeKind::CompilerContract:
    return Run.ContractedNames.count("_T1") != 0;
  case ProbeKind::UserContract:
    return Run.ContractedNames.count("B") != 0;
  case ProbeKind::TradeOff:
    return Run.ContractedNames.count("T1") != 0 &&
           Run.ContractedNames.count("T2") != 0;
  }
  return false;
}

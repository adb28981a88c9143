//===- xform/Fusion.cpp - Statement fusion algorithms -----------------------===//

#include "xform/Fusion.h"

#include "obs/Obs.h"

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

ArrayFilter xform::anyArray() {
  return [](const ArraySymbol *) { return true; };
}

ArrayFilter xform::compilerTempsOnly() {
  return [](const ArraySymbol *A) { return A->isCompilerTemp(); };
}

/// Shared driver for the Figure 3 greedy loop. When \p RequireContractible
/// is true this is FUSION-FOR-CONTRACTION; when false it is fusion for
/// locality (the CONTRACTIBLE? test of line 7 eliminated).
ALF_COUNTER(NumCandidatesConsidered, "fusion.candidates",
            "Arrays considered by the greedy fusion loop");
ALF_COUNTER(NumMergesPerformed, "fusion.merges", "Cluster merges performed");
ALF_COUNTER(NumRejectedContractible, "fusion.rejected_contractible",
            "Merges rejected by CONTRACTIBLE?");
ALF_COUNTER(NumRejectedLegality, "fusion.rejected_legality",
            "Merges rejected by FUSION-PARTITION?");

static unsigned runGreedyFusion(FusionPartition &P,
                                const ArrayFilter &Candidates,
                                bool RequireContractible) {
  const ASDG &G = P.graph();
  unsigned Merges = 0;

  // Line 3: array variables sorted by decreasing weight w(x, G).
  for (const ArraySymbol *Var : G.arraysByDecreasingWeight()) {
    if (!Candidates(Var))
      continue;

    // Lines 5-6: clusters containing a reference to Var, closed under
    // GROW so the merge cannot create cycles.
    std::set<unsigned> C = P.fusionCandidates(Var);
    if (C.empty())
      continue; // nothing to fuse
    ++NumCandidatesConsidered;

    // Line 7: CONTRACTIBLE?(x, c, G) and FUSION-PARTITION?(c, G).
    if (RequireContractible && !isContractible(P, C, Var)) {
      ++NumRejectedContractible;
      continue;
    }
    if (!isLegalFusion(P, C)) {
      ++NumRejectedLegality;
      continue;
    }

    // Lines 8-10: merge into the smallest cluster id.
    P.merge(C);
    ++Merges;
    ++NumMergesPerformed;
  }
  return Merges;
}

unsigned xform::fuseForContraction(FusionPartition &P,
                                   const ArrayFilter &Candidates) {
  return runGreedyFusion(P, Candidates, /*RequireContractible=*/true);
}

unsigned xform::fuseForLocality(FusionPartition &P) {
  return runGreedyFusion(P, anyArray(), /*RequireContractible=*/false);
}

unsigned xform::fuseAllPairwise(FusionPartition &P) {
  const ir::Program &Prog = P.graph().getProgram();

  // Cheap per-cluster precheck: the region its statements share, or null
  // when the cluster cannot join a multi-statement nest at all.
  auto RegionOf = [&Prog, &P](unsigned Cluster) -> const ir::Region * {
    const ir::Region *Common = nullptr;
    for (unsigned StmtId : P.members(Cluster)) {
      const ir::Stmt *S = Prog.getStmt(StmtId);
      const ir::Region *R = nullptr;
      if (const auto *NS = dyn_cast<ir::NormalizedStmt>(S))
        R = NS->getRegion();
      else if (const auto *RS = dyn_cast<ir::ReduceStmt>(S))
        R = RS->getRegion();
      if (!R)
        return nullptr;
      if (!Common)
        Common = R;
      else if (*Common != *R)
        return nullptr;
    }
    return Common;
  };

  // A cluster of this pass's snapshot that a merge has since absorbed.
  auto Absorbed = [&P](unsigned Cluster) {
    return P.clusterOf(Cluster) != Cluster;
  };

  unsigned Merges = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<unsigned> Clusters = P.clusters();
    for (size_t I = 0; I < Clusters.size(); ++I) {
      if (Absorbed(Clusters[I]))
        continue;
      const ir::Region *RI = RegionOf(Clusters[I]);
      if (!RI)
        continue;
      for (size_t J = I + 1; J < Clusters.size(); ++J) {
        if (Absorbed(Clusters[J]) || Absorbed(Clusters[I]))
          break;
        const ir::Region *RJ = RegionOf(Clusters[J]);
        if (!RJ || *RI != *RJ)
          continue;
        std::set<unsigned> C{Clusters[I], Clusters[J]};
        std::set<unsigned> Grown = P.grow(C);
        C.insert(Grown.begin(), Grown.end());
        if (!isLegalFusion(P, C))
          continue;
        unsigned Survivor = P.merge(C);
        ++Merges;
        Changed = true;
        if (Survivor != Clusters[I])
          break; // this row's cluster was absorbed; move on
      }
    }
  }
  return Merges;
}

std::vector<const ArraySymbol *>
xform::contractibleArrays(const FusionPartition &P, const ArrayFilter &Allowed) {
  std::vector<const ArraySymbol *> Result;
  for (const ArraySymbol *A : P.graph().getProgram().arrays())
    if (Allowed(A) && isContractible(P, A))
      Result.push_back(A);
  return Result;
}

double xform::contractionBenefit(
    const FusionPartition &P, const std::vector<const ArraySymbol *> &Vars) {
  double Benefit = 0.0;
  for (const ArraySymbol *A : Vars)
    Benefit += P.graph().referenceWeight(A);
  return Benefit;
}

//===- xform/PartialContraction.cpp - Lower-dimensional contraction ---------===//

#include "xform/PartialContraction.h"

#include "analysis/Footprint.h"

#include <algorithm>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

uint64_t PartialPlan::origBytes() const {
  uint64_t Elems = 1;
  for (int64_t E : FullExtents)
    Elems *= static_cast<uint64_t>(E);
  return Elems * Array->getElemSize();
}

uint64_t PartialPlan::bufferBytes() const {
  uint64_t Elems = 1;
  for (int64_t E : BufferExtents)
    Elems *= static_cast<uint64_t>(E);
  return Elems * Array->getElemSize();
}

ir::Region PartialPlan::bufferRegion() const {
  std::vector<int64_t> Lo(OrigLo.size()), Hi(OrigLo.size());
  for (unsigned D = 0; D < OrigLo.size(); ++D) {
    if (isReduced(D)) {
      Lo[D] = 0;
      Hi[D] = BufferExtents[D] - 1;
    } else {
      Lo[D] = OrigLo[D];
      Hi[D] = OrigLo[D] + FullExtents[D] - 1;
    }
  }
  return ir::Region(std::move(Lo), std::move(Hi));
}

namespace {

/// The relaxed distance rule: zero along every distributed dimension.
std::function<bool(const Offset &)> distributedNull(const SequentialDims &Seq) {
  return [&Seq](const Offset &U) {
    for (unsigned D = 0; D < U.rank(); ++D)
      if (U[D] != 0 && !Seq.isSequential(D))
        return false;
    return true;
  };
}

} // namespace

bool xform::isLegalFusionRelaxed(const FusionPartition &P,
                                 const std::set<unsigned> &C,
                                 const SequentialDims &Seq,
                                 LoopStructureVector *OutLSV,
                                 CandidateSet Set) {
  return isLegalFusionWithFlowRule(P, C, distributedNull(Seq), OutLSV, Set);
}

bool xform::isPartiallyContractible(const FusionPartition &P,
                                    const std::set<unsigned> &C,
                                    const ir::ArraySymbol *Var,
                                    const SequentialDims &Seq) {
  return isContractibleWithRule(P, C, Var, distributedNull(Seq));
}

unsigned xform::fuseForPartialContraction(FusionPartition &P,
                                          const SequentialDims &Seq) {
  const analysis::ASDG &G = P.graph();
  unsigned Merges = 0;
  for (const ArraySymbol *Var : G.arraysByDecreasingWeight()) {
    std::set<unsigned> C = P.fusionCandidates(Var);
    if (C.empty())
      continue;
    if (!isPartiallyContractible(P, C, Var, Seq))
      continue;
    if (!isLegalFusionRelaxed(P, C, Seq, nullptr, CandidateSet::GrowClosed))
      continue;
    P.merge(C);
    ++Merges;
  }
  return Merges;
}

std::vector<PartialPlan> xform::planPartialContraction(
    const FusionPartition &P, const SequentialDims &Seq,
    const std::vector<const ArraySymbol *> &Exclude) {
  const analysis::ASDG &G = P.graph();
  const Program &Prog = G.getProgram();
  FootprintInfo FI = FootprintInfo::compute(Prog);

  std::vector<PartialPlan> Plans;
  for (const ArraySymbol *Var : Prog.arrays()) {
    if (std::find(Exclude.begin(), Exclude.end(), Var) != Exclude.end())
      continue;
    if (isContractible(P, Var))
      continue; // full contraction is strictly better
    if (!isPartiallyContractible(P, std::set<unsigned>{}, Var, Seq))
      continue;
    const Region *Bounds = FI.boundsFor(Var);
    if (!Bounds)
      continue;

    // The cluster holding every reference to Var, its loop structure, and
    // the per-dimension maximum dependence distance of Var.
    const std::vector<unsigned> &Refs = G.statementsReferencing(Var);
    if (Refs.empty())
      continue;
    unsigned Cluster = P.clusterOf(Refs.front());
    auto UDVs = P.internalUDVs(std::set<unsigned>{Cluster});
    if (!UDVs)
      continue;
    unsigned Rank = Var->getRank();
    auto LSV = findLoopStructure(*UDVs, Rank);
    if (!LSV)
      continue;

    std::vector<int64_t> MaxDist(Rank, 0);
    for (unsigned EdgeId : G.edgesOf(Var))
      for (const analysis::DepLabel &L : G.getEdge(EdgeId).Labels) {
        if (L.Var != Var || !L.UDV)
          continue;
        for (unsigned D = 0; D < Rank; ++D)
          MaxDist[D] = std::max<int64_t>(
              MaxDist[D], (*L.UDV)[D] < 0 ? -(*L.UDV)[D] : (*L.UDV)[D]);
      }

    // The outermost loop carrying a dependence of Var.
    int CarryLoop = -1;
    for (unsigned Loop = 0; Loop < Rank; ++Loop)
      if (MaxDist[LSV->dimOf(Loop)] > 0) {
        CarryLoop = static_cast<int>(Loop);
        break;
      }

    // Halo-read safety for the carried dimension. Elements read outside
    // the written range are never produced (they hold the array's
    // initial/halo values); a rolling buffer may serve such a read a
    // stale slot from a previous sweep. Two safe cases: (a) every read
    // coordinate is covered by a write (no halo reads), or (b) the
    // carrying loop is the outermost loop of the nest, where halo reads
    // (bounded by the window width) happen before their slots are ever
    // reused. Otherwise the carried dimension keeps its full extent.
    bool CarrySafe = true;
    if (CarryLoop > 0) {
      unsigned CarryDim = LSV->dimOf(static_cast<unsigned>(CarryLoop));
      int64_t WriteLo = 0, WriteHi = -1, ReadLo = 0, ReadHi = -1;
      bool AnyWrite = false, AnyRead = false;
      for (unsigned StmtId : Refs) {
        const Stmt *S = Prog.getStmt(StmtId);
        auto Include = [&](const Region &R, const Offset &Off, bool Write) {
          int64_t Lo = R.lo(CarryDim) + Off[CarryDim];
          int64_t Hi = R.hi(CarryDim) + Off[CarryDim];
          int64_t &OutLo = Write ? WriteLo : ReadLo;
          int64_t &OutHi = Write ? WriteHi : ReadHi;
          bool &Any = Write ? AnyWrite : AnyRead;
          if (!Any) {
            OutLo = Lo;
            OutHi = Hi;
            Any = true;
          } else {
            OutLo = std::min(OutLo, Lo);
            OutHi = std::max(OutHi, Hi);
          }
        };
        if (const auto *NS = dyn_cast<NormalizedStmt>(S)) {
          if (NS->getLHS() == Var)
            Include(*NS->getRegion(), NS->getLHSOffset(), true);
          for (const ArrayRefExpr *Ref : NS->rhsArrayRefs())
            if (Ref->getSymbol() == Var)
              Include(*NS->getRegion(), Ref->getOffset(), false);
        } else if (const auto *RS = dyn_cast<ReduceStmt>(S)) {
          for (const ArrayRefExpr *Ref : RS->bodyArrayRefs())
            if (Ref->getSymbol() == Var)
              Include(*RS->getRegion(), Ref->getOffset(), false);
        }
      }
      if (AnyRead && (!AnyWrite || ReadLo < WriteLo || ReadHi > WriteHi))
        CarrySafe = false;
    }

    PartialPlan Plan;
    Plan.Array = Var;
    Plan.OrigLo.resize(Rank);
    Plan.FullExtents.resize(Rank);
    Plan.BufferExtents.resize(Rank);
    for (unsigned D = 0; D < Rank; ++D) {
      Plan.OrigLo[D] = Bounds->lo(D);
      Plan.FullExtents[D] = Bounds->extent(D);
    }
    for (unsigned Loop = 0; Loop < Rank; ++Loop) {
      unsigned D = LSV->dimOf(Loop);
      if (CarryLoop < 0 || static_cast<int>(Loop) < CarryLoop)
        Plan.BufferExtents[D] = 1; // outside any carried dependence
      else if (static_cast<int>(Loop) == CarryLoop && CarrySafe)
        Plan.BufferExtents[D] =
            std::min<int64_t>(MaxDist[D] + 1, Plan.FullExtents[D]);
      else
        Plan.BufferExtents[D] = Plan.FullExtents[D]; // inner: full planes
    }

    if (Plan.bufferBytes() < Plan.origBytes())
      Plans.push_back(std::move(Plan));
  }
  return Plans;
}

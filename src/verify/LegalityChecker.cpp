//===- verify/LegalityChecker.cpp - Post-hoc fusion/contraction proofs ----===//
//
// Pass 3 of the verification layer: given the StrategyResult a strategy
// produced, re-prove its decisions from first principles — Definition 5
// for every fusion cluster, Definition 6 for every contracted array —
// against dependences the oracle derives from the program itself rather
// than the ASDG the strategy consumed (so a corrupted graph cannot
// certify its own output). The file also hosts the UDV-based static race
// detector for parallel schedules: for every nest the ParallelExecutor
// will run concurrently it re-derives the element-access distances from
// the scalarized body and re-applies the classic legality rule to the
// partitioned loop, checks that no reduction accumulates in parallel,
// that rolling buffers never wrap along the parallel dimension, and that
// every scalar written in the nest is thread-private (a contraction
// scalar defined before use in each iteration).
//
//===----------------------------------------------------------------------===//

#include "semiring/Semiring.h"
#include "support/Casting.h"
#include "obs/Obs.h"
#include "support/StringUtil.h"
#include "verify/AccessModel.h"
#include "verify/Verify.h"
#include "xform/FusionPartition.h"
#include "xform/Parallelize.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

using namespace alf;
using namespace alf::ir;
using namespace alf::verify;

ALF_COUNTER(NumStrategyProofs, "verify.strategy_proofs",
            "Strategy results re-proved (Definitions 5 and 6)");
ALF_COUNTER(NumClusterProofs, "verify.cluster_proofs",
            "Fusion clusters re-proved against Definition 5");
ALF_COUNTER(NumContractionProofs, "verify.contraction_proofs",
            "Contracted arrays re-proved against Definition 6");
ALF_COUNTER(NumRaceChecksRun, "verify.race_checks",
            "Parallel schedules race-checked");
ALF_COUNTER(NumNestsCertifiedParallel, "verify.nests_certified_parallel",
            "Loop nests certified free of cross-iteration conflicts");
ALF_COUNTER(NumLegalityFindings, "verify.legality_findings",
            "Fusion/contraction/race legality failures");
ALF_COUNTER(NumSemiringProofs, "verify.semiring_proofs",
            "Reduction semirings re-checked against their declared laws");

namespace {

constexpr const char *FusionPass = "fusion-legality";
constexpr const char *ContractionPass = "contraction-legality";
constexpr const char *RacePass = "race";

/// Oracle dependences restricted to label lists with resolved symbols,
/// grouped per ordered statement pair.
struct OracleDep {
  const Symbol *Var;
  std::optional<Offset> UDV;
  analysis::DepType Type;
};

std::map<std::pair<unsigned, unsigned>, std::vector<OracleDep>>
oracleDeps(const ir::Program &P) {
  std::map<std::pair<unsigned, unsigned>, std::vector<OracleDep>> Out;
  for (const auto &[Pair, Labels] : detail::deriveDependences(P)) {
    auto &List = Out[Pair];
    for (const detail::LabelKey &K : Labels) {
      const auto &[SymId, HasUDV, Elems, Type] = K;
      std::optional<Offset> UDV;
      if (HasUDV)
        UDV = Offset(Elems);
      List.push_back(OracleDep{P.getSymbol(SymId), std::move(UDV), Type});
    }
  }
  return Out;
}

/// The common region of a multi-statement cluster, or null (with a
/// finding) when members disagree or are not fusible statement kinds.
const Region *clusterRegion(const ir::Program &P,
                            const std::vector<unsigned> &Members,
                            VerifyReport &Out) {
  const Region *Common = nullptr;
  for (unsigned Id : Members) {
    const Stmt *S = P.getStmt(Id);
    const Region *R = nullptr;
    if (const auto *NS = dyn_cast<NormalizedStmt>(S))
      R = NS->getRegion();
    else if (const auto *RS = dyn_cast<ReduceStmt>(S))
      R = RS->getRegion();
    else {
      Out.add(FusionPass,
              formatString("cluster {S%u..}: S%u is not a normalized or "
                           "reduce statement and cannot fuse",
                           Members.front(), Id));
      return nullptr;
    }
    if (!Common) {
      Common = R;
    } else if (!R || *R != *Common) {
      Out.add(FusionPass,
              formatString("cluster {S%u..}: S%u's region %s differs from "
                           "the cluster region %s (Definition 5 (i))",
                           Members.front(), Id,
                           R ? R->str().c_str() : "<null>",
                           Common->str().c_str()));
      return nullptr;
    }
  }
  return Common;
}

void proveCluster(
    const ir::Program &P,
    const std::map<std::pair<unsigned, unsigned>, std::vector<OracleDep>>
        &Deps,
    const std::vector<unsigned> &Members, VerifyReport &Out) {
  ++NumClusterProofs;
  if (Members.size() < 2)
    return; // a singleton cluster is trivially a legal fusion
  const Region *Common = clusterRegion(P, Members, Out);
  if (!Common)
    return;

  // Fusing across a communication primitive would move the exchange
  // relative to half the cluster; the strategies never do it, so a
  // partition that does is a bug.
  for (unsigned Id = Members.front() + 1; Id < Members.back(); ++Id)
    if (isa<CommStmt>(P.getStmt(Id)) &&
        std::find(Members.begin(), Members.end(), Id) == Members.end())
      Out.add(FusionPass,
              formatString("cluster {S%u..S%u} spans the communication "
                           "statement S%u",
                           Members.front(), Members.back(), Id));

  // Conditions (ii) and (iv): intra-cluster flow dependences must be
  // null, every intra-cluster dependence must be representable, and a
  // loop structure vector preserving all of them must exist.
  std::vector<Offset> Internal;
  for (size_t A = 0; A < Members.size(); ++A) {
    for (size_t B = A + 1; B < Members.size(); ++B) {
      auto It = Deps.find({Members[A], Members[B]});
      if (It == Deps.end())
        continue;
      for (const OracleDep &D : It->second) {
        if (!D.UDV) {
          Out.add(FusionPass,
                  formatString("cluster {S%u..}: unrepresentable %s "
                               "dependence S%u -> S%u on %s",
                               Members.front(),
                               analysis::getDepTypeName(D.Type), Members[A],
                               Members[B], D.Var->getName().c_str()));
          continue;
        }
        if (D.Type == analysis::DepType::Flow && !D.UDV->isZero())
          Out.add(FusionPass,
                  formatString("cluster {S%u..}: non-null flow dependence "
                               "S%u -> S%u on %s with distance %s "
                               "(Definition 5 (ii))",
                               Members.front(), Members[A], Members[B],
                               D.Var->getName().c_str(),
                               D.UDV->str().c_str()));
        if (D.UDV->rank() == Common->rank())
          Internal.push_back(*D.UDV);
        else
          Out.add(FusionPass,
                  formatString("cluster {S%u..}: dependence S%u -> S%u on "
                               "%s has rank-%u distance under a rank-%u "
                               "region",
                               Members.front(), Members[A], Members[B],
                               D.Var->getName().c_str(), D.UDV->rank(),
                               Common->rank()));
      }
    }
  }

  std::optional<xform::LoopStructureVector> LSV =
      xform::findLoopStructure(Internal, Common->rank());
  if (!LSV) {
    Out.add(FusionPass,
            formatString("cluster {S%u..}: no loop structure vector "
                         "preserves the internal dependences "
                         "(Definition 5 (iv))",
                         Members.front()));
    return;
  }
  // Double-check FIND-LOOP-STRUCTURE's answer rather than trusting it:
  // every internal distance, constrained by the vector, must be
  // lexicographically nonnegative (Definition 1).
  for (const Offset &U : Internal) {
    Offset D = xform::constrain(U, *LSV);
    if (!xform::isLexicographicallyNonnegative(D))
      Out.add(FusionPass,
              formatString("cluster {S%u..}: loop structure %s reverses "
                           "the dependence with distance %s",
                           Members.front(), LSV->str().c_str(),
                           U.str().c_str()));
  }
}

void proveContraction(
    const ir::Program &P, const xform::FusionPartition &Partition,
    const std::map<std::pair<unsigned, unsigned>, std::vector<OracleDep>>
        &Deps,
    const ArraySymbol *A, VerifyReport &Out) {
  ++NumContractionProofs;
  if (A->isLiveOut()) {
    Out.add(ContractionPass,
            formatString("%s is live-out and can never be contracted "
                         "(Definition 6 side condition)",
                         A->getName().c_str()));
    return;
  }

  // Walk the referencing statements in program order, re-deriving each
  // statement's role from the access model.
  bool SeenWrite = false, Referenced = false;
  for (unsigned Id = 0; Id < P.numStmts(); ++Id) {
    const Stmt *S = P.getStmt(Id);
    bool Reads = false, Writes = false;
    for (const detail::Ref &R : detail::collectRefs(*S)) {
      if (R.Sym != A)
        continue;
      (R.IsWrite ? Writes : Reads) = true;
    }
    if (!Reads && !Writes)
      continue;
    Referenced = true;
    if (!isa<NormalizedStmt>(S) && !isa<ReduceStmt>(S)) {
      Out.add(ContractionPass,
              formatString("%s is referenced by the unfusible statement "
                           "S%u and cannot live in a register",
                           A->getName().c_str(), Id));
      return;
    }
    if (Reads && !SeenWrite) {
      Out.add(ContractionPass,
              formatString("%s has an upward-exposed read at S%u "
                           "(value flows in from before the fragment)",
                           A->getName().c_str(), Id));
      return;
    }
    SeenWrite |= Writes;
  }
  if (!Referenced || !SeenWrite) {
    Out.add(ContractionPass,
            formatString("%s is never written; contraction would drop its "
                         "definition",
                         A->getName().c_str()));
    return;
  }

  // Definition 6 conditions (ii) and (iii): every dependence due to A has
  // both endpoints in one cluster and the null distance.
  for (const auto &[Pair, List] : Deps) {
    for (const OracleDep &D : List) {
      if (D.Var != A)
        continue;
      if (Partition.clusterOf(Pair.first) != Partition.clusterOf(Pair.second))
        Out.add(ContractionPass,
                formatString("%s carries a %s dependence S%u -> S%u across "
                             "clusters %u and %u (Definition 6 (ii))",
                             A->getName().c_str(),
                             analysis::getDepTypeName(D.Type), Pair.first,
                             Pair.second, Partition.clusterOf(Pair.first),
                             Partition.clusterOf(Pair.second)));
      if (!D.UDV || !D.UDV->isZero())
        Out.add(ContractionPass,
                formatString("%s carries a %s dependence S%u -> S%u with "
                             "distance %s; a scalar holds one element "
                             "(Definition 6 (iii))",
                             A->getName().c_str(),
                             analysis::getDepTypeName(D.Type), Pair.first,
                             Pair.second,
                             D.UDV ? D.UDV->str().c_str() : "unknown"));
    }
  }
}

} // namespace

VerifyReport verify::verifyStrategy(const analysis::ASDG &G,
                                    const xform::StrategyResult &SR) {
  ++NumStrategyProofs;
  VerifyReport Out;
  const ir::Program &P = G.getProgram();
  const xform::FusionPartition &Partition = SR.Partition;

  if (Partition.numStmts() != P.numStmts()) {
    Out.add(FusionPass,
            formatString("partition covers %u statements but the program "
                         "has %u",
                         Partition.numStmts(), P.numStmts()));
    NumLegalityFindings += Out.Findings.size();
    return Out;
  }

  // Every reduction's legality argument (Definition 6 and the scalarized
  // accumulation order) leans on the declared ⊕ being associative with
  // the declared identity. Re-check those laws on the semiring's own
  // carrier before trusting them: a "semiring" whose ⊕ is not associative
  // makes every contraction of its reductions unsound.
  {
    std::set<const semiring::Semiring *> Checked;
    for (unsigned Id = 0; Id < P.numStmts(); ++Id) {
      const auto *RS = dyn_cast<ReduceStmt>(P.getStmt(Id));
      if (!RS || !Checked.insert(&RS->getSemiring()).second)
        continue;
      ++NumSemiringProofs;
      for (const std::string &Law :
           semiring::checkAlgebra(RS->getSemiring()))
        Out.add(ContractionPass,
                formatString("S%u: semiring '%s' violates its declared "
                             "algebra: %s (Definition 6 precondition)",
                             Id, RS->getSemiring().Name.c_str(),
                             Law.c_str()));
    }
  }

  auto Deps = oracleDeps(P);

  // Partition representation: a cluster's id is its smallest member.
  for (unsigned Cluster : Partition.clusters()) {
    std::vector<unsigned> Members = Partition.members(Cluster);
    if (Members.empty() || Members.front() != Cluster)
      Out.add(FusionPass,
              formatString("cluster %u does not contain its own id as its "
                           "smallest member",
                           Cluster));
    proveCluster(P, Deps, Members, Out);
  }

  // Definition 5 (iii): the quotient graph over the oracle's dependences
  // is acyclic (colors: 0 unvisited, 1 on stack, 2 done).
  {
    std::map<unsigned, std::set<unsigned>> Succ;
    for (const auto &[Pair, List] : Deps) {
      (void)List;
      unsigned CS = Partition.clusterOf(Pair.first);
      unsigned CT = Partition.clusterOf(Pair.second);
      if (CS != CT)
        Succ[CS].insert(CT);
    }
    std::map<unsigned, int> Color;
    std::function<bool(unsigned)> HasCycle = [&](unsigned C) {
      Color[C] = 1;
      for (unsigned Next : Succ[C]) {
        int State = Color.count(Next) ? Color[Next] : 0;
        if (State == 1 || (State == 0 && HasCycle(Next)))
          return true;
      }
      Color[C] = 2;
      return false;
    };
    for (unsigned Cluster : Partition.clusters()) {
      int State = Color.count(Cluster) ? Color[Cluster] : 0;
      if (State == 0 && HasCycle(Cluster)) {
        Out.add(FusionPass,
                formatString("quotient graph has a cycle through cluster "
                             "%u (Definition 5 (iii))",
                             Cluster));
        break;
      }
    }
  }

  for (const ArraySymbol *A : SR.Contracted)
    proveContraction(P, Partition, Deps, A, Out);

  NumLegalityFindings += Out.Findings.size();
  return Out;
}

//===----------------------------------------------------------------------===//
// Static race detection for parallel schedules
//===----------------------------------------------------------------------===//

namespace {

/// One element access of a nest body: array + constant offset from the
/// loop indices.
struct ElemAccess {
  const ArraySymbol *Array;
  Offset Off;
  bool IsWrite;
};

void checkParallelNest(const lir::LoopProgram &LP, const lir::LoopNest &Nest,
                       unsigned NodeIdx, int ParallelLoop, VerifyReport &Out) {
  const xform::LoopStructureVector &LSV = Nest.LSV;
  unsigned L = static_cast<unsigned>(ParallelLoop);
  if (L >= LSV.rank()) {
    Out.add(RacePass,
            formatString("node %u: parallel loop %d of a rank-%u nest",
                         NodeIdx, ParallelLoop, LSV.rank()));
    return;
  }

  // The executor keeps contraction scalars in a thread-private overlay,
  // so they are race-free exactly when every iteration defines them
  // before using them. Any other scalar written in a parallel body is
  // shared storage and therefore a race.
  std::set<const ScalarSymbol *> ContractionScalars;
  for (const ArraySymbol *A : LP.source().arrays())
    if (const ScalarSymbol *S = LP.scalarFor(A))
      ContractionScalars.insert(S);

  // Collect every element access and every scalar touch of the body.
  std::vector<ElemAccess> Accesses;
  std::set<const ScalarSymbol *> WrittenScalars;
  std::set<const ScalarSymbol *> ExposedScalars;
  for (const lir::ScalarStmt &SS : Nest.Body) {
    if (SS.Accumulate) {
      // A reduction accumulator carries a dependence on every loop, and
      // parallel accumulation would also reassociate floating point.
      Out.add(RacePass,
              formatString("node %u: reduction into %s inside a parallel "
                           "nest",
                           NodeIdx,
                           SS.LHS.Scalar ? SS.LHS.Scalar->getName().c_str()
                                         : "<array>"));
      continue;
    }
    walkExpr(SS.RHS.get(), [&](const Expr *E) {
      if (const auto *AR = dyn_cast<ArrayRefExpr>(E)) {
        Accesses.push_back(
            ElemAccess{AR->getSymbol(), AR->getOffset(), /*IsWrite=*/false});
        return;
      }
      if (const auto *SRef = dyn_cast<ScalarRefExpr>(E))
        if (ContractionScalars.count(SRef->getSymbol()) &&
            WrittenScalars.count(SRef->getSymbol()) == 0)
          ExposedScalars.insert(SRef->getSymbol());
    });
    if (SS.LHS.isScalar()) {
      if (ContractionScalars.count(SS.LHS.Scalar) == 0)
        Out.add(RacePass,
                formatString("node %u: write to shared scalar %s inside a "
                             "parallel nest",
                             NodeIdx, SS.LHS.Scalar->getName().c_str()));
      WrittenScalars.insert(SS.LHS.Scalar);
    } else {
      Accesses.push_back(ElemAccess{SS.LHS.Array, SS.LHS.Off,
                                    /*IsWrite=*/true});
    }
  }
  for (const ScalarSymbol *S : ExposedScalars)
    Out.add(RacePass,
            formatString("node %u: contraction scalar %s is read before it "
                         "is written in the iteration (its value would "
                         "cross iterations)",
                         NodeIdx, S->getName().c_str()));

  // Rolling buffers alias iterations along their modulo-indexed
  // dimensions; the parallel loop must not iterate one.
  std::set<const ArraySymbol *> Seen;
  for (const ElemAccess &A : Accesses) {
    if (!Seen.insert(A.Array).second)
      continue;
    if (const xform::PartialPlan *Plan = LP.partialPlanFor(A.Array)) {
      unsigned Dim = LSV.dimOf(L);
      if (Dim < Plan->BufferExtents.size() && Plan->isReduced(Dim))
        Out.add(RacePass,
                formatString("node %u: parallel loop %u iterates dimension "
                             "%u of rolling buffer %s, which wraps modulo "
                             "%lld",
                             NodeIdx, L, Dim, A.Array->getName().c_str(),
                             static_cast<long long>(
                                 Plan->BufferExtents[Dim])));
    }
  }

  // The race rule proper: for every access pair on one array with at
  // least one write, the distance (constrained by the nest's loop
  // structure) must be carried by a loop outer to the parallel one or be
  // independent of it.
  for (size_t I = 0; I < Accesses.size(); ++I) {
    for (size_t J = I + 1; J < Accesses.size(); ++J) {
      const ElemAccess &A = Accesses[I];
      const ElemAccess &B = Accesses[J];
      if (A.Array != B.Array)
        continue;
      if (!A.IsWrite && !B.IsWrite)
        continue;
      if (A.Off.rank() != B.Off.rank() || A.Off.rank() != LSV.rank()) {
        Out.add(RacePass,
                formatString("node %u: accesses to %s with mismatched "
                             "ranks under a rank-%u nest",
                             NodeIdx, A.Array->getName().c_str(),
                             LSV.rank()));
        continue;
      }
      Offset U = A.Off - B.Off;
      Offset D = xform::constrain(U, LSV);
      bool CarriedOuter = false;
      for (unsigned Loop = 0; Loop < L; ++Loop)
        if (D[Loop] != 0)
          CarriedOuter = true;
      if (!CarriedOuter && D[L] != 0)
        Out.add(RacePass,
                formatString("node %u: iterations of parallel loop %u "
                             "conflict on %s (offsets %s and %s, carried "
                             "distance %s)",
                             NodeIdx, L, A.Array->getName().c_str(),
                             A.Off.str().c_str(), B.Off.str().c_str(),
                             D.str().c_str()));
    }
  }
}

} // namespace

VerifyReport verify::verifyParallelSafety(const lir::LoopProgram &LP,
                                          const exec::ParallelSchedule &Sched) {
  ++NumRaceChecksRun;
  VerifyReport Out;

  if (Sched.NodePlans.size() != LP.nodes().size()) {
    Out.add(RacePass,
            formatString("schedule has %zu plans for %zu nodes",
                         Sched.NodePlans.size(), LP.nodes().size()));
    NumLegalityFindings += Out.Findings.size();
    return Out;
  }

  for (size_t I = 0; I < LP.nodes().size(); ++I) {
    const xform::NestParallelPlan &Plan = Sched.NodePlans[I];
    if (!Plan.isParallel())
      continue;
    const auto *Nest = dyn_cast<lir::LoopNest>(LP.nodes()[I].get());
    if (!Nest) {
      Out.add(RacePass,
              formatString("node %zu is not a loop nest but is scheduled "
                           "parallel",
                           I));
      continue;
    }
    unsigned Before = static_cast<unsigned>(Out.Findings.size());
    checkParallelNest(LP, *Nest, static_cast<unsigned>(I), Plan.ParallelLoop,
                      Out);
    if (Out.Findings.size() == Before)
      ++NumNestsCertifiedParallel;
  }

  NumLegalityFindings += Out.Findings.size();
  return Out;
}

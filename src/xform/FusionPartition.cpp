//===- xform/FusionPartition.cpp - Fusion partitions ------------------------===//

#include "xform/FusionPartition.h"

#include "support/StringUtil.h"

#include <algorithm>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

/// Sorts \p V and drops duplicates.
static void sortUnique(std::vector<unsigned> &V) {
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
}

FusionPartition FusionPartition::trivial(const ASDG &Graph) {
  std::vector<unsigned> Identity(Graph.numNodes());
  for (unsigned I = 0; I < Graph.numNodes(); ++I)
    Identity[I] = I;
  return fromAssignment(Graph, std::move(Identity));
}

FusionPartition FusionPartition::fromAssignment(const ASDG &Graph,
                                                std::vector<unsigned> Assignment) {
  assert(Assignment.size() == Graph.numNodes() &&
         "assignment must cover every statement");
  FusionPartition P;
  P.G = &Graph;
  P.ClusterOf = std::move(Assignment);
#ifndef NDEBUG
  for (unsigned I = 0; I < P.ClusterOf.size(); ++I) {
    assert(P.ClusterOf[I] <= I && "cluster id must be its smallest member");
    assert(P.ClusterOf[P.ClusterOf[I]] == P.ClusterOf[I] &&
           "cluster id must name an active cluster");
  }
#endif
  P.buildQuotient();
  return P;
}

void FusionPartition::buildQuotient() {
  unsigned N = numStmts();
  Members.assign(N, {});
  Succ.assign(N, {});
  Pred.assign(N, {});
  Active.clear();
  // A cluster's id is the smallest member statement's id, so the set of
  // active ids is exactly {i : ClusterOf[i] == i}.
  for (unsigned I = 0; I < N; ++I) {
    if (ClusterOf[I] == I)
      Active.push_back(I);
    Members[ClusterOf[I]].push_back(I);
  }
  for (const DepEdge &E : G->edges()) {
    unsigned SC = ClusterOf[E.Src], TC = ClusterOf[E.Tgt];
    if (SC == TC)
      continue;
    Succ[SC].push_back(TC);
    Pred[TC].push_back(SC);
  }
  for (unsigned Cl : Active) {
    sortUnique(Succ[Cl]);
    sortUnique(Pred[Cl]);
  }
  Acyclic = Active.empty() || !hasCycleCollapsing({Active.front()});
}

unsigned FusionPartition::merge(const std::set<unsigned> &C) {
  assert(!C.empty() && "cannot merge an empty cluster set");
  unsigned Target = *C.begin(); // smallest id (set is ordered)

  // Merging a GROW-closed set keeps an acyclic quotient acyclic, and
  // merging any other set makes it cyclic. A quotient that was already
  // cyclic is checked again after the merge.
  bool WasAcyclic = Acyclic;
  if (WasAcyclic)
    Acyclic = growList(C).empty();

  std::vector<unsigned> &Merged = Members[Target];
  std::vector<unsigned> NewSucc, NewPred;
  for (unsigned Cl : C) {
    assert(ClusterOf[Cl] == Cl && "merge of an inactive cluster id");
    for (unsigned T : Succ[Cl])
      if (!C.count(T))
        NewSucc.push_back(T);
    for (unsigned S : Pred[Cl])
      if (!C.count(S))
        NewPred.push_back(S);
    if (Cl == Target)
      continue;
    for (unsigned StmtId : Members[Cl])
      ClusterOf[StmtId] = Target;
    Merged.insert(Merged.end(), Members[Cl].begin(), Members[Cl].end());
    Members[Cl].clear();
    Succ[Cl].clear();
    Pred[Cl].clear();
  }
  std::sort(Merged.begin(), Merged.end());
  sortUnique(NewSucc);
  sortUnique(NewPred);

  // The neighbours' lists name absorbed clusters; point them at Target.
  auto Relabel = [&C, Target](std::vector<unsigned> &Adj) {
    for (unsigned &Cl : Adj)
      if (C.count(Cl))
        Cl = Target;
    sortUnique(Adj);
  };
  for (unsigned T : NewSucc)
    Relabel(Pred[T]);
  for (unsigned S : NewPred)
    Relabel(Succ[S]);
  Succ[Target] = std::move(NewSucc);
  Pred[Target] = std::move(NewPred);

  Active.erase(std::remove_if(Active.begin(), Active.end(),
                              [&C, Target](unsigned Cl) {
                                return Cl != Target && C.count(Cl);
                              }),
               Active.end());
  if (!WasAcyclic)
    Acyclic = !hasCycleCollapsing({Target});
  return Target;
}

std::set<unsigned>
FusionPartition::clustersReferencing(const ir::Symbol *Var) const {
  std::set<unsigned> Result;
  for (unsigned StmtId : G->statementsReferencing(Var))
    Result.insert(ClusterOf[StmtId]);
  return Result;
}

std::set<unsigned>
FusionPartition::fusionCandidates(const ir::Symbol *Var) const {
  std::set<unsigned> C = clustersReferencing(Var);
  if (C.empty())
    return C;
  for (unsigned Cl : growList(C))
    C.insert(Cl);
  if (C.size() < 2)
    C.clear();
  return C;
}

std::vector<std::pair<unsigned, unsigned>>
FusionPartition::clusterEdges() const {
  std::vector<std::pair<unsigned, unsigned>> Edges;
  for (unsigned S : Active)
    for (unsigned T : Succ[S])
      Edges.push_back({S, T});
  return Edges;
}

std::vector<unsigned>
FusionPartition::reach(const std::set<unsigned> &C,
                       const std::vector<std::vector<unsigned>> &Adj,
                       std::vector<char> &Seen, bool &BackIntoC) const {
  std::vector<unsigned> Work(C.begin(), C.end()), Reached;
  for (unsigned Cl : C)
    Seen[Cl] = 1;
  BackIntoC = false;
  while (!Work.empty()) {
    unsigned Cl = Work.back();
    Work.pop_back();
    for (unsigned Next : Adj[Cl]) {
      if (Seen[Next]) {
        BackIntoC |= Seen[Next] == 1 && Seen[Cl] == 2;
        continue;
      }
      Seen[Next] = 2;
      Work.push_back(Next);
      Reached.push_back(Next);
    }
  }
  return Reached;
}

std::vector<unsigned>
FusionPartition::growList(const std::set<unsigned> &C) const {
  // Forward-reachable from C and backward-reachable to C on the quotient
  // graph; the intersection (minus C) is GROW. One application is closed:
  // any cluster reachable from C + GROW and reaching C + GROW is already
  // forward- and backward-reachable from/to C itself.
  std::vector<char> Fwd(numStmts(), 0), Bwd(numStmts(), 0);
  bool BackIntoC = false;
  reach(C, Succ, Fwd, BackIntoC);
  if (!BackIntoC)
    return {};
  std::vector<unsigned> Result;
  for (unsigned Cl : reach(C, Pred, Bwd, BackIntoC))
    if (Fwd[Cl])
      Result.push_back(Cl);
  return Result;
}

std::set<unsigned> FusionPartition::grow(const std::set<unsigned> &C) const {
  std::vector<unsigned> Grown = growList(C);
  return std::set<unsigned>(Grown.begin(), Grown.end());
}

bool FusionPartition::hasCycleCollapsing(const std::set<unsigned> &C) const {
  unsigned Rep = *C.begin();
  auto Node = [&C, Rep](unsigned Cl) { return C.count(Cl) ? Rep : Cl; };
  std::vector<unsigned> RepSucc;
  for (unsigned Cl : C)
    for (unsigned T : Succ[Cl])
      if (!C.count(T))
        RepSucc.push_back(T);

  // Iterative three-colour DFS (0 white, 1 on the stack, 2 done).
  std::vector<char> Color(numStmts(), 0);
  std::vector<std::pair<unsigned, size_t>> Stack;
  for (unsigned Start : Active) {
    if (Node(Start) != Start || Color[Start])
      continue;
    Color[Start] = 1;
    Stack.push_back({Start, 0});
    while (!Stack.empty()) {
      auto [Cl, Idx] = Stack.back();
      const std::vector<unsigned> &Next = Cl == Rep ? RepSucc : Succ[Cl];
      if (Idx == Next.size()) {
        Color[Cl] = 2;
        Stack.pop_back();
        continue;
      }
      ++Stack.back().second;
      unsigned T = Node(Next[Idx]);
      if (Color[T] == 1)
        return true; // back edge
      if (Color[T] == 0) {
        Color[T] = 1;
        Stack.push_back({T, 0});
      }
    }
  }
  return false;
}

bool FusionPartition::mergeCreatesCycle(const std::set<unsigned> &C) const {
  // On an acyclic quotient, a cycle through the fused node passes through
  // a cluster outside C that C reaches and that reaches C: a GROW member.
  // A partition built by fromAssignment may already be cyclic; then fall
  // back to one DFS with C collapsed.
  if (Acyclic)
    return !growList(C).empty();
  return hasCycleCollapsing(C);
}

std::vector<unsigned>
FusionPartition::internalEdges(const std::set<unsigned> &C) const {
  std::vector<unsigned> Ids;
  for (unsigned Cl : C)
    for (unsigned StmtId : Members[Cl])
      for (unsigned EdgeId : G->outEdges(StmtId))
        if (C.count(ClusterOf[G->getEdge(EdgeId).Tgt]))
          Ids.push_back(EdgeId);
  std::sort(Ids.begin(), Ids.end());
  return Ids;
}

std::optional<std::vector<Offset>>
FusionPartition::internalUDVs(const std::set<unsigned> &C) const {
  std::vector<Offset> UDVs;
  for (unsigned EdgeId : internalEdges(C))
    for (const DepLabel &L : G->getEdge(EdgeId).Labels) {
      if (!L.UDV)
        return std::nullopt; // unrepresentable internal dependence
      UDVs.push_back(*L.UDV);
    }
  return UDVs;
}

void FusionPartition::print(std::ostream &OS) const {
  OS << "fusion partition: " << numClusters() << " clusters\n";
  for (unsigned Cl : clusters()) {
    OS << "  P" << Cl << " = {";
    bool First = true;
    for (unsigned StmtId : members(Cl)) {
      if (!First)
        OS << ", ";
      OS << "S" << StmtId;
      First = false;
    }
    OS << "}\n";
  }
}

//===----------------------------------------------------------------------===//
// Legality predicates
//===----------------------------------------------------------------------===//

/// The region a statement iterates over if it may join a multi-statement
/// fusible cluster (normalized statements and reductions), else null.
static const Region *fusableRegion(const Stmt *S) {
  if (const auto *NS = dyn_cast<NormalizedStmt>(S))
    return NS->getRegion();
  if (const auto *RS = dyn_cast<ReduceStmt>(S))
    return RS->getRegion();
  return nullptr;
}

bool xform::isLegalFusion(const FusionPartition &P, const std::set<unsigned> &C,
                          LoopStructureVector *OutLSV) {
  return isLegalFusionWithFlowRule(
      P, C, [](const Offset &U) { return U.isZero(); }, OutLSV);
}

bool xform::isLegalFusionWithFlowRule(
    const FusionPartition &P, const std::set<unsigned> &C,
    const std::function<bool(const Offset &)> &FlowOk,
    LoopStructureVector *OutLSV) {
  assert(!C.empty() && "legality query over an empty cluster set");
  const ASDG &G = P.graph();
  const Program &Prog = G.getProgram();

  // Gather the statements of the hypothetical merged cluster.
  std::vector<unsigned> Stmts;
  for (unsigned Cl : C)
    for (unsigned StmtId : P.members(Cl))
      Stmts.push_back(StmtId);

  // Condition (i): all statements operate under the same region. Clusters
  // of more than one statement must consist of normalized statements and
  // reductions only (communication primitives and opaque statements never
  // fuse).
  if (Stmts.size() > 1) {
    const Region *CommonRegion = nullptr;
    for (unsigned StmtId : Stmts) {
      const Region *R = fusableRegion(Prog.getStmt(StmtId));
      if (!R)
        return false;
      if (!CommonRegion)
        CommonRegion = R;
      else if (*CommonRegion != *R)
        return false;
    }
  }

  // Communication placement: a fusible cluster may not span a
  // communication statement in program order. Scalarization preserves the
  // placement of exchanges (their pipelining overlap windows were chosen
  // by the communication optimizer), so fusing statements from opposite
  // sides of an exchange would move computation out of its overlap
  // window — the interaction the paper's section 5.5 policy forbids.
  // Programs without communication statements are unaffected.
  if (Stmts.size() > 1) {
    unsigned Min = Stmts.front(), Max = Stmts.front();
    for (unsigned StmtId : Stmts) {
      Min = std::min(Min, StmtId);
      Max = std::max(Max, StmtId);
    }
    for (unsigned Pos = Min + 1; Pos < Max; ++Pos)
      if (isa<CommStmt>(Prog.getStmt(Pos)))
        return false;
  }

  // Condition (ii): intra-cluster flow dependences must satisfy the flow
  // rule (null UDVs in the standard Definition 5). Condition (iv) needs
  // the distinct intra-cluster UDVs, and none may be unrepresentable.
  // Both read only the edges leaving the merged statements.
  std::vector<bool> InC(P.numStmts(), false);
  for (unsigned Cl : C)
    InC[Cl] = true;
  std::vector<Offset> UDVs;
  for (unsigned StmtId : Stmts)
    for (unsigned EdgeId : G.outEdges(StmtId)) {
      const DepEdge &E = G.getEdge(EdgeId);
      if (!InC[P.clusterOf(E.Tgt)])
        continue;
      for (const DepLabel &L : E.Labels) {
        if (!L.UDV)
          return false;
        if (L.Type == DepType::Flow && !FlowOk(*L.UDV))
          return false;
        if (std::find(UDVs.begin(), UDVs.end(), *L.UDV) == UDVs.end())
          UDVs.push_back(*L.UDV);
      }
    }

  // Condition (iv): a loop structure vector exists that preserves all
  // intra-cluster dependences. A single non-normalized statement has no
  // loop nest and holds vacuously.
  LoopStructureVector LSV;
  unsigned Rank = 0;
  for (unsigned StmtId : Stmts)
    if (const Region *R = fusableRegion(Prog.getStmt(StmtId))) {
      Rank = R->rank();
      break;
    }
  if (Rank != 0) {
    auto Found = findLoopStructure(UDVs, Rank);
    if (!Found)
      return false;
    LSV = std::move(*Found);
  }

  // Condition (iii): no inter-cluster cycles after the merge. Checked
  // last: callers mostly pass sets already closed under GROW, for which
  // it holds on an acyclic partition.
  if (P.mergeCreatesCycle(C))
    return false;
  if (OutLSV)
    *OutLSV = std::move(LSV);
  return true;
}

bool xform::isContractible(const FusionPartition &P,
                           const std::set<unsigned> &C,
                           const ir::ArraySymbol *Var) {
  return isContractibleWithRule(P, C, Var,
                                [](const Offset &U) { return U.isZero(); });
}

bool xform::isContractibleWithRule(
    const FusionPartition &P, const std::set<unsigned> &C,
    const ir::ArraySymbol *Var,
    const std::function<bool(const Offset &)> &DistOk) {
  const ASDG &G = P.graph();
  const Program &Prog = G.getProgram();

  // Side conditions: never contract arrays whose value escapes the
  // fragment or flows in from outside.
  if (Var->isLiveOut())
    return false;

  const std::vector<unsigned> &Referencing = G.statementsReferencing(Var);
  if (Referencing.empty())
    return false;

  bool SeenWrite = false;
  for (unsigned StmtId : Referencing) {
    const Stmt *S = Prog.getStmt(StmtId);
    if (const auto *NS = dyn_cast<NormalizedStmt>(S)) {
      if (!SeenWrite && NS->readsArray(Var))
        return false; // upward-exposed read: the live-in value is needed
      if (NS->getLHS() == Var)
        SeenWrite = true;
      continue;
    }
    if (isa<ReduceStmt>(S)) {
      // Reductions only read arrays, at constant offsets.
      if (!SeenWrite)
        return false; // upward-exposed read
      continue;
    }
    // Arrays touched by communication or opaque statements are not
    // contraction candidates: their accesses have no constant offsets.
    return false;
  }
  if (!SeenWrite)
    return false; // read-only array; nothing to contract

  // Definition 6 (i): the endpoints of every dependence due to Var lie in
  // one fusible cluster (the merged one), and (ii) every such UDV is null.
  for (unsigned EdgeId : G.edgesOf(Var)) {
    const DepEdge &E = G.getEdge(EdgeId);
    unsigned SC = P.clusterOf(E.Src), TC = P.clusterOf(E.Tgt);
    bool SameCluster = (SC == TC) || (C.count(SC) && C.count(TC));
    if (!SameCluster)
      return false;
    for (const DepLabel &L : E.Labels)
      if (L.Var == Var && (!L.UDV || !DistOk(*L.UDV)))
        return false;
  }
  return true;
}

bool xform::isContractible(const FusionPartition &P,
                           const ir::ArraySymbol *Var) {
  // No hypothetical merge: every cluster stands alone. Passing a set that
  // cannot match two distinct clusters reduces to the same-cluster test.
  return isContractible(P, std::set<unsigned>{}, Var);
}

bool xform::isValidPartition(const FusionPartition &P) {
  for (unsigned Cl : P.clusters())
    if (!isLegalFusion(P, std::set<unsigned>{Cl}))
      return false;
  return P.isAcyclic();
}

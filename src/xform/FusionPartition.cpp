//===- xform/FusionPartition.cpp - Fusion partitions ------------------------===//

#include "xform/FusionPartition.h"

#include "obs/Obs.h"
#include "support/StringUtil.h"

#include <algorithm>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

ALF_COUNTER(NumAdjVisited, "xform.grow.adj_visited",
            "Quotient adjacency entries read by GROW searches");

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
  computeOrder();
}

/// Marks a position of the kept order that no cluster occupies.
static constexpr unsigned NoCluster = ~0u;

bool FusionPartition::orderCollapsing(const std::set<unsigned> &C,
                                      std::vector<unsigned> &Out) const {
  // Kahn's algorithm, with Out as its queue. Edges are counted with
  // multiplicity, so the collapsed node needs no adjacency of its own.
  unsigned Rep = C.empty() ? NoCluster : *C.begin();
  auto Node = [&C, Rep](unsigned Cl) { return C.count(Cl) ? Rep : Cl; };
  std::vector<unsigned> InDegree(numStmts(), 0);
  for (unsigned Cl : Active)
    for (unsigned T : Succ[Cl])
      if (Node(Cl) != Node(T))
        ++InDegree[Node(T)];
  Out.clear();
  size_t Nodes = 0;
  for (unsigned Cl : Active) {
    if (Node(Cl) != Cl)
      continue;
    ++Nodes;
    if (InDegree[Cl] == 0)
      Out.push_back(Cl);
  }
  auto Release = [&](unsigned From, unsigned Cl) {
    for (unsigned T : Succ[Cl])
      if (Node(T) != From && --InDegree[Node(T)] == 0)
        Out.push_back(Node(T));
  };
  for (size_t Head = 0; Head < Out.size(); ++Head) {
    unsigned N = Out[Head];
    if (N != Rep)
      Release(N, N);
    else
      for (unsigned Cl : C)
        Release(N, Cl);
  }
  return Out.size() == Nodes;
}

void FusionPartition::computeOrder() {
  Acyclic = orderCollapsing({}, Order);
  Pos.assign(numStmts(), 0);
  if (!Acyclic) {
    Order.clear();
    return;
  }
  for (unsigned P = 0; P < Order.size(); ++P)
    Pos[Order[P]] = P;
}

unsigned FusionPartition::merge(const std::set<unsigned> &C) {
  assert(!C.empty() && "cannot merge an empty cluster set");
  unsigned Target = *C.begin(); // smallest id (set is ordered)

  // Mark is 1 on C. On an acyclic quotient one forward search marks 2 on
  // what C reaches inside its window: merging a GROW-closed set (no path
  // back into C) keeps the quotient acyclic, and any other set makes it
  // cyclic. A quotient that was already cyclic is ordered again after
  // the merge, which also tells whether it still has a cycle.
  std::vector<char> Mark(numStmts(), 0);
  for (unsigned Cl : C)
    Mark[Cl] = 1;
  bool WasAcyclic = Acyclic;
  if (WasAcyclic) {
    Acyclic = !searchForward(C, Mark);
    if (Acyclic) {
      auto [Lo, Hi] = window(C);
      // Reorder the window: the clusters the merged one reaches go after
      // it and the rest before it, each group in its old order. No edge
      // leaves the reached group backwards: one into C would put its
      // source in GROW(C), and one to an unreached cluster would make
      // that cluster reached.
      std::vector<unsigned> Reached;
      unsigned Next = Lo;
      for (unsigned P = Lo; P <= Hi; ++P) {
        unsigned Cl = Order[P];
        if (Cl == NoCluster || Mark[Cl] == 1)
          continue;
        if (Mark[Cl] == 2) {
          Reached.push_back(Cl);
          continue;
        }
        Order[Next] = Cl;
        Pos[Cl] = Next++;
      }
      Order[Next] = Target;
      Pos[Target] = Next++;
      for (unsigned Cl : Reached) {
        Order[Next] = Cl;
        Pos[Cl] = Next++;
      }
      std::fill(Order.begin() + Next, Order.begin() + Hi + 1, NoCluster);
    } else {
      Order.clear();
    }
  }

  std::vector<unsigned> &Merged = Members[Target];
  std::vector<unsigned> NewSucc, NewPred;
  for (unsigned Cl : C) {
    assert(ClusterOf[Cl] == Cl && "merge of an inactive cluster id");
    for (unsigned T : Succ[Cl])
      if (Mark[T] != 1)
        NewSucc.push_back(T);
    for (unsigned S : Pred[Cl])
      if (Mark[S] != 1)
        NewPred.push_back(S);
    if (Cl == Target)
      continue;
    for (unsigned StmtId : Members[Cl])
      ClusterOf[StmtId] = Target;
    size_t Mid = Merged.size();
    Merged.insert(Merged.end(), Members[Cl].begin(), Members[Cl].end());
    std::inplace_merge(Merged.begin(), Merged.begin() + Mid, Merged.end());
    Members[Cl].clear();
    Succ[Cl].clear();
    Pred[Cl].clear();
  }
  sortUnique(NewSucc);
  sortUnique(NewPred);

  // The neighbours' sorted lists name clusters of C; replace those by
  // Target, which none of them holds yet.
  auto Relabel = [&Mark, Target](std::vector<unsigned> &Adj) {
    Adj.erase(std::remove_if(Adj.begin(), Adj.end(),
                             [&Mark](unsigned Cl) { return Mark[Cl] == 1; }),
              Adj.end());
    Adj.insert(std::lower_bound(Adj.begin(), Adj.end(), Target), Target);
  };
  for (unsigned T : NewSucc)
    Relabel(Pred[T]);
  for (unsigned S : NewPred)
    Relabel(Succ[S]);
  Succ[Target] = std::move(NewSucc);
  Pred[Target] = std::move(NewPred);

  Active.erase(std::remove_if(Active.begin(), Active.end(),
                              [&Mark, Target](unsigned Cl) {
                                return Cl != Target && Mark[Cl] == 1;
                              }),
               Active.end());
  if (!WasAcyclic)
    computeOrder();
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

std::pair<unsigned, unsigned>
FusionPartition::window(const std::set<unsigned> &C) const {
  if (!Acyclic)
    return {0, NoCluster};
  unsigned Lo = NoCluster, Hi = 0;
  for (unsigned Cl : C) {
    Lo = std::min(Lo, Pos[Cl]);
    Hi = std::max(Hi, Pos[Cl]);
  }
  return {Lo, Hi};
}

template <typename EnterFn>
std::vector<unsigned>
FusionPartition::reach(const std::set<unsigned> &C,
                       const std::vector<std::vector<unsigned>> &Adj,
                       std::vector<char> &Seen, bool &BackIntoC,
                       EnterFn Enter) const {
  std::vector<unsigned> Work(C.begin(), C.end()), Reached;
  for (unsigned Cl : C)
    Seen[Cl] = 1;
  BackIntoC = false;
  uint64_t Visited = 0;
  while (!Work.empty()) {
    unsigned Cl = Work.back();
    Work.pop_back();
    Visited += Adj[Cl].size();
    for (unsigned Next : Adj[Cl]) {
      if (Seen[Next]) {
        BackIntoC |= Seen[Next] == 1 && Seen[Cl] == 2;
        continue;
      }
      if (!Enter(Next))
        continue;
      Seen[Next] = 2;
      Work.push_back(Next);
      Reached.push_back(Next);
    }
  }
  NumAdjVisited += Visited;
  return Reached;
}

bool FusionPartition::searchForward(const std::set<unsigned> &C,
                                    std::vector<char> &Seen) const {
  // No cluster after C's last position leads back into C.
  unsigned Hi = window(C).second;
  bool BackIntoC = false;
  reach(C, Succ, Seen, BackIntoC,
        [this, Hi](unsigned Cl) { return Pos[Cl] <= Hi; });
  return BackIntoC;
}

std::vector<unsigned>
FusionPartition::growList(const std::set<unsigned> &C) const {
  // GROW is what C reaches and what reaches C, minus C. One application
  // is closed: any cluster reachable from C + GROW and reaching C + GROW
  // is already forward- and backward-reachable from/to C itself. A path
  // from C back into C never leaves C's window of the order, and every
  // cluster on it is forward-reached, so the backward search enters only
  // those and returns GROW itself.
  std::vector<char> Fwd(numStmts(), 0);
  if (!searchForward(C, Fwd))
    return {};
  std::vector<char> Bwd(numStmts(), 0);
  bool BackIntoC = false;
  return reach(C, Pred, Bwd, BackIntoC,
               [&Fwd](unsigned Cl) { return Fwd[Cl] != 0; });
}

std::set<unsigned> FusionPartition::grow(const std::set<unsigned> &C) const {
  std::vector<unsigned> Grown = growList(C);
  return std::set<unsigned>(Grown.begin(), Grown.end());
}

bool FusionPartition::mergeCreatesCycle(const std::set<unsigned> &C) const {
  // On an acyclic quotient, a cycle through the fused node passes through
  // a cluster outside C that C reaches and that reaches C: a GROW member.
  // A partition built by fromAssignment may already be cyclic; then fall
  // back to ordering the whole quotient with C collapsed.
  if (Acyclic) {
    std::vector<char> Seen(numStmts(), 0);
    return searchForward(C, Seen);
  }
  std::vector<unsigned> Scratch;
  return !orderCollapsing(C, Scratch);
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

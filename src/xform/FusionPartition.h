//===- xform/FusionPartition.h - Fusion partitions -------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A *fusion partition* (paper Definition 5) partitions the nodes of an
/// ASDG into *fusible clusters*; upon scalarization every cluster becomes
/// one loop nest. This file provides the partition representation, the
/// cluster-quotient graph, the GROW closure (Figure 3's cycle-prevention
/// step) and the two legality predicates FUSION-PARTITION? (Definition 5)
/// and CONTRACTIBLE? (Definition 6).
///
//===----------------------------------------------------------------------===//

#ifndef ALF_XFORM_FUSIONPARTITION_H
#define ALF_XFORM_FUSIONPARTITION_H

#include "analysis/ASDG.h"
#include "xform/LoopStructure.h"

#include <cassert>
#include <functional>
#include <optional>
#include <ostream>
#include <set>
#include <vector>

namespace alf {
namespace xform {

/// A partition of the statements of an ASDG into fusible clusters.
/// Cluster ids are statement ids of representative members; after merges,
/// a cluster's id is the smallest statement id it contains (Figure 3 line
/// 8 assigns the union into the Pk with the smallest k).
///
/// The cluster quotient graph is kept up to date across merge() rather
/// than rebuilt per query: each cluster holds its members in program
/// order and its sorted distinct quotient successors and predecessors.
/// While the quotient graph is acyclic the partition also keeps a
/// topological order of it. A cluster on a path between two clusters of
/// a set C sits strictly between C's first and last positions, so GROW
/// and condition (iii) search only that window, and merge() reorders
/// only that window. The other queries touch only the dependences of the
/// statements or array they are about (conditions (ii) and (iv),
/// CONTRACTIBLE?).
class FusionPartition {
  const analysis::ASDG *G = nullptr;
  std::vector<unsigned> ClusterOf; // statement id -> cluster id
  // Indexed by cluster id; empty for ids that are not active clusters.
  std::vector<std::vector<unsigned>> Members, Succ, Pred;
  std::vector<unsigned> Active; // active cluster ids, ascending
  bool Acyclic = true;          // the quotient graph has no cycle
  // While Acyclic, a topological order of the quotient graph: Order maps
  // a position to the cluster there (NoCluster for a slot a merge freed)
  // and Pos an active cluster id to its position. Every quotient edge
  // goes from a lower position to a higher one. Empty while cyclic.
  std::vector<unsigned> Order, Pos;

  /// Members, adjacency, Active, Acyclic and the order from ClusterOf.
  void buildQuotient();

  /// Acyclic, Order and Pos from the adjacency.
  void computeOrder();

  /// The positions a search from \p C may enter: C's first to last
  /// position while acyclic, every position while cyclic.
  std::pair<unsigned, unsigned> window(const std::set<unsigned> &C) const;

  /// Searches from \p C along \p Adj (Succ or Pred), entering only the
  /// clusters \p Enter accepts, and returns the clusters reached outside
  /// C. \p Seen (indexed by cluster id) ends up 1 on C and 2 on the
  /// clusters returned. Sets \p BackIntoC when one of them has an edge
  /// into C.
  template <typename EnterFn>
  std::vector<unsigned> reach(const std::set<unsigned> &C,
                              const std::vector<std::vector<unsigned>> &Adj,
                              std::vector<char> &Seen, bool &BackIntoC,
                              EnterFn Enter) const;

  /// The forward search of GROW(C), inside C's window: marks \p Seen as
  /// reach() does and returns whether a path leads back into C, which is
  /// exactly when GROW(C) is non-empty.
  bool searchForward(const std::set<unsigned> &C,
                     std::vector<char> &Seen) const;

  /// GROW(C), unordered: the forward search, and one backward search
  /// over what it reached when it finds a path back into C.
  std::vector<unsigned> growList(const std::set<unsigned> &C) const;

  /// Orders the quotient graph with the clusters of \p C regarded as one
  /// node (none when C is empty) topologically into \p Out. Returns
  /// whether every node got a place, i.e. whether that graph is acyclic.
  bool orderCollapsing(const std::set<unsigned> &C,
                       std::vector<unsigned> &Out) const;

public:
  /// The trivial partition: one statement per cluster (Figure 3 line 1).
  static FusionPartition trivial(const analysis::ASDG &Graph);

  /// A partition from an explicit statement-to-cluster assignment. Each
  /// entry must already satisfy the representation invariant merge()
  /// maintains: a cluster's id is its smallest member's statement id.
  /// The branch-and-bound partitioner (IlpStrategy) materializes its
  /// search states through this. The assignment may make the quotient
  /// graph cyclic; isAcyclic() records whether it does.
  static FusionPartition fromAssignment(const analysis::ASDG &Graph,
                                        std::vector<unsigned> Assignment);

  const analysis::ASDG &graph() const { return *G; }

  unsigned numStmts() const { return static_cast<unsigned>(ClusterOf.size()); }

  /// Cluster containing statement \p StmtId.
  unsigned clusterOf(unsigned StmtId) const { return ClusterOf[StmtId]; }

  /// Active cluster ids, ascending.
  const std::vector<unsigned> &clusters() const { return Active; }

  /// Number of clusters (the paper's l).
  unsigned numClusters() const { return static_cast<unsigned>(Active.size()); }

  /// Statement ids in cluster \p Cluster, ascending (program order).
  const std::vector<unsigned> &members(unsigned Cluster) const {
    return Members[Cluster];
  }

  /// Whether the quotient graph is acyclic (always, for partitions built
  /// by trivial() and refined only through legal merges).
  bool isAcyclic() const { return Acyclic; }

  /// Position of active cluster \p Cluster in the kept topological order:
  /// every edge of clusterEdges() goes from a lower position to a higher
  /// one. Only meaningful while isAcyclic().
  unsigned position(unsigned Cluster) const {
    assert(Acyclic && "a cyclic quotient graph has no topological order");
    return Pos[Cluster];
  }

  /// Merges all clusters in \p C into the one with the smallest id.
  /// Returns the surviving cluster id.
  unsigned merge(const std::set<unsigned> &C);

  /// Clusters that currently contain a reference to \p Var (Figure 3
  /// line 5).
  std::set<unsigned> clustersReferencing(const ir::Symbol *Var) const;

  /// Figure 3 lines 5-6: the clusters referencing \p Var, closed under
  /// GROW so fusing them cannot create a cycle. Empty when that leaves
  /// fewer than two clusters (nothing to fuse).
  std::set<unsigned> fusionCandidates(const ir::Symbol *Var) const;

  /// Distinct inter-cluster dependence edges (SrcCluster, TgtCluster),
  /// SrcCluster != TgtCluster, sorted.
  std::vector<std::pair<unsigned, unsigned>> clusterEdges() const;

  /// GROW (Figure 3): clusters not in \p C that are reachable from a
  /// cluster in C *and* reach a cluster in C — i.e. the clusters that
  /// would sit on an inter-cluster cycle if C were fused. One application
  /// is a closure (see implementation comment).
  std::set<unsigned> grow(const std::set<unsigned> &C) const;

  /// Definition 5 (iii) violated by the merge: the quotient graph with
  /// the clusters of \p C fused has a cycle. On an acyclic partition this
  /// is exactly "GROW(C) is non-empty".
  bool mergeCreatesCycle(const std::set<unsigned> &C) const;

  /// Indices into graph().edges() of the dependences with both endpoints
  /// in the clusters of \p C, ascending.
  std::vector<unsigned> internalEdges(const std::set<unsigned> &C) const;

  /// All unconstrained distance vectors on dependences internal to the
  /// hypothetical cluster formed by fusing the clusters of \p C. Returns
  /// std::nullopt when any internal dependence is unrepresentable.
  std::optional<std::vector<ir::Offset>>
  internalUDVs(const std::set<unsigned> &C) const;

  void print(std::ostream &OS) const;
};

/// FUSION-PARTITION? (Definition 5): would merging the clusters of \p C in
/// \p P produce a legal fusion partition? Checks (i) a common region of
/// normalized statements, (ii) null intra-cluster flow dependences, (iii)
/// acyclicity of the quotient graph after the merge, and (iv) existence of
/// a loop structure vector. When \p OutLSV is non-null and the merge is
/// legal, stores the loop structure vector found for the merged cluster.
bool isLegalFusion(const FusionPartition &P, const std::set<unsigned> &C,
                   LoopStructureVector *OutLSV = nullptr);

/// Definition 5 with condition (ii) generalized: an intra-cluster flow
/// dependence is acceptable when \p FlowOk accepts its unconstrained
/// distance vector. `isLegalFusion` uses `u.isZero()`; the partial
/// contraction extension relaxes the rule along sequential dimensions.
bool isLegalFusionWithFlowRule(
    const FusionPartition &P, const std::set<unsigned> &C,
    const std::function<bool(const ir::Offset &)> &FlowOk,
    LoopStructureVector *OutLSV = nullptr);

/// Definition 6 with the distance condition generalized: \p Var is
/// contractible (to a scalar or buffer) when every dependence due to it
/// has endpoints in the merged cluster and a distance accepted by
/// \p DistOk, plus the liveness side conditions.
bool isContractibleWithRule(
    const FusionPartition &P, const std::set<unsigned> &C,
    const ir::ArraySymbol *Var,
    const std::function<bool(const ir::Offset &)> &DistOk);

/// CONTRACTIBLE? (Definition 6) plus the liveness side conditions: \p Var
/// is contractible under partition \p P with the clusters of \p C merged
/// iff (a) it is an array that is written, not live-out, has no
/// upward-exposed read, and is referenced only by normalized statements,
/// (b) the source and target of every dependence due to Var fall in the
/// merged cluster, and (c) every such dependence's UDV is the null vector.
bool isContractible(const FusionPartition &P, const std::set<unsigned> &C,
                    const ir::ArraySymbol *Var);

/// Convenience: contractibility in the partition as-is (each cluster by
/// itself, no hypothetical merge).
bool isContractible(const FusionPartition &P, const ir::ArraySymbol *Var);

/// Structural sanity check used by tests: every cluster of \p P satisfies
/// Definition 5 on its own and the quotient graph is acyclic.
bool isValidPartition(const FusionPartition &P);

} // namespace xform
} // namespace alf

#endif // ALF_XFORM_FUSIONPARTITION_H

//===- xform/IlpStrategy.cpp - Optimal fusion partitioning ------------------===//
//
// Branch-and-bound search for the contraction-optimal legal fusion
// partition. The encoding and the exactness argument are documented in
// DESIGN.md section 13; in short:
//
//  * Partitions are enumerated as restricted-growth assignments in
//    program order: statement i either joins one of the clusters already
//    holding a statement j < i, or opens a new cluster. Every partition
//    is generated exactly once.
//  * Each join is checked with the same Definition 5 predicate the
//    greedy algorithm uses (isLegalFusion). The check prunes exactly:
//    conditions (i), (ii), (iv) and the communication-span rule are
//    monotone in the statement set, and a quotient cycle created by a
//    prefix assignment cannot disappear in any completion, because ASDG
//    edges respect program order and decided clusters never re-merge
//    later in this enumeration.
//  * The incumbent is seeded with FUSION-FOR-CONTRACTION's result, so
//    the solver's objective is >= greedy's by construction, and node-
//    budget exhaustion degrades to greedy rather than to garbage.
//  * The bound at a prefix is the summed weight-bytes of every
//    contraction candidate whose referencing statements are not yet
//    split across two decided clusters; it is admissible, so pruning on
//    it preserves objective optimality. Objective ties are broken by a
//    coarse cache-model cost from src/machine.
//
//===----------------------------------------------------------------------===//

#include "xform/IlpStrategy.h"

#include "obs/Obs.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <map>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::xform;

ALF_COUNTER(NumIlpSolves, "strategy.ilp.solves", "Branch-and-bound solves run");
ALF_COUNTER(NumIlpNodes, "strategy.ilp.nodes",
            "Branch-and-bound nodes explored");
ALF_COUNTER(NumIlpPruned, "strategy.ilp.pruned",
            "Subtrees pruned by the bound");
ALF_COUNTER(NumIlpLegalityRejects, "strategy.ilp.legality_rejects",
            "Joins rejected by Definition 5");
ALF_COUNTER(NumIlpBudgetExhausted, "strategy.ilp.budget_exhausted",
            "Solves that hit the node budget and fell back to greedy");
ALF_COUNTER(NumIlpImproved, "strategy.ilp.improved",
            "Solves that beat the greedy objective");

static std::atomic<bool> CorruptForTest{false};

void xform::setIlpCorruptionForTest(bool Enabled) {
  CorruptForTest.store(Enabled, std::memory_order_relaxed);
}

/// Bytes of one array element; the interpreter, the JIT and the emitted C
/// all compute in doubles.
static constexpr double ElemBytes = static_cast<double>(sizeof(double));

double xform::contractedBytes(const FusionPartition &P,
                              const std::vector<const ArraySymbol *> &Vars) {
  return contractionBenefit(P, Vars) * ElemBytes;
}

/// The region a statement iterates over, when it has one (normalized
/// statements and reductions; communication and opaque statements do
/// not).
static const Region *stmtRegion(const Stmt *S) {
  if (const auto *NS = dyn_cast<NormalizedStmt>(S))
    return NS->getRegion();
  if (const auto *RS = dyn_cast<ReduceStmt>(S))
    return RS->getRegion();
  return nullptr;
}

double xform::cacheModelCost(const FusionPartition &P, const StrategyResult &SR,
                             const machine::MachineDesc &M) {
  const ASDG &G = P.graph();
  const Program &Prog = G.getProgram();

  // Per cluster: the distinct non-contracted arrays its statements touch,
  // with the bytes each reference streams (the statement's region).
  struct ClusterLoad {
    double WorkingSetBytes = 0; ///< one pass over each distinct array
    double TrafficBytes = 0;    ///< every statement's pass, summed
  };
  std::map<unsigned, ClusterLoad> Loads;
  for (const ArraySymbol *A : G.arraysByDecreasingWeight()) {
    if (SR.isContracted(A))
      continue; // contracted arrays live in registers / a rolling buffer
    std::map<unsigned, double> MaxPerCluster;
    for (unsigned StmtId : G.statementsReferencing(A)) {
      const Region *R = stmtRegion(Prog.getStmt(StmtId));
      if (!R)
        continue;
      double Bytes = static_cast<double>(R->size()) * ElemBytes;
      unsigned Cl = P.clusterOf(StmtId);
      Loads[Cl].TrafficBytes += Bytes;
      MaxPerCluster[Cl] = std::max(MaxPerCluster[Cl], Bytes);
    }
    for (auto [Cl, Bytes] : MaxPerCluster)
      Loads[Cl].WorkingSetBytes += Bytes;
  }

  // Price each cluster's traffic by the slowest cache level its working
  // set still fits in. Coarse, but deterministic and monotone in the
  // quantities fusion actually changes (how many arrays share a nest).
  double Cost = 0;
  for (auto &[Cl, Load] : Loads) {
    (void)Cl;
    double PerLine;
    if (Load.WorkingSetBytes <= static_cast<double>(M.L1.SizeBytes))
      PerLine = M.L1HitCost;
    else if (M.L2 &&
             Load.WorkingSetBytes <= static_cast<double>(M.L2->SizeBytes))
      PerLine = M.L2HitCost;
    else
      PerLine = M.MemCost;
    Cost += Load.TrafficBytes / M.L1.LineBytes * PerLine;
  }
  return Cost;
}

namespace {

/// One contraction candidate the bound tracks: an array that passes every
/// partition-independent contractibility condition, with its weight in
/// bytes and the statements referencing it.
struct Candidate {
  const ArraySymbol *A = nullptr;
  double Bytes = 0;
  std::vector<unsigned> Referencing;
};

/// Can statements \p SA and \p SB ever share a fusible cluster, in any
/// partition? Checks only the monotone-permanent parts of Definition 5
/// between the pair: common region, the communication-span rule, null
/// flow UDVs and representable dependences with a loop structure over
/// the pair's own UDVs. Deliberately not the cycle check (a path around
/// a pair can be absorbed into a larger cluster).
bool pairCanEverCoCluster(const ASDG &G, unsigned SA, unsigned SB) {
  const Program &Prog = G.getProgram();
  const Region *RA = stmtRegion(Prog.getStmt(SA));
  const Region *RB = stmtRegion(Prog.getStmt(SB));
  if (!RA || !RB || *RA != *RB)
    return false;
  unsigned Lo = std::min(SA, SB), Hi = std::max(SA, SB);
  for (unsigned Pos = Lo + 1; Pos < Hi; ++Pos)
    if (isa<CommStmt>(Prog.getStmt(Pos)))
      return false;
  std::vector<Offset> UDVs;
  for (unsigned EdgeId : G.outEdges(Lo)) {
    const DepEdge &E = G.getEdge(EdgeId);
    if (E.Tgt != Hi)
      continue;
    for (const DepLabel &L : E.Labels) {
      if (!L.UDV)
        return false; // unrepresentable internal dependence
      if (L.Type == DepType::Flow && !L.UDV->isZero())
        return false; // condition (ii) is permanent
      UDVs.push_back(*L.UDV);
    }
  }
  return findLoopStructure(UDVs, RA->rank()).has_value();
}

/// The branch-and-bound search over restricted-growth assignments.
class Solver {
public:
  Solver(const ASDG &G, const IlpOptions &Opts, IlpStats &St)
      : G(G), Opts(Opts), St(St), N(G.numNodes()) {}

  StrategyResult run() {
    obs::Span SolveSpan("strategy.ilp.solve", G.getProgram().getName());

    collectCandidates();
    seedWithGreedy();

    Assign.resize(N);
    for (unsigned I = 0; I < N; ++I)
      Assign[I] = I;
    if (N > 0)
      search(0);

    if (St.BudgetExhausted)
      obs::instant(NumIlpBudgetExhausted);
    St.ImprovedOverGreedy = BestObj > St.GreedyObjectiveBytes;
    if (St.ImprovedOverGreedy)
      obs::instant(NumIlpImproved, formatString("greedy=%.0f ilp=%.0f",
                                                St.GreedyObjectiveBytes,
                                                BestObj));
    St.ObjectiveBytes = BestObj;
    St.CacheCost = BestCost;
    ++NumIlpSolves;
    NumIlpNodes += St.NodesExplored;
    NumIlpPruned += St.BranchesPruned;
    NumIlpLegalityRejects += St.LegalityRejects;

    StrategyResult Result;
    Result.Partition = FusionPartition::fromAssignment(G, BestAssign);
    Result.Contracted = contractibleArrays(Result.Partition, Contract);
    return Result;
  }

private:
  const ASDG &G;
  const IlpOptions &Opts;
  IlpStats &St;
  unsigned N;

  std::vector<Candidate> Candidates;
  std::vector<unsigned> Assign; ///< prefix decided, suffix identity
  std::vector<unsigned> Reps;   ///< active cluster representatives

  std::vector<unsigned> BestAssign;
  double BestObj = -1;
  double BestCost = 0;

  /// Every array is a contraction candidate.
  const ArrayFilter Contract = anyArray();

  /// The Cray T3E's cache parameters break objective ties.
  static const machine::MachineDesc &machineDesc() {
    static const machine::MachineDesc T3E = machine::crayT3E();
    return T3E;
  }

  /// Arrays the objective can ever count: passing every
  /// partition-independent side condition of Definition 6, and with
  /// referencing statements that can pairwise share a cluster at all.
  void collectCandidates() {
    FusionPartition Trivial = FusionPartition::trivial(G);
    for (const ArraySymbol *A : G.arraysByDecreasingWeight()) {
      const std::vector<unsigned> &Refs = G.statementsReferencing(A);
      std::set<unsigned> C(Refs.begin(), Refs.end());
      if (!isContractible(Trivial, C, A))
        continue;
      bool Feasible = true;
      for (unsigned I = 0; I < Refs.size() && Feasible; ++I)
        for (unsigned J = I + 1; J < Refs.size() && Feasible; ++J)
          Feasible = pairCanEverCoCluster(G, Refs[I], Refs[J]);
      if (!Feasible)
        continue;
      Candidates.push_back({A, G.referenceWeight(A) * ElemBytes, Refs});
    }
  }

  /// Evaluate a complete assignment; adopt it when it beats the
  /// incumbent's objective, or matches it at lower cache cost.
  void offer(const std::vector<unsigned> &Full) {
    StrategyResult SR;
    SR.Partition = FusionPartition::fromAssignment(G, Full);
    SR.Contracted = contractibleArrays(SR.Partition, Contract);
    double Obj = contractedBytes(SR.Partition, SR.Contracted);
    double Cost = cacheModelCost(SR.Partition, SR, machineDesc());
    if (Obj > BestObj || (Obj == BestObj && Cost < BestCost)) {
      BestObj = Obj;
      BestCost = Cost;
      BestAssign = Full;
    }
  }

  void seedWithGreedy() {
    obs::Span SeedSpan("strategy.ilp.seed");
    FusionPartition P = FusionPartition::trivial(G);
    fuseForContraction(P, Contract);
    std::vector<unsigned> Greedy(N);
    for (unsigned I = 0; I < N; ++I)
      Greedy[I] = P.clusterOf(I);
    offer(Greedy);
    St.GreedyObjectiveBytes = BestObj;
  }

  /// Admissible bound: candidates whose referencing statements are not
  /// yet split across two decided clusters may still be contracted;
  /// split ones never can be (decided clusters do not re-merge in this
  /// enumeration).
  double bound(unsigned Depth) const {
    double UB = 0;
    for (const Candidate &C : Candidates) {
      unsigned Cluster = ~0u;
      bool Split = false;
      for (unsigned StmtId : C.Referencing) {
        if (StmtId >= Depth)
          continue;
        if (Cluster == ~0u)
          Cluster = Assign[StmtId];
        else if (Assign[StmtId] != Cluster) {
          Split = true;
          break;
        }
      }
      if (!Split)
        UB += C.Bytes;
    }
    return UB;
  }

  void search(unsigned Depth) {
    if (St.BudgetExhausted)
      return;
    if (Depth == N) {
      offer(Assign);
      return;
    }
    if (++St.NodesExplored >= Opts.NodeBudget) {
      St.BudgetExhausted = true;
      return;
    }
    // Cannot beat the incumbent's objective from here: a completion can
    // at best tie, and the incumbent already carries an evaluated
    // tie-break cost.
    if (bound(Depth) <= BestObj) {
      ++St.BranchesPruned;
      return;
    }

    // Join an existing cluster (fusion-rich completions first: those are
    // where contractions live), then open a new one.
    // By index: the recursion pushes onto Reps (and pops again), which
    // may reallocate it under a range-for.
    FusionPartition Prefix = FusionPartition::fromAssignment(G, Assign);
    for (size_t K = 0; K < Reps.size(); ++K) {
      unsigned R = Reps[K];
      if (!isLegalFusion(Prefix, {R, Depth})) {
        ++St.LegalityRejects;
        continue;
      }
      Assign[Depth] = R;
      search(Depth + 1);
      Assign[Depth] = Depth;
      if (St.BudgetExhausted)
        return;
    }
    Reps.push_back(Depth);
    search(Depth + 1);
    Reps.pop_back();
  }
};

} // namespace

/// Deliberately break \p Result: force an illegal cluster merge when one
/// exists, else contract something Definition 6 forbids. Used only under
/// setIlpCorruptionForTest to prove the verifier distrusts the solver.
static void corruptResult(const ASDG &G, StrategyResult &Result) {
  const FusionPartition &P = Result.Partition;
  std::vector<unsigned> Clusters = P.clusters();
  for (unsigned I = 0; I < Clusters.size(); ++I)
    for (unsigned J = I + 1; J < Clusters.size(); ++J) {
      std::set<unsigned> C{Clusters[I], Clusters[J]};
      if (isLegalFusion(P, C))
        continue;
      std::vector<unsigned> Bad(P.numStmts());
      for (unsigned S = 0; S < P.numStmts(); ++S) {
        unsigned Cl = P.clusterOf(S);
        Bad[S] = C.count(Cl) ? *C.begin() : Cl;
      }
      Result.Partition = FusionPartition::fromAssignment(G, Bad);
      return;
    }
  // Everything fuses with everything: corrupt the contraction set with a
  // live-out array instead.
  for (const ArraySymbol *A : G.arraysByDecreasingWeight())
    if (A->isLiveOut() && !Result.isContracted(A)) {
      Result.Contracted.push_back(A);
      return;
    }
}

StrategyResult xform::solveOptimalPartition(const ASDG &G,
                                            const IlpOptions &Opts,
                                            IlpStats *OutStats) {
  IlpStats Local;
  IlpStats &St = OutStats ? *OutStats : Local;
  St = IlpStats();
  Solver S(G, Opts, St);
  StrategyResult Result = S.run();
  if (CorruptForTest.load(std::memory_order_relaxed))
    corruptResult(G, Result);
  return Result;
}

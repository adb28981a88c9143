//===- scalarize/Scalarize.cpp - Scalarization ------------------------------===//

#include "scalarize/Scalarize.h"

#include "support/ErrorHandling.h"
#include "obs/Obs.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::lir;
using namespace alf::scalarize;
using namespace alf::xform;

namespace {

/// Kahn's algorithm with a min-heap: deterministic topological order that
/// follows program order whenever dependences allow. Returns an order
/// shorter than \p Nodes when the edges form a cycle; callers decide
/// whether that is recoverable.
std::vector<unsigned>
topoSort(const std::vector<unsigned> &Nodes,
         const std::vector<std::pair<unsigned, unsigned>> &Edges) {
  std::map<unsigned, unsigned> InDegree;
  std::map<unsigned, std::vector<unsigned>> Succ;
  for (unsigned N : Nodes)
    InDegree[N] = 0;
  for (auto [S, T] : Edges) {
    Succ[S].push_back(T);
    ++InDegree[T];
  }
  std::priority_queue<unsigned, std::vector<unsigned>, std::greater<unsigned>>
      Ready;
  for (unsigned N : Nodes)
    if (InDegree[N] == 0)
      Ready.push(N);
  std::vector<unsigned> Order;
  Order.reserve(Nodes.size());
  while (!Ready.empty()) {
    unsigned N = Ready.top();
    Ready.pop();
    Order.push_back(N);
    for (unsigned T : Succ[N])
      if (--InDegree[T] == 0)
        Ready.push(T);
  }
  return Order;
}

ScalarizeCorruption TestCorruption = ScalarizeCorruption::None;
bool TestCorruptionApplied = false;

/// Replaces \p Nest's region with a copy whose dimension-0 upper bound is
/// shifted by \p Delta, parked in the LoopProgram's owned-region store.
void shiftNestBound(LoopProgram &LP, LoopNest &Nest, int64_t Delta) {
  std::vector<int64_t> Lo, Hi;
  for (unsigned D = 0; D < Nest.R->rank(); ++D) {
    Lo.push_back(Nest.R->lo(D));
    Hi.push_back(Nest.R->hi(D));
  }
  Hi[0] += Delta;
  Nest.R = LP.ownRegion(Region(std::move(Lo), std::move(Hi)));
  TestCorruptionApplied = true;
}

/// Applies the installed test corruption to \p LP. Each mode targets the
/// first site where the plant provably produces the bug it names, so the
/// injected-bug tests are deterministic rather than seed-dependent.
void applyCorruptionForTest(LoopProgram &LP) {
  TestCorruptionApplied = false;
  if (TestCorruption == ScalarizeCorruption::None)
    return;

  if (TestCorruption == ScalarizeCorruption::SkipAccumulatorInit) {
    for (auto &Node : LP.nodesMutable())
      if (auto *Nest = dyn_cast<LoopNest>(Node.get()))
        if (!Nest->ScalarInits.empty()) {
          Nest->ScalarInits.erase(Nest->ScalarInits.begin());
          TestCorruptionApplied = true;
          return;
        }
    return;
  }

  if (TestCorruption == ScalarizeCorruption::OffByOneBound) {
    // Target an access that already touches its array's allocation edge
    // along dimension 0, so the grown bound escapes the footprint rather
    // than landing inside another reference's halo.
    for (auto &Node : LP.nodesMutable()) {
      auto *Nest = dyn_cast<LoopNest>(Node.get());
      if (!Nest || !Nest->R)
        continue;
      auto Escapes = [&](const ArraySymbol *A, const Offset &Off) {
        if (LP.partialPlanFor(A) || Off.rank() != Nest->R->rank())
          return false;
        const Region *Alloc = LP.storageBounds(A);
        return Alloc && Alloc->rank() == Nest->R->rank() &&
               Nest->R->hi(0) + 1 + Off[0] > Alloc->hi(0);
      };
      for (const ScalarStmt &SS : Nest->Body) {
        if (!SS.LHS.isScalar() && Escapes(SS.LHS.Array, SS.LHS.Off)) {
          shiftNestBound(LP, *Nest, 1);
          return;
        }
        for (const ArrayRefExpr *Ref : collectArrayRefs(SS.RHS.get()))
          if (Escapes(Ref->getSymbol(), Ref->getOffset())) {
            shiftNestBound(LP, *Nest, 1);
            return;
          }
      }
    }
    return;
  }

  // ShrunkenCopyOut: shrink a nest writing a live-out array, picking a
  // write no other (unshrunken) store still covers, so the truncation is
  // observable in the copy-out coverage.
  for (auto &Node : LP.nodesMutable()) {
    auto *Nest = dyn_cast<LoopNest>(Node.get());
    if (!Nest || !Nest->R || Nest->R->extent(0) < 2)
      continue;
    for (const ScalarStmt &SS : Nest->Body) {
      if (SS.LHS.isScalar())
        continue;
      const ArraySymbol *A = SS.LHS.Array;
      if (!A->isLiveOut() || LP.partialPlanFor(A) ||
          SS.LHS.Off.rank() != Nest->R->rank())
        continue;
      // Mirror the checker's copy-out exclusion: an opaque writer
      // re-establishes whatever the source wrote, so shrinking this
      // nest would not actually truncate the array's copy-out.
      bool OpaqueWrite = false;
      for (const auto &Other : LP.nodes())
        if (const auto *Op = dyn_cast<OpaqueOp>(Other.get()))
          if (Op->Src && std::count(Op->Src->arrayWrites().begin(),
                                    Op->Src->arrayWrites().end(), A))
            OpaqueWrite = true;
      if (OpaqueWrite)
        continue;
      // The plane the shrink loses: dimension-0 index R.hi + Off[0].
      int64_t Lost = Nest->R->hi(0) + SS.LHS.Off[0];
      bool Recovered = false;
      for (const auto &Other : LP.nodes()) {
        const auto *ON = dyn_cast<LoopNest>(Other.get());
        if (!ON || !ON->R || ON->R->rank() != Nest->R->rank())
          continue;
        for (const ScalarStmt &OS : ON->Body) {
          if (OS.LHS.isScalar() || OS.LHS.Array != A)
            continue;
          if (&OS == &SS)
            continue;
          int64_t Hi0 = ON->R->hi(0) + OS.LHS.Off[0] -
                        (ON == Nest ? 1 : 0);
          if (Hi0 >= Lost)
            Recovered = true;
        }
      }
      if (!Recovered) {
        shiftNestBound(LP, *Nest, -1);
        return;
      }
    }
  }
}

} // namespace

void scalarize::setScalarizeCorruptionForTest(ScalarizeCorruption Mode) {
  TestCorruption = Mode;
}

bool scalarize::scalarizeCorruptionAppliedForTest() {
  return TestCorruptionApplied;
}

std::optional<lir::LoopProgram>
scalarize::scalarizeChecked(const ASDG &G, const StrategyResult &SR,
                            std::string *Error) {
  auto Fail = [Error](const std::string &Why) -> std::optional<LoopProgram> {
    if (Error)
      *Error = Why;
    return std::nullopt;
  };

  const Program &Prog = G.getProgram();
  const FusionPartition &P = SR.Partition;
  LoopProgram LP(Prog);

  // Pre-register every contracted array so reads and writes agree on the
  // replacement scalar regardless of emission order.
  {
    ALF_COUNTER(NumArraysContracted, "contract.arrays",
                "Arrays contracted to scalars");
    NumArraysContracted += SR.Contracted.size();
  }
  for (const ArraySymbol *A : SR.Contracted)
    LP.addContraction(A);

  // Inter-cluster topological order.
  std::vector<unsigned> Clusters = P.clusters();
  std::vector<unsigned> ClusterOrder = topoSort(Clusters, P.clusterEdges());
  if (ClusterOrder.size() != Clusters.size())
    return Fail("cycle among fusible clusters");

  for (unsigned Cluster : ClusterOrder) {
    const std::vector<unsigned> &Members = P.members(Cluster);

    // Non-normalized statements live in singleton clusters.
    if (Members.size() == 1) {
      const Stmt *S = Prog.getStmt(Members.front());
      if (const auto *CS = dyn_cast<CommStmt>(S)) {
        auto Node = std::make_unique<CommOp>();
        Node->Array = CS->getArray();
        Node->Dir = CS->getDir();
        Node->Phase = CS->getPhase();
        Node->PairId = CS->getPairId();
        Node->Src = CS;
        LP.addNode(std::move(Node));
        continue;
      }
      if (const auto *OS = dyn_cast<OpaqueStmt>(S)) {
        auto Node = std::make_unique<OpaqueOp>();
        Node->Src = OS;
        LP.addNode(std::move(Node));
        continue;
      }
    }

    // Intra-cluster topological order of the member statements.
    std::vector<std::pair<unsigned, unsigned>> IntraEdges;
    for (unsigned EdgeId : P.internalEdges({Cluster}))
      IntraEdges.push_back({G.getEdge(EdgeId).Src, G.getEdge(EdgeId).Tgt});
    std::vector<unsigned> StmtOrder = topoSort(Members, IntraEdges);
    if (StmtOrder.size() != Members.size())
      return Fail("dependence cycle among the statements of one cluster");

    // Loop structure for the nest.
    auto Nest = std::make_unique<LoopNest>();
    Nest->ClusterId = Cluster;
    const Stmt *First = Prog.getStmt(Members.front());
    if (const auto *NS = dyn_cast<NormalizedStmt>(First))
      Nest->R = NS->getRegion();
    else
      Nest->R = cast<ReduceStmt>(First)->getRegion();
    auto UDVs = P.internalUDVs(std::set<unsigned>{Cluster});
    if (!UDVs)
      return Fail("unrepresentable dependence inside a fusible cluster");
    auto LSV = findLoopStructure(*UDVs, Nest->R->rank());
    if (!LSV)
      return Fail("no loop structure vector for a fusible cluster");
    Nest->LSV = *LSV;
    Nest->UDVs = *UDVs;

    // Emit the body, rewriting contracted arrays to scalars.
    auto RewriteContracted = [&LP](const ArrayRefExpr &Ref) -> ExprPtr {
      if (const ScalarSymbol *Scalar = LP.scalarFor(Ref.getSymbol()))
        return sref(Scalar);
      return nullptr;
    };
    for (unsigned StmtId : StmtOrder) {
      const Stmt *S = Prog.getStmt(StmtId);
      ScalarStmt SS;
      SS.SrcStmtId = StmtId;
      if (const auto *RS = dyn_cast<ReduceStmt>(S)) {
        SS.LHS = Target::scalar(RS->getAccumulator());
        SS.RHS = cloneExprRewriting(RS->getBody(), RewriteContracted);
        SS.Accumulate = true;
        SS.SR = &RS->getSemiring();
        Nest->ScalarInits.push_back({RS->getAccumulator(),
                                     RS->getSemiring().PlusIdentity,
                                     &RS->getSemiring()});
        Nest->Body.push_back(std::move(SS));
        continue;
      }
      const auto *NS = cast<NormalizedStmt>(S);
      if (const ScalarSymbol *Scalar = LP.scalarFor(NS->getLHS()))
        SS.LHS = Target::scalar(Scalar);
      else
        SS.LHS = Target::elem(NS->getLHS(), NS->getLHSOffset());
      SS.RHS = cloneExprRewriting(NS->getRHS(), RewriteContracted);
      Nest->Body.push_back(std::move(SS));
    }
    {
      ALF_COUNTER(NumLoopNests, "scalarize.loop_nests", "Loop nests emitted");
      ++NumLoopNests;
    }
    LP.addNode(std::move(Nest));
  }
  applyCorruptionForTest(LP);
  return LP;
}

lir::LoopProgram scalarize::scalarize(const ASDG &G, const StrategyResult &SR) {
  std::string Error;
  std::optional<LoopProgram> LP = scalarizeChecked(G, SR, &Error);
  if (!LP)
    reportFatalError(("scalarize: " + Error).c_str());
  return std::move(*LP);
}

lir::LoopProgram
scalarize::scalarizeWithPartialContraction(const ASDG &G, Strategy S,
                                           const SequentialDims &Seq) {
  std::vector<PartialPlan> Plans;
  StrategyResult SR = applyStrategyWithPartialContraction(G, S, Seq, Plans);
  LoopProgram LP = scalarize(G, SR);
  for (PartialPlan &Plan : Plans)
    LP.addPartialPlan(std::move(Plan));
  return LP;
}

//===- exec/PerfModel.cpp - Trace-driven performance model ------------------===//

#include "exec/PerfModel.h"

#include "exec/Eval.h"
#include "support/ErrorHandling.h"

#include <cmath>
#include <map>

using namespace alf;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::lir;
using namespace alf::machine;

namespace {

/// One array reference lowered to its address-generation recipe.
struct CompiledRef {
  const ArrayLayout *Layout = nullptr; // null for a scalar target
  Offset Off;
  const xform::PartialPlan *Plan = nullptr; // rolling buffer, or null
};

/// A nest statement lowered to its references and flop count.
struct CompiledStmt {
  CompiledRef LHS;
  std::vector<CompiledRef> Reads;
  unsigned Flops = 0;
};

struct Simulator {
  const MachineDesc &M;
  const ProcGrid &Grid;
  MemoryHierarchy Hierarchy;
  PerfStats Stats;

  struct PendingSend {
    double StartComputeNs = 0.0;
    double CostNs = 0.0;
  };
  std::map<int, PendingSend> Pending;

  Simulator(const MachineDesc &Mach, const ProcGrid &G)
      : M(Mach), Grid(G),
        Hierarchy(Mach.L2 ? MemoryHierarchy(Mach.L1, *Mach.L2)
                          : MemoryHierarchy(Mach.L1)) {}

  void chargeRef(uint64_t Addr) {
    ++Stats.Refs;
    switch (Hierarchy.access(Addr)) {
    case MemoryHierarchy::Level::L1:
      ++Stats.L1Hits;
      Stats.ComputeNs += M.L1HitCost;
      break;
    case MemoryHierarchy::Level::L2:
      ++Stats.L2Hits;
      Stats.ComputeNs += M.L2HitCost;
      break;
    case MemoryHierarchy::Level::Memory:
      ++Stats.MemRefs;
      Stats.ComputeNs += M.MemCost;
      break;
    }
  }

  void chargeFlops(unsigned N) {
    Stats.Flops += N;
    Stats.ComputeNs += static_cast<double>(N) * M.FlopCost;
  }

  /// Bytes of the halo slab of \p L along \p Dim with \p Width planes.
  uint64_t slabBytes(const ArrayLayout &L, unsigned Dim,
                     unsigned Width) const {
    uint64_t Elems = L.elements() / static_cast<uint64_t>(L.Bounds.extent(Dim));
    return Elems * Width * L.Array->getElemSize();
  }
};

} // namespace

PerfStats exec::simulate(const LoopProgram &LP, const MachineDesc &M,
                         const ProcGrid &Grid) {
  // Only addresses are charged, so no storage is allocated.
  StorageLayout Layout = LP.storageLayout();

  Simulator Sim(M, Grid);

  for (const auto &NodePtr : LP.nodes()) {
    if (const auto *Nest = dyn_cast<LoopNest>(NodePtr.get())) {
      // Compile body statements to address recipes.
      std::vector<CompiledStmt> Body;
      unsigned NumReduces = 0;
      for (const ScalarStmt &S : Nest->Body) {
        CompiledStmt CS;
        if (!S.LHS.isScalar())
          CS.LHS = CompiledRef{Layout.find(S.LHS.Array), S.LHS.Off,
                               LP.partialPlanFor(S.LHS.Array)};
        for (const ArrayRefExpr *Ref : collectArrayRefs(S.RHS.get()))
          CS.Reads.push_back(CompiledRef{Layout.find(Ref->getSymbol()),
                                         Ref->getOffset(),
                                         LP.partialPlanFor(Ref->getSymbol())});
        CS.Flops = countOps(S.RHS.get()) + (S.Accumulate ? 1 : 0);
        if (S.Accumulate)
          ++NumReduces;
        Body.push_back(std::move(CS));
      }

      const Region &R = *Nest->R;
      unsigned Rank = R.rank();
      std::vector<int64_t> At(Rank);
      auto ChargeRef = [&](const CompiledRef &Ref,
                           const std::vector<int64_t> &Idx) {
        for (unsigned D = 0; D < Rank; ++D) {
          At[D] = Idx[D] + Ref.Off[D];
          if (Ref.Plan)
            At[D] = Ref.Plan->wrap(D, At[D]);
        }
        Sim.chargeRef(Ref.Layout->addrOf(At));
      };
      auto ChargePoint = [&](const std::vector<int64_t> &Idx) {
        for (const CompiledStmt &CS : Body) {
          for (const CompiledRef &Ref : CS.Reads) {
            if (!Ref.Layout)
              alf_unreachable("performance model read without storage");
            ChargeRef(Ref, Idx);
          }
          Sim.chargeFlops(CS.Flops);
          if (CS.LHS.Layout)
            ChargeRef(CS.LHS, Idx);
        }
      };
      forEachInLoopOrder(Nest->LSV, R, Rank, ChargePoint);

      // Each reduction pays a cross-processor combine after the nest.
      if (NumReduces > 0 && Grid.NumProcs > 1) {
        unsigned Steps = static_cast<unsigned>(
            std::ceil(std::log2(static_cast<double>(Grid.NumProcs))));
        Sim.Stats.CommNs += M.ReduceStepCost * Steps * NumReduces;
        Sim.Stats.Messages += Steps * NumReduces;
      }
      continue;
    }

    if (const auto *C = dyn_cast<CommOp>(NodePtr.get())) {
      unsigned Dim = 0;
      unsigned Width = 0;
      for (unsigned D = 0; D < C->Dir.rank(); ++D)
        if (C->Dir[D] != 0) {
          Dim = D;
          Width = static_cast<unsigned>(C->Dir[D] > 0 ? C->Dir[D]
                                                      : -C->Dir[D]);
        }
      if (!Grid.hasNeighbor(Dim))
        continue; // no off-processor neighbour along this dimension
      const ArrayLayout *L = Layout.find(C->Array);
      if (!L)
        continue; // contracted arrays never communicate
      uint64_t Bytes = Sim.slabBytes(*L, Dim, Width);
      // MsgLatency models the per-message *software* overhead (buffer
      // management, protocol), which the processor pays whether or not
      // the transfer overlaps with computation; only the wire transfer
      // can hide behind a pipelined send/recv pair.
      double Transfer = static_cast<double>(Bytes) / M.MsgBandwidth;

      switch (C->Phase) {
      case CommStmt::CommPhase::Whole:
        ++Sim.Stats.Messages;
        Sim.Stats.MsgBytes += Bytes;
        Sim.Stats.CommNs += M.MsgLatency + Transfer;
        break;
      case CommStmt::CommPhase::Send:
        ++Sim.Stats.Messages;
        Sim.Stats.MsgBytes += Bytes;
        Sim.Stats.CommNs += M.MsgLatency;
        Sim.Pending[C->PairId] =
            Simulator::PendingSend{Sim.Stats.ComputeNs, Transfer};
        break;
      case CommStmt::CommPhase::Recv: {
        auto It = Sim.Pending.find(C->PairId);
        if (It == Sim.Pending.end()) {
          Sim.Stats.CommNs += M.MsgLatency + Transfer; // unmatched: no overlap
          break;
        }
        double Elapsed = Sim.Stats.ComputeNs - It->second.StartComputeNs;
        Sim.Stats.CommNs += std::max(0.0, It->second.CostNs - Elapsed);
        Sim.Pending.erase(It);
        break;
      }
      }
      continue;
    }

    const auto *Op = cast<OpaqueOp>(NodePtr.get());
    const OpaqueStmt &O = *Op->Src;
    uint64_t Elems = O.getRegion()
                         ? static_cast<uint64_t>(O.getRegion()->size())
                         : 1;
    Sim.chargeFlops(static_cast<unsigned>(
        std::min<double>(static_cast<double>(Elems) * O.getFlopsPerElem(),
                         4e9)));
    // Stream the referenced arrays through the cache in row-major order.
    auto StreamArray = [&](const ArraySymbol *A) {
      const ArrayLayout *L = Layout.find(A);
      if (!L)
        return;
      for (uint64_t Off = 0; Off < L->Bytes; Off += A->getElemSize())
        Sim.chargeRef(L->BaseAddr + Off);
    };
    for (const ArraySymbol *A : O.arrayReads())
      StreamArray(A);
    for (const ArraySymbol *A : O.arrayWrites())
      StreamArray(A);
    if (O.isGlobalReduction() && Grid.NumProcs > 1) {
      unsigned Steps = static_cast<unsigned>(
          std::ceil(std::log2(static_cast<double>(Grid.NumProcs))));
      Sim.Stats.CommNs += M.ReduceStepCost * Steps;
      Sim.Stats.Messages += Steps;
    }
  }
  return Sim.Stats;
}

double exec::percentImprovement(const PerfStats &Base, const PerfStats &Opt) {
  if (Opt.totalNs() <= 0.0)
    return 0.0;
  return (Base.totalNs() / Opt.totalNs() - 1.0) * 100.0;
}

//===- distsim/DistInterpreter.cpp - SPMD execution simulator ---------------===//

#include "distsim/DistInterpreter.h"

#include "exec/Eval.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>

using namespace alf;
using namespace alf::distsim;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::lir;
using namespace alf::machine;

namespace {

/// One processor's view of the program's arrays.
struct ProcState {
  std::vector<unsigned> Coords;
  // Interior (owned) slice of the global domain, per dimension.
  std::vector<BlockRange> Interior;
  // Local buffers (interior + halo + global-edge cells); no scalars.
  Storage Store;
};

struct DistContext {
  const LoopProgram &LP;
  const ProcGrid &Grid;

  unsigned Rank = 0;                      ///< dimensionality of the domain
  std::vector<int64_t> DomainLo, DomainHi; ///< global iteration domain
  std::map<unsigned, std::vector<int64_t>> HaloWidth; ///< per array id
  std::vector<ProcState> Procs;

  DistContext(const LoopProgram &LP, const ProcGrid &Grid)
      : LP(LP), Grid(Grid) {}
};

/// The box [\p Lo, \p Hi], or nothing when a dimension is empty.
std::optional<Region> boxOf(std::vector<int64_t> Lo, std::vector<int64_t> Hi) {
  for (unsigned D = 0; D < Lo.size(); ++D)
    if (Lo[D] > Hi[D])
      return std::nullopt;
  return Region(std::move(Lo), std::move(Hi));
}

/// The cells \p Proc keeps of an array stored over \p Footprint: its
/// interior widened by \p Width halo cells per dimension, clamped to the
/// footprint. A processor on the grid's edge also keeps the footprint's
/// cells beyond the domain. Nothing when the interior is empty.
std::optional<Region> keptBox(const DistContext &Ctx, const ProcState &Proc,
                              const Region &Footprint,
                              const std::vector<int64_t> &Width) {
  std::vector<int64_t> Lo(Ctx.Rank), Hi(Ctx.Rank);
  for (unsigned D = 0; D < Ctx.Rank; ++D) {
    const BlockRange &I = Proc.Interior[D];
    if (I.empty())
      return std::nullopt;
    bool AtLow = Proc.Coords[D] == 0;
    bool AtHigh = Proc.Coords[D] + 1 == Ctx.Grid.Extents[D];
    Lo[D] = AtLow ? Footprint.lo(D)
                  : std::max(Footprint.lo(D), I.Lo - Width[D]);
    Hi[D] = AtHigh ? Footprint.hi(D)
                   : std::min(Footprint.hi(D), I.Hi + Width[D]);
  }
  return boxOf(std::move(Lo), std::move(Hi));
}

/// Gathers the global iteration domain (union of nest regions) and the
/// per-array halo widths (maximum reference offset magnitudes).
void analyzeProgram(DistContext &Ctx) {
  bool First = true;
  for (const auto &NodePtr : Ctx.LP.nodes()) {
    const auto *Nest = dyn_cast<LoopNest>(NodePtr.get());
    if (!Nest)
      continue;
    const Region &R = *Nest->R;
    if (First) {
      Ctx.Rank = R.rank();
      Ctx.DomainLo.assign(Ctx.Rank, 0);
      Ctx.DomainHi.assign(Ctx.Rank, 0);
      for (unsigned D = 0; D < Ctx.Rank; ++D) {
        Ctx.DomainLo[D] = R.lo(D);
        Ctx.DomainHi[D] = R.hi(D);
      }
      First = false;
      continue;
    }
    if (R.rank() != Ctx.Rank)
      alf_unreachable("distributed run requires a single-rank program");
    for (unsigned D = 0; D < Ctx.Rank; ++D) {
      Ctx.DomainLo[D] = std::min(Ctx.DomainLo[D], R.lo(D));
      Ctx.DomainHi[D] = std::max(Ctx.DomainHi[D], R.hi(D));
    }
  }
  if (First)
    alf_unreachable("distributed run requires at least one loop nest");
  if (Ctx.Grid.Extents.size() != Ctx.Rank)
    alf_unreachable("processor grid rank must match the program rank");

  // Halo widths from the scalarized statements' reference offsets.
  auto Widen = [&Ctx](const ArraySymbol *A, const Offset &Off) {
    auto &W = Ctx.HaloWidth[A->getId()];
    if (W.empty())
      W.assign(A->getRank(), 0);
    for (unsigned D = 0; D < A->getRank(); ++D)
      W[D] = std::max<int64_t>(W[D], Off[D] < 0 ? -Off[D] : Off[D]);
  };
  for (const auto &NodePtr : Ctx.LP.nodes()) {
    const auto *Nest = dyn_cast<LoopNest>(NodePtr.get());
    if (!Nest)
      continue;
    for (const ScalarStmt &S : Nest->Body) {
      if (!S.LHS.isScalar()) {
        if (!S.LHS.Off.isZero())
          alf_unreachable(
              "distributed run requires zero-offset assignment targets");
        Widen(S.LHS.Array, S.LHS.Off);
      }
      for (const ArrayRefExpr *Ref : collectArrayRefs(S.RHS.get()))
        Widen(Ref->getSymbol(), Ref->getOffset());
    }
  }
}

/// Builds every processor's interior slices and local storage, each local
/// buffer a copy of \p Global's cells over its bounds.
void buildProcs(DistContext &Ctx, const Storage &Global) {
  Ctx.Procs.resize(Ctx.Grid.NumProcs);
  for (unsigned Rank = 0; Rank < Ctx.Grid.NumProcs; ++Rank) {
    ProcState &Proc = Ctx.Procs[Rank];
    Proc.Coords = procCoords(Ctx.Grid, Rank);
    Proc.Interior.resize(Ctx.Rank);
    for (unsigned D = 0; D < Ctx.Rank; ++D)
      Proc.Interior[D] = blockSlice(Ctx.DomainLo[D], Ctx.DomainHi[D],
                                    Ctx.Grid.Extents[D], Proc.Coords[D]);

    for (const ArraySymbol *A : Ctx.LP.source().arrays()) {
      const ArrayBuffer *Src = Global.buffer(A);
      if (!Src)
        continue;
      if (A->getRank() != Ctx.Rank)
        alf_unreachable("distributed run requires a single-rank program");
      auto WIt = Ctx.HaloWidth.find(A->getId());
      std::optional<Region> Kept =
          keptBox(Ctx, Proc, Src->bounds(),
                  WIt == Ctx.HaloWidth.end()
                      ? std::vector<int64_t>(Ctx.Rank, 0)
                      : WIt->second);
      if (!Kept)
        continue;
      ArrayBuffer &Local = Proc.Store.addBuffer(ArrayBuffer(A, *Kept, 0));
      forEachPoint(*Kept, [&](const std::vector<int64_t> &At) {
        Local.store(At, Src->load(At));
      });
    }
  }
}

/// Executes one halo exchange: every processor refreshes the \p Width
/// planes next to its interior along \p Dim (direction \p Sign), over its
/// full local bounds in the other dimensions. Each cell is read from the
/// processor whose interior owns it, so a halo wider than the
/// neighbour's interior and the corner cells of a diagonal reference get
/// the current value. Cells outside the iteration domain have no owner;
/// nothing writes them, so they keep their initial values.
void runExchange(DistContext &Ctx, const ArraySymbol *A, unsigned Dim,
                 int Sign, int64_t Width) {
  // Two-phase: compute all transfers against the pre-exchange state,
  // then commit (real exchanges happen concurrently).
  struct Write {
    ArrayBuffer *Dst;
    std::vector<int64_t> Coord;
    double Value;
  };
  std::vector<Write> Writes;

  for (ProcState &Proc : Ctx.Procs) {
    ArrayBuffer *Mine = Proc.Store.buffer(A);
    if (!Mine)
      continue;
    const Region &MB = Mine->bounds();
    const BlockRange &I = Proc.Interior[Dim];
    std::vector<int64_t> Lo(Ctx.Rank), Hi(Ctx.Rank);
    for (unsigned D = 0; D < Ctx.Rank; ++D) {
      Lo[D] = MB.lo(D);
      Hi[D] = MB.hi(D);
    }
    Lo[Dim] = std::max(Sign > 0 ? I.Hi + 1 : I.Lo - Width, MB.lo(Dim));
    Hi[Dim] = std::min(Sign > 0 ? I.Hi + Width : I.Lo - 1, MB.hi(Dim));
    std::optional<Region> Slab = boxOf(std::move(Lo), std::move(Hi));
    if (!Slab)
      continue;
    forEachPoint(*Slab, [&](const std::vector<int64_t> &At) {
      unsigned Owner = 0; // row-major over the grid, as procCoords decodes
      for (unsigned D = 0; D < Ctx.Rank; ++D) {
        int Part = blockOwner(Ctx.DomainLo[D], Ctx.DomainHi[D],
                              Ctx.Grid.Extents[D], At[D]);
        if (Part < 0)
          return;
        Owner = Owner * Ctx.Grid.Extents[D] + static_cast<unsigned>(Part);
      }
      const ArrayBuffer *Theirs = Ctx.Procs[Owner].Store.buffer(A);
      assert(Theirs && "the owner of a cell keeps a buffer for it");
      Writes.push_back(Write{Mine, At, Theirs->load(At)});
    });
  }

  for (const Write &W : Writes)
    W.Dst->store(W.Coord, W.Value);
}

} // namespace

RunResult distsim::runDistributed(const LoopProgram &LP, const ProcGrid &Grid,
                                  uint64_t Seed) {
  if (!LP.partialPlans().empty())
    alf_unreachable("distributed run does not support partial contraction");

  DistContext Ctx(LP, Grid);
  analyzeProgram(Ctx);
  // The global arrays and scalars start exactly as every executor's do;
  // each processor copies its cells out and, at the end, back in.
  Storage Global = allocateStorage(LP, Seed);
  buildProcs(Ctx, Global);

  // One scalar environment shared by every processor: the program's
  // scalars, contracted arrays' replacements and reduction partials.
  std::map<unsigned, double> Scalars;
  for (const Symbol *Sym : LP.source().symbols())
    if (const auto *Sc = dyn_cast<ScalarSymbol>(Sym))
      Scalars[Sc->getId()] = Global.getScalar(Sc);

  for (const auto &NodePtr : LP.nodes()) {
    if (const auto *Nest = dyn_cast<LoopNest>(NodePtr.get())) {
      // Reductions: per-processor partials combined in rank order.
      std::map<unsigned, const semiring::Semiring *> AccSRs;
      for (const ScalarStmt &S : Nest->Body)
        if (S.Accumulate)
          AccSRs[S.LHS.Scalar->getId()] = S.SR;
      std::map<unsigned, double> Totals;
      for (const auto &[Acc, SR] : AccSRs)
        Totals[Acc] = SR->PlusIdentity;

      const Region &R = *Nest->R;
      for (ProcState &Proc : Ctx.Procs) {
        for (const auto &[Acc, SR] : AccSRs)
          Scalars[Acc] = SR->PlusIdentity;
        // The nest's region clipped to the processor's interior.
        std::vector<int64_t> Lo(Ctx.Rank), Hi(Ctx.Rank);
        for (unsigned D = 0; D < Ctx.Rank; ++D) {
          Lo[D] = std::max(R.lo(D), Proc.Interior[D].Lo);
          Hi[D] = std::min(R.hi(D), Proc.Interior[D].Hi);
        }
        if (std::optional<Region> Slice = boxOf(std::move(Lo), std::move(Hi))) {
          EvalContext EC{&Proc.Store, &LP, &Scalars};
          runNestLoops(*Nest, EC, *Slice);
        }
        for (const auto &[Acc, SR] : AccSRs)
          Totals[Acc] = SR->combine(Totals[Acc], Scalars[Acc]);
      }
      for (const auto &[Acc, Total] : Totals)
        Scalars[Acc] = Total;
      continue;
    }
    if (const auto *C = dyn_cast<CommOp>(NodePtr.get())) {
      if (C->Phase == CommStmt::CommPhase::Send)
        continue; // data moves when the receive completes
      for (unsigned D = 0; D < C->Dir.rank(); ++D)
        if (C->Dir[D] != 0)
          runExchange(Ctx, C->Array, D, C->Dir[D] > 0 ? 1 : -1,
                      C->Dir[D] > 0 ? C->Dir[D] : -C->Dir[D]);
      continue;
    }
    alf_unreachable("distributed run does not support opaque statements");
  }

  // Gather: every processor deposits its interior cells (and, on the
  // grid's edge, the global halo) into the global arrays.
  for (ProcState &Proc : Ctx.Procs)
    for (const ArraySymbol *A : LP.source().arrays()) {
      const ArrayBuffer *Local = Proc.Store.buffer(A);
      if (!Local)
        continue;
      ArrayBuffer &Dst = *Global.buffer(A);
      std::optional<Region> Owned = keptBox(Ctx, Proc, Dst.bounds(),
                                            std::vector<int64_t>(Ctx.Rank, 0));
      if (Owned)
        forEachPoint(*Owned, [&](const std::vector<int64_t> &At) {
          Dst.store(At, Local->load(At));
        });
    }
  for (const auto &[Id, V] : Scalars)
    Global.setScalarById(Id, V);
  return collectResults(LP, Global);
}

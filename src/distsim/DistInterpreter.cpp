//===- distsim/DistInterpreter.cpp - SPMD execution simulator ---------------===//

#include "distsim/DistInterpreter.h"

#include "exec/Storage.h"
#include "support/ErrorHandling.h"
#include "support/Random.h"

#include <algorithm>
#include <functional>
#include <map>

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
  // Local buffers (interior + halo + global-edge cells), by symbol id.
  std::map<unsigned, ArrayBuffer> Buffers;
};

struct DistContext {
  const LoopProgram &LP;
  const Program &P;
  const ProcGrid &Grid;
  uint64_t Seed;

  unsigned Rank = 0;                      ///< dimensionality of the domain
  std::vector<int64_t> DomainLo, DomainHi; ///< global iteration domain
  std::map<unsigned, std::vector<int64_t>> HaloWidth; ///< per array id
  std::vector<ProcState> Procs;
  std::map<const ScalarSymbol *, double> Scalars;

  explicit DistContext(const LoopProgram &LP, const ProcGrid &Grid,
                       uint64_t Seed)
      : LP(LP), P(LP.source()), Grid(Grid), Seed(Seed) {}

  double readScalar(const ScalarSymbol *S) const {
    auto It = Scalars.find(S);
    return It == Scalars.end() ? 0.0 : It->second;
  }
};

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

/// Initializes one local buffer cell-by-cell with exactly the values the
/// sequential interpreter's linear fill produces over the footprint.
void initBuffer(const DistContext &Ctx, const ArraySymbol *A,
                const Region &Footprint, ArrayBuffer &Buf) {
  if (!A->isLiveIn())
    return; // zero-initialized by construction
  uint64_t Stream = Ctx.Seed ^ hashName(A->getName());

  // Row-major strides of the *footprint* (the sequential buffer).
  unsigned Rank = Footprint.rank();
  std::vector<int64_t> Strides(Rank, 1);
  for (int D = static_cast<int>(Rank) - 2; D >= 0; --D)
    Strides[D] = Strides[D + 1] * Footprint.extent(D + 1);

  const Region &B = Buf.bounds();
  std::vector<int64_t> Coord(Rank);
  std::function<void(unsigned)> Walk = [&](unsigned D) {
    if (D == Rank) {
      uint64_t N = 0;
      for (unsigned K = 0; K < Rank; ++K)
        N += static_cast<uint64_t>(Coord[K] - Footprint.lo(K)) * Strides[K];
      Buf.store(Coord, -1.0 + 2.0 * SplitMix64::doubleAt(Stream, N));
      return;
    }
    for (int64_t I = B.lo(D); I <= B.hi(D); ++I) {
      Coord[D] = I;
      Walk(D + 1);
    }
  };
  Walk(0);
}

/// Builds every processor's interior slices and local buffers.
void buildProcs(DistContext &Ctx) {
  Ctx.Procs.resize(Ctx.Grid.NumProcs);
  for (unsigned Rank = 0; Rank < Ctx.Grid.NumProcs; ++Rank) {
    ProcState &Proc = Ctx.Procs[Rank];
    Proc.Coords = procCoords(Ctx.Grid, Rank);
    Proc.Interior.resize(Ctx.Rank);
    for (unsigned D = 0; D < Ctx.Rank; ++D)
      Proc.Interior[D] = blockSlice(Ctx.DomainLo[D], Ctx.DomainHi[D],
                                    Ctx.Grid.Extents[D], Proc.Coords[D]);

    for (const ArraySymbol *A : Ctx.P.arrays()) {
      const Region *Footprint = Ctx.LP.storageBounds(A);
      if (!Footprint)
        continue;
      if (A->getRank() != Ctx.Rank)
        alf_unreachable("distributed run requires a single-rank program");
      auto WIt = Ctx.HaloWidth.find(A->getId());
      std::vector<int64_t> W =
          WIt == Ctx.HaloWidth.end() ? std::vector<int64_t>(Ctx.Rank, 0)
                                     : WIt->second;

      std::vector<int64_t> Lo(Ctx.Rank), Hi(Ctx.Rank);
      bool Empty = false;
      for (unsigned D = 0; D < Ctx.Rank; ++D) {
        const BlockRange &I = Proc.Interior[D];
        if (I.empty()) {
          Empty = true;
          break;
        }
        bool AtLow = Proc.Coords[D] == 0;
        bool AtHigh = Proc.Coords[D] + 1 == Ctx.Grid.Extents[D];
        // Interior extended by the halo, clamped to the footprint;
        // global-edge processors own the footprint's global halo.
        Lo[D] = AtLow ? Footprint->lo(D)
                      : std::max(Footprint->lo(D), I.Lo - W[D]);
        Hi[D] = AtHigh ? Footprint->hi(D)
                       : std::min(Footprint->hi(D), I.Hi + W[D]);
        if (Lo[D] > Hi[D]) {
          Empty = true;
          break;
        }
      }
      if (Empty)
        continue;
      ArrayBuffer Buf(A, Region(std::move(Lo), std::move(Hi)), 0);
      initBuffer(Ctx, A, *Footprint, Buf);
      Proc.Buffers.emplace(A->getId(), std::move(Buf));
    }
  }

  // Program scalars: identical to Storage::allocate's initialization.
  for (const Symbol *Sym : Ctx.P.symbols())
    if (const auto *Sc = dyn_cast<ScalarSymbol>(Sym)) {
      SplitMix64 Rng(Ctx.Seed ^ hashName(Sc->getName()));
      Ctx.Scalars[Sc] = 0.5 + Rng.nextDouble();
    }
}

double evalExpr(const Expr *E, DistContext &Ctx, ProcState &Proc,
                const std::vector<int64_t> &Idx) {
  if (const auto *C = dyn_cast<ConstExpr>(E))
    return C->getValue();
  if (const auto *S = dyn_cast<ScalarRefExpr>(E))
    return Ctx.readScalar(S->getSymbol());
  if (const auto *A = dyn_cast<ArrayRefExpr>(E)) {
    auto It = Proc.Buffers.find(A->getSymbol()->getId());
    if (It == Proc.Buffers.end())
      alf_unreachable("distributed read of an array without local storage");
    std::vector<int64_t> At(Idx.size());
    for (unsigned D = 0; D < Idx.size(); ++D)
      At[D] = Idx[D] + A->getOffset()[D];
    return It->second.load(At);
  }
  if (const auto *U = dyn_cast<UnaryExpr>(E))
    return UnaryExpr::evaluate(U->getOpcode(),
                               evalExpr(U->getOperand(), Ctx, Proc, Idx));
  const auto *B = cast<BinaryExpr>(E);
  return BinaryExpr::evaluate(
      B->getOpcode(), evalExpr(B->getLHS(), Ctx, Proc, Idx),
      evalExpr(B->getRHS(), Ctx, Proc, Idx));
}

/// Runs one nest on one processor's slice of the region.
void runNestOnProc(const LoopNest &Nest, DistContext &Ctx, ProcState &Proc) {
  const Region &R = *Nest.R;
  unsigned Rank = R.rank();

  // Local slice: region clipped to the processor's interior.
  std::vector<int64_t> Lo(Rank), Hi(Rank);
  for (unsigned D = 0; D < Rank; ++D) {
    Lo[D] = std::max(R.lo(D), Proc.Interior[D].Lo);
    Hi[D] = std::min(R.hi(D), Proc.Interior[D].Hi);
    if (Lo[D] > Hi[D])
      return; // nothing local to this processor
  }

  std::vector<int64_t> Idx(Rank);
  std::function<void(unsigned)> RunLoop = [&](unsigned Loop) {
    if (Loop == Rank) {
      for (const ScalarStmt &S : Nest.Body) {
        double V = evalExpr(S.RHS.get(), Ctx, Proc, Idx);
        if (S.LHS.isScalar()) {
          if (S.Accumulate)
            V = S.SR->combine(Ctx.readScalar(S.LHS.Scalar), V);
          Ctx.Scalars[S.LHS.Scalar] = V;
          continue;
        }
        auto It = Proc.Buffers.find(S.LHS.Array->getId());
        if (It == Proc.Buffers.end())
          alf_unreachable("distributed write without local storage");
        It->second.store(Idx, V);
      }
      return;
    }
    unsigned Dim = Nest.LSV.dimOf(Loop);
    if (Nest.LSV.dirOf(Loop) > 0) {
      for (int64_t I = Lo[Dim]; I <= Hi[Dim]; ++I) {
        Idx[Dim] = I;
        RunLoop(Loop + 1);
      }
    } else {
      for (int64_t I = Hi[Dim]; I >= Lo[Dim]; --I) {
        Idx[Dim] = I;
        RunLoop(Loop + 1);
      }
    }
  };
  RunLoop(0);
}

/// Executes one halo exchange: every processor receives the \p Width
/// planes adjacent to its interior along \p Dim (direction \p Sign) from
/// its neighbour's local storage. Other dimensions copy over the full
/// local bounds, so earlier exchanges' halo fills propagate into corners.
void runExchange(DistContext &Ctx, const ArraySymbol *A, unsigned Dim,
                 int Sign, int64_t Width) {
  // Two-phase: compute all transfers against the pre-exchange state,
  // then commit (real exchanges happen concurrently).
  struct Write {
    unsigned Proc;
    std::vector<int64_t> Coord;
    double Value;
  };
  std::vector<Write> Writes;

  for (unsigned Rank = 0; Rank < Ctx.Grid.NumProcs; ++Rank) {
    ProcState &Proc = Ctx.Procs[Rank];
    int NbrRank = neighborRank(Ctx.Grid, Proc.Coords, Dim, Sign);
    if (NbrRank < 0)
      continue; // grid boundary: the global halo keeps initial values
    ProcState &Nbr = Ctx.Procs[static_cast<unsigned>(NbrRank)];

    auto MineIt = Proc.Buffers.find(A->getId());
    auto TheirsIt = Nbr.Buffers.find(A->getId());
    if (MineIt == Proc.Buffers.end() || TheirsIt == Nbr.Buffers.end())
      continue;
    ArrayBuffer &Mine = MineIt->second;
    const ArrayBuffer &Theirs = TheirsIt->second;

    // The halo slab along Dim.
    const BlockRange &I = Proc.Interior[Dim];
    int64_t SlabLo = Sign > 0 ? I.Hi + 1 : I.Lo - Width;
    int64_t SlabHi = Sign > 0 ? I.Hi + Width : I.Lo - 1;
    SlabLo = std::max(SlabLo, Mine.bounds().lo(Dim));
    SlabHi = std::min(SlabHi, Mine.bounds().hi(Dim));
    if (SlabLo > SlabHi)
      continue;

    unsigned RankN = Mine.bounds().rank();
    std::vector<int64_t> Lo(RankN), Hi(RankN);
    bool Empty = false;
    for (unsigned D = 0; D < RankN; ++D) {
      if (D == Dim) {
        Lo[D] = SlabLo;
        Hi[D] = SlabHi;
      } else {
        Lo[D] = std::max(Mine.bounds().lo(D), Theirs.bounds().lo(D));
        Hi[D] = std::min(Mine.bounds().hi(D), Theirs.bounds().hi(D));
      }
      if (Lo[D] > Hi[D])
        Empty = true;
    }
    if (Empty)
      continue;

    std::vector<int64_t> Coord(RankN);
    std::function<void(unsigned)> Walk = [&](unsigned D) {
      if (D == RankN) {
        Writes.push_back(Write{Rank, Coord, Theirs.load(Coord)});
        return;
      }
      for (int64_t V = Lo[D]; V <= Hi[D]; ++V) {
        Coord[D] = V;
        Walk(D + 1);
      }
    };
    Walk(0);
  }

  for (const Write &W : Writes)
    Ctx.Procs[W.Proc].Buffers.at(A->getId()).store(W.Coord, W.Value);
}

} // namespace

RunResult distsim::runDistributed(const LoopProgram &LP, const ProcGrid &Grid,
                                  uint64_t Seed) {
  if (!LP.partialPlans().empty())
    alf_unreachable("distributed run does not support partial contraction");

  DistContext Ctx(LP, Grid, Seed);
  analyzeProgram(Ctx);
  buildProcs(Ctx);

  for (const auto &NodePtr : LP.nodes()) {
    if (const auto *Nest = dyn_cast<LoopNest>(NodePtr.get())) {
      // Reductions: per-processor partials combined in rank order.
      std::map<const ScalarSymbol *, const semiring::Semiring *> AccSRs;
      for (const ScalarStmt &S : Nest->Body)
        if (S.Accumulate)
          AccSRs[S.LHS.Scalar] = S.SR;
      std::map<const ScalarSymbol *, double> Totals;
      for (const auto &[Acc, SR] : AccSRs)
        Totals[Acc] = SR->PlusIdentity;

      for (ProcState &Proc : Ctx.Procs) {
        for (const auto &[Acc, SR] : AccSRs)
          Ctx.Scalars[Acc] = SR->PlusIdentity;
        runNestOnProc(*Nest, Ctx, Proc);
        for (const auto &[Acc, SR] : AccSRs)
          Totals[Acc] = SR->combine(Totals[Acc], Ctx.readScalar(Acc));
      }
      for (const auto &[Acc, Total] : Totals)
        Ctx.Scalars[Acc] = Total;
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

  // Gather: global buffers start from the sequential initialization, and
  // every processor deposits its interior cells.
  RunResult Result;
  for (const ArraySymbol *A : Ctx.P.arrays()) {
    if (!A->isLiveOut())
      continue;
    const Region *Footprint = Ctx.LP.storageBounds(A);
    if (!Footprint)
      continue;
    ArrayBuffer Global(A, *Footprint, 0);
    initBuffer(Ctx, A, *Footprint, Global);

    for (ProcState &Proc : Ctx.Procs) {
      auto It = Proc.Buffers.find(A->getId());
      if (It == Proc.Buffers.end())
        continue;
      unsigned Rank = Footprint->rank();
      std::vector<int64_t> Lo(Rank), Hi(Rank);
      bool Empty = false;
      for (unsigned D = 0; D < Rank; ++D) {
        bool AtLow = Proc.Coords[D] == 0;
        bool AtHigh = Proc.Coords[D] + 1 == Ctx.Grid.Extents[D];
        Lo[D] = AtLow ? Footprint->lo(D)
                      : std::max(Footprint->lo(D), Proc.Interior[D].Lo);
        Hi[D] = AtHigh ? Footprint->hi(D)
                       : std::min(Footprint->hi(D), Proc.Interior[D].Hi);
        if (Lo[D] > Hi[D])
          Empty = true;
      }
      if (Empty)
        continue;
      std::vector<int64_t> Coord(Rank);
      std::function<void(unsigned)> Walk = [&](unsigned D) {
        if (D == Rank) {
          Global.store(Coord, It->second.load(Coord));
          return;
        }
        for (int64_t V = Lo[D]; V <= Hi[D]; ++V) {
          Coord[D] = V;
          Walk(D + 1);
        }
      };
      Walk(0);
    }
    Result.LiveOut.emplace(A->getName(), Global.take());
  }
  for (const Symbol *Sym : Ctx.P.symbols())
    if (const auto *Sc = dyn_cast<ScalarSymbol>(Sym))
      Result.ScalarsOut.emplace(Sc->getName(), Ctx.readScalar(Sc));
  return Result;
}

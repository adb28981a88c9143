//===- exec/ParallelExecutor.cpp - Tiled multithreaded executor -------------===//

#include "exec/ParallelExecutor.h"

#include "exec/Eval.h"
#include "obs/Obs.h"
#include "support/Casting.h"
#include "support/ThreadPool.h"
#include "xform/Report.h"

#include <set>

using namespace alf;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::lir;
using namespace alf::xform;

namespace {

/// Array dimensions of \p Nest aliased by a rolling buffer: the reduced
/// (modulo-indexed) dimensions of every partially contracted array the
/// nest references.
std::vector<bool> wrappedDims(const LoopProgram &LP, const LoopNest &Nest) {
  std::vector<bool> Wrapped(Nest.R->rank(), false);
  std::set<const ArraySymbol *> Arrays;
  for (const ScalarStmt &S : Nest.Body) {
    if (!S.LHS.isScalar())
      Arrays.insert(S.LHS.Array);
    for (const ArrayRefExpr *Ref : collectArrayRefs(S.RHS.get()))
      Arrays.insert(Ref->getSymbol());
  }
  for (const ArraySymbol *A : Arrays) {
    const PartialPlan *Plan = LP.partialPlanFor(A);
    if (!Plan)
      continue;
    for (unsigned D = 0; D < Wrapped.size(); ++D)
      if (D < Plan->BufferExtents.size() && Plan->isReduced(D))
        Wrapped[D] = true;
  }
  return Wrapped;
}

/// Runs one parallel nest: the plan's loop is split into one contiguous
/// tile per worker; outer loops (tile-with-barriers mode) run
/// sequentially with one pool dispatch per iteration. Worker-private
/// scalar overlays keep contracted temporaries thread-local; the overlay
/// of the worker owning the sequentially-last tile is merged back so
/// leftover scalar values match the interpreter exactly.
void runNestParallel(const LoopNest &Nest, EvalContext &Shared,
                     ThreadPool &Pool, const NestParallelPlan &Plan) {
  for (const lir::ScalarInit &SI : Nest.ScalarInits)
    Shared.writeScalar(SI.Acc, SI.Init);

  const Region &R = *Nest.R;
  unsigned SplitLoop = static_cast<unsigned>(Plan.ParallelLoop);
  unsigned SplitDim = Nest.LSV.dimOf(SplitLoop);
  int64_t Lo = R.lo(SplitDim), Hi = R.hi(SplitDim);

  std::vector<std::map<unsigned, double>> Overlays(Pool.numThreads());
  auto RunTiles = [&](const std::vector<int64_t> &Outer) {
    Pool.parallelFor(Lo, Hi + 1, [&](int64_t TileLo, int64_t TileEnd,
                                     unsigned Worker) {
      // The tile: the outer loops at this iteration, the split loop
      // restricted to the chunk, the inner loops over the whole region
      // (Outer holds their lower bounds).
      std::vector<int64_t> TLo = Outer, THi = Outer;
      for (unsigned L = SplitLoop; L < R.rank(); ++L)
        THi[Nest.LSV.dimOf(L)] = R.hi(Nest.LSV.dimOf(L));
      TLo[SplitDim] = TileLo;
      THi[SplitDim] = TileEnd - 1;
      EvalContext Ctx{Shared.Store, Shared.LP, &Overlays[Worker]};
      runNestLoops(Nest, Ctx, Region(std::move(TLo), std::move(THi)));
    });
  };
  forEachInLoopOrder(Nest.LSV, R, SplitLoop, RunTiles);

  // The sequentially-last iteration of the split loop is Hi for an
  // increasing loop and Lo for a decreasing one; find its tile's worker
  // and merge that overlay, replicating the interpreter's leftover
  // scalar environment (contracted temps are dead here, but the match
  // must be exact).
  int64_t Last = Nest.LSV.dirOf(SplitLoop) > 0 ? Hi : Lo;
  for (unsigned W = 0; W < Pool.numThreads(); ++W) {
    int64_t CLo, CHi;
    if (ThreadPool::chunkBounds(Lo, Hi + 1, Pool.numThreads(), W, CLo, CHi) &&
        CLo <= Last && Last <= CHi) {
      for (const auto &[Id, V] : Overlays[W])
        Shared.Store->setScalarById(Id, V);
      break;
    }
  }
}

} // namespace

unsigned ParallelSchedule::numParallelNests() const {
  unsigned N = 0;
  for (const NestParallelPlan &P : NodePlans)
    N += P.isParallel();
  return N;
}

const NestParallelPlan *
ParallelSchedule::planForNest(const LoopProgram &LP, unsigned I) const {
  unsigned Seen = 0;
  for (size_t Node = 0; Node < LP.nodes().size(); ++Node) {
    if (!isa<LoopNest>(LP.nodes()[Node].get()))
      continue;
    if (Seen++ == I)
      return Node < NodePlans.size() ? &NodePlans[Node] : nullptr;
  }
  return nullptr;
}

ParallelSchedule exec::planParallelism(const LoopProgram &LP) {
  ALF_COUNTER(NestsOuterParallel, "parallel.nests_outer",
              "Nests with a dependence-free outermost loop");
  ALF_COUNTER(NestsInnerParallel, "parallel.nests_inner",
              "Nests parallelized under per-iteration barriers");
  ALF_COUNTER(NestsSequential, "parallel.nests_sequential",
              "Nests kept sequential by the legality analysis");

  ParallelSchedule Sched;
  for (const auto &NodePtr : LP.nodes()) {
    NestParallelPlan Plan;
    if (const auto *Nest = dyn_cast<LoopNest>(NodePtr.get())) {
      NestParallelInput In;
      In.LSV = Nest->LSV;
      In.UDVs = Nest->UDVs;
      In.WrappedDims = wrappedDims(LP, *Nest);
      for (const ScalarStmt &S : Nest->Body)
        In.HasReduction |= S.Accumulate;
      Plan = analyzeNestParallelism(In);
      switch (Plan.Decision) {
      case ParallelDecision::OuterParallel:
        ++NestsOuterParallel;
        break;
      case ParallelDecision::InnerParallel:
        ++NestsInnerParallel;
        break;
      default:
        ++NestsSequential;
        break;
      }
    }
    Sched.NodePlans.push_back(std::move(Plan));
  }
  return Sched;
}

std::string exec::describeSchedule(const LoopProgram &LP,
                                   const ParallelSchedule &Sched) {
  std::vector<NestParallelSummary> Rows;
  for (size_t Node = 0; Node < LP.nodes().size(); ++Node) {
    const auto *Nest = dyn_cast<LoopNest>(LP.nodes()[Node].get());
    if (!Nest)
      continue;
    NestParallelSummary Row;
    Row.ClusterId = Nest->ClusterId;
    Row.LSV = Nest->LSV.str();
    Row.Points = Nest->R->size();
    Row.Plan = Sched.NodePlans[Node];
    Rows.push_back(std::move(Row));
  }
  return parallelismReport(Rows);
}

void exec::runParallelOnStorage(const LoopProgram &LP, Storage &Store,
                                const ParallelOptions &Opts,
                                const ParallelSchedule &Sched) {
  ALF_COUNTER(NumParallelRuns, "parallel.runs", "Parallel executor runs");
  ++NumParallelRuns;

  obs::Span Outer("exec.parallel");
  if (Outer.active())
    Outer.setBytes(Store.totalBytes());

  EvalContext Ctx;
  Ctx.Store = &Store;
  Ctx.LP = &LP;

  ThreadPool Pool(Opts.NumThreads);
  for (size_t Node = 0; Node < LP.nodes().size(); ++Node) {
    LNode *N = LP.nodes()[Node].get();
    if (const auto *Nest = dyn_cast<LoopNest>(N)) {
      const NestParallelPlan &Plan = Sched.NodePlans[Node];
      if (Plan.isParallel())
        runNestParallel(*Nest, Ctx, Pool, Plan);
      else
        iterateNest(*Nest, Ctx);
      continue;
    }
    if (isa<CommOp>(N))
      continue; // single address space: halo exchange is a no-op
    execOpaqueStmt(*cast<OpaqueOp>(N)->Src, Ctx);
  }
}

RunResult exec::runParallel(const LoopProgram &LP, uint64_t Seed,
                            const ParallelOptions &Opts,
                            const ParallelSchedule &Sched) {
  Storage Store = allocateStorage(LP, Seed);
  runParallelOnStorage(LP, Store, Opts, Sched);
  return collectResults(LP, Store);
}

RunResult exec::runParallel(const LoopProgram &LP, uint64_t Seed,
                            const ParallelOptions &Opts) {
  return runParallel(LP, Seed, Opts, planParallelism(LP));
}

//===- scalarize/Schedule.cpp - Per-nest parallelism of a LoopProgram -----===//

#include "scalarize/Schedule.h"

#include "support/Casting.h"

#include <set>

using namespace alf;
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

/// True when every scalar \p Nest writes can be private to a chunk: no
/// program scalar is assigned, and each contracted scalar is assigned
/// before the body reads it.
bool scalarsArePrivate(const LoopProgram &LP, const LoopNest &Nest) {
  std::set<const ScalarSymbol *> Assigned;
  for (const ScalarStmt &S : Nest.Body) {
    for (const ScalarSymbol *R : collectScalarRefs(S.RHS.get()))
      if (!LP.isProgramScalar(R) && !Assigned.count(R))
        return false;
    if (S.LHS.isScalar()) {
      if (LP.isProgramScalar(S.LHS.Scalar))
        return false;
      Assigned.insert(S.LHS.Scalar);
    }
  }
  return true;
}

} // namespace

NestParallelPlan lir::planNest(const LoopProgram &LP, const LoopNest &Nest) {
  NestParallelInput In;
  In.LSV = Nest.LSV;
  In.UDVs = Nest.UDVs;
  In.WrappedDims = wrappedDims(LP, Nest);
  for (const ScalarStmt &S : Nest.Body)
    In.HasReduction |= S.Accumulate;
  return analyzeNestParallelism(In);
}

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

ParallelSchedule lir::splitSchedule(const LoopProgram &LP) {
  ParallelSchedule Sched;
  Sched.NodePlans.resize(LP.nodes().size());
  for (size_t Node = 0; Node < LP.nodes().size(); ++Node) {
    const auto *Nest = dyn_cast<LoopNest>(LP.nodes()[Node].get());
    if (!Nest || Nest->R->size() < MinSplitPoints ||
        !scalarsArePrivate(LP, *Nest))
      continue;
    NestParallelPlan Plan = planNest(LP, *Nest);
    if (Plan.Decision == ParallelDecision::OuterParallel)
      Sched.NodePlans[Node] = std::move(Plan);
  }
  return Sched;
}

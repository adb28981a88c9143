//===- runtime/Engine.cpp - Deferred-evaluation engine ----------------------===//

#include "runtime/Runtime.h"

#include "driver/Pipeline.h"
#include "exec/Eval.h"
#include "exec/Storage.h"
#include "obs/Obs.h"
#include "runtime/Trace.h"
#include "support/ErrorHandling.h"
#include "support/StringUtil.h"

#include <cassert>
#include <map>
#include <optional>

using namespace alf;
using namespace alf::runtime;
using namespace alf::runtime::detail;

namespace {

ALF_COUNTER(NumRuntimeFlushes, "runtime.flushes", "Trace flushes executed");
ALF_COUNTER(NumRuntimeStmts, "runtime.record",
            "Array statements recorded into traces");
ALF_COUNTER(NumRuntimeCacheHits, "runtime.cache.hit",
            "Flushes served by the structural trace cache");
ALF_COUNTER(NumRuntimeCacheMisses, "runtime.cache.miss",
            "Flushes that analyzed and compiled a new trace shape");
ALF_COUNTER(NumRuntimeContracted, "runtime.contracted",
            "Traced arrays contracted away, summed over flushes");

} // namespace

//===----------------------------------------------------------------------===//
// ArrayState
//===----------------------------------------------------------------------===//

int64_t ArrayState::linearIndex(const std::vector<int64_t> &At) const {
  if (!Materialized || At.size() != Bounds.rank())
    return -1;
  int64_t Linear = 0;
  int64_t Stride = 1;
  for (int D = static_cast<int>(Bounds.rank()) - 1; D >= 0; --D) {
    unsigned UD = static_cast<unsigned>(D);
    if (At[UD] < Bounds.lo(UD) || At[UD] > Bounds.hi(UD))
      return -1;
    Linear += (At[UD] - Bounds.lo(UD)) * Stride;
    Stride *= Bounds.extent(UD);
  }
  return Linear;
}

double ArrayState::load(const std::vector<int64_t> &At) const {
  int64_t I = linearIndex(At);
  return I < 0 ? 0.0 : Data[static_cast<size_t>(I)];
}

void ArrayState::store(const std::vector<int64_t> &At, double V) {
  int64_t I = linearIndex(At);
  assert(I >= 0 && "store outside the array's materialized bounds");
  Data[static_cast<size_t>(I)] = V;
}

//===----------------------------------------------------------------------===//
// Trace serialization
//===----------------------------------------------------------------------===//

void detail::serializeTExpr(const TExpr &T, std::string &Out) {
  switch (T.Kind) {
  case TExpr::K::ConstSlot:
    Out += formatString("c%u", T.Slot);
    return;
  case TExpr::K::InputSlot:
    Out += formatString("s%u", T.Slot);
    return;
  case TExpr::K::ReduceSlot:
    Out += formatString("r%u", T.Slot);
    return;
  case TExpr::K::Ref:
    Out += formatString("a%u", T.Slot);
    Out += T.Off.str();
    return;
  case TExpr::K::Un:
    Out += formatString("u%d(", static_cast<int>(T.UOp));
    serializeTExpr(*T.A, Out);
    Out += ')';
    return;
  case TExpr::K::Bin:
    Out += formatString("b%d(", static_cast<int>(T.BOp));
    serializeTExpr(*T.A, Out);
    Out += ',';
    serializeTExpr(*T.B, Out);
    Out += ')';
    return;
  }
}

//===----------------------------------------------------------------------===//
// EngineImpl
//===----------------------------------------------------------------------===//

namespace alf {
namespace runtime {
namespace detail {

class EngineImpl {
public:
  EngineOptions Opts;
  FlushInfo Last;
  EngineStats Stats;

  // --- pending trace ---
  std::vector<ArraySlot> Slots;
  std::vector<TraceStmt> Trace;
  std::vector<double> ConstVals;
  std::vector<double> InputVals;
  std::vector<std::shared_ptr<ScalarState>> InputStates;
  std::map<const ScalarState *, unsigned> InputSlotOf;
  std::vector<std::shared_ptr<ScalarState>> ReduceStates;
  unsigned NextTemp = 0;

  // --- trace cache ---
  /// Everything a structurally repeated trace can reuse: the rebuilt
  /// program (owning the symbols every other field references), the
  /// artifact prepared for the engine's mode (loop program, with its
  /// storage layout, plus schedule or loaded kernel), and the slot ->
  /// symbol binding tables.
  struct CacheEntry {
    std::unique_ptr<ir::Program> P;
    std::optional<driver::CompiledProgram> CP;
    std::vector<const ir::ArraySymbol *> SlotArrays;
    std::vector<const ir::ScalarSymbol *> ConstSyms;
    std::vector<const ir::ScalarSymbol *> InputSyms;
    std::vector<const ir::ScalarSymbol *> ReduceSyms;
  };
  std::map<std::string, std::unique_ptr<CacheEntry>> Cache;

  explicit EngineImpl(EngineOptions InOpts) : Opts(std::move(InOpts)) {}

  unsigned slotFor(const std::shared_ptr<ArrayState> &St);
  std::unique_ptr<TExpr> lower(const ExNode &N);
  void recorded();
  void flush(FlushTrigger T);

  Array compute(const ir::Region &R, const Ex &E, std::string Name);
  void update(const Array &A, const ir::Offset &Off, const ir::Region &R,
              const Ex &E);
  Scalar reduce(const semiring::Semiring &SR, const ir::Region &R,
                const Ex &E);

private:
  std::string serializeKey() const;
  std::unique_ptr<CacheEntry> buildEntry();
  ir::ExprPtr toExpr(const TExpr &T, const CacheEntry &E) const;
  void execute(const CacheEntry &E, FlushInfo &Info);
  void copyIn(exec::ArrayBuffer &Buf, const ArrayState &St) const;
  void copyOut(ArrayState &St, const exec::ArrayBuffer &Buf) const;
};

} // namespace detail
} // namespace runtime
} // namespace alf

unsigned EngineImpl::slotFor(const std::shared_ptr<ArrayState> &St) {
  assert(St->E == this && "array handle belongs to a different engine");
  if (St->Slot < 0) {
    St->Slot = static_cast<int>(Slots.size());
    ArraySlot S;
    S.State = St;
    S.LiveIn = St->Materialized;
    Slots.push_back(std::move(S));
  }
  return static_cast<unsigned>(St->Slot);
}

std::unique_ptr<TExpr> EngineImpl::lower(const ExNode &N) {
  switch (N.Kind) {
  case ExNode::K::Const: {
    auto T = std::make_unique<TExpr>(TExpr::K::ConstSlot);
    T->Slot = static_cast<unsigned>(ConstVals.size());
    ConstVals.push_back(N.C);
    return T;
  }
  case ExNode::K::Scalar: {
    if (N.Sc->Pending) {
      assert(N.Sc->E == this && "scalar handle from a different engine");
      auto T = std::make_unique<TExpr>(TExpr::K::ReduceSlot);
      T->Slot = static_cast<unsigned>(N.Sc->ReduceSlot);
      return T;
    }
    // Known value: snapshot it into the input table. One slot per
    // distinct handle so repeated uses share a parameter.
    auto [It, Inserted] = InputSlotOf.try_emplace(
        N.Sc.get(), static_cast<unsigned>(InputVals.size()));
    if (Inserted) {
      InputVals.push_back(N.Sc->Value);
      InputStates.push_back(N.Sc);
    }
    auto T = std::make_unique<TExpr>(TExpr::K::InputSlot);
    T->Slot = It->second;
    return T;
  }
  case ExNode::K::Ref: {
    auto T = std::make_unique<TExpr>(TExpr::K::Ref);
    T->Slot = slotFor(N.Arr);
    T->Off = N.Off;
    return T;
  }
  case ExNode::K::Un: {
    auto T = std::make_unique<TExpr>(TExpr::K::Un);
    T->UOp = N.UOp;
    T->A = lower(*N.A);
    return T;
  }
  case ExNode::K::Bin: {
    auto T = std::make_unique<TExpr>(TExpr::K::Bin);
    T->BOp = N.BOp;
    T->A = lower(*N.A);
    T->B = lower(*N.B);
    return T;
  }
  }
  return nullptr;
}

void EngineImpl::recorded() {
  ++Stats.StmtsRecorded;
  obs::instant(NumRuntimeStmts);
  if (Opts.MaxTraceLen && Trace.size() >= Opts.MaxTraceLen)
    flush(FlushTrigger::Cap);
}

Array EngineImpl::compute(const ir::Region &R, const Ex &E, std::string Name) {
  assert(R.rank() >= 1 && "compute needs a ranked region");
  TraceStmt TS;
  TS.Kind = TraceStmt::K::Assign;
  TS.Rhs = lower(*E.node());
  auto St = std::make_shared<ArrayState>();
  St->E = this;
  St->Name = Name.empty() ? formatString("t%u", NextTemp++) : std::move(Name);
  St->Domain = R;
  TS.Lhs = slotFor(St);
  Slots[TS.Lhs].Written = true;
  TS.LhsOff = ir::Offset::zero(R.rank());
  TS.R = R;
  Trace.push_back(std::move(TS));
  Array Result(St);
  recorded();
  return Result;
}

void EngineImpl::update(const Array &A, const ir::Offset &Off,
                        const ir::Region &R, const Ex &E) {
  assert(A.valid() && "update of an empty Array handle");
  assert(Off.rank() == R.rank() && "update offset rank mismatch");
  TraceStmt TS;
  TS.Kind = TraceStmt::K::Update;
  TS.Rhs = lower(*E.node());
  TS.Lhs = slotFor(A.St);
  Slots[TS.Lhs].Written = true;
  TS.LhsOff = Off;
  TS.R = R;
  Trace.push_back(std::move(TS));
  recorded();
}

Scalar EngineImpl::reduce(const semiring::Semiring &SR, const ir::Region &R,
                          const Ex &E) {
  TraceStmt TS;
  TS.Kind = TraceStmt::K::Reduce;
  TS.Rhs = lower(*E.node());
  auto Sc = std::make_shared<ScalarState>();
  Sc->E = this;
  Sc->Pending = true;
  Sc->ReduceSlot = static_cast<int>(ReduceStates.size());
  ReduceStates.push_back(Sc);
  TS.Lhs = static_cast<unsigned>(Sc->ReduceSlot);
  TS.R = R;
  TS.SR = &SR;
  Trace.push_back(std::move(TS));
  Scalar Result(Sc);
  recorded();
  return Result;
}

std::string EngineImpl::serializeKey() const {
  std::string Key;
  for (size_t I = 0; I < Slots.size(); ++I) {
    const ArraySlot &S = Slots[I];
    Key += formatString("A%zu:%u%c%c;", I, S.State->Domain.rank(),
                        S.LiveIn ? 'L' : 'l', S.External ? 'E' : 'e');
  }
  for (const TraceStmt &TS : Trace) {
    switch (TS.Kind) {
    case TraceStmt::K::Assign:
      Key += formatString("=a%u", TS.Lhs);
      break;
    case TraceStmt::K::Update:
      Key += formatString("^a%u", TS.Lhs);
      Key += TS.LhsOff.str();
      break;
    case TraceStmt::K::Reduce:
      // The semiring name is part of the key: a structurally identical
      // trace under a different semiring is a different kernel.
      Key += formatString("<r%u:%s", TS.Lhs, TS.SR->Name.c_str());
      break;
    }
    Key += TS.R.str();
    Key += ':';
    serializeTExpr(*TS.Rhs, Key);
    Key += ';';
  }
  return Key;
}

std::unique_ptr<EngineImpl::CacheEntry> EngineImpl::buildEntry() {
  auto E = std::make_unique<CacheEntry>();
  E->P = std::make_unique<ir::Program>("rt_trace");

  for (size_t I = 0; I < Slots.size(); ++I) {
    const ArraySlot &S = Slots[I];
    ir::ArrayOpts O;
    O.LiveIn = S.LiveIn;
    // Only arrays the trace writes AND a handle still references need to
    // leave the flush; a read-only input keeps its handle's data as-is.
    O.LiveOut = S.External && S.Written;
    E->SlotArrays.push_back(E->P->makeArray(formatString("a%zu", I),
                                            S.State->Domain.rank(), O));
  }
  for (size_t I = 0; I < ConstVals.size(); ++I)
    E->ConstSyms.push_back(E->P->makeScalar(formatString("c%zu", I)));
  for (size_t I = 0; I < InputVals.size(); ++I)
    E->InputSyms.push_back(E->P->makeScalar(formatString("s%zu", I)));
  for (size_t I = 0; I < ReduceStates.size(); ++I)
    E->ReduceSyms.push_back(E->P->makeScalar(formatString("r%zu", I)));

  for (const TraceStmt &TS : Trace) {
    const ir::Region *R = E->P->internRegion(TS.R);
    switch (TS.Kind) {
    case TraceStmt::K::Assign:
      E->P->assign(R, E->SlotArrays[TS.Lhs], toExpr(*TS.Rhs, *E));
      break;
    case TraceStmt::K::Update:
      E->P->assign(R, E->SlotArrays[TS.Lhs], TS.LhsOff, toExpr(*TS.Rhs, *E));
      break;
    case TraceStmt::K::Reduce:
      E->P->reduce(R, E->ReduceSyms[TS.Lhs], *TS.SR, toExpr(*TS.Rhs, *E));
      break;
    }
  }

  driver::PipelineOptions PO;
  PO.Parallel = Opts.Parallel;
  PO.Jit = Opts.Jit;
  PO.Verify = Opts.Verify;
  driver::Pipeline PL(*E->P, PO);
  driver::CompileStatus St =
      PL.tryCompile(driver::CompileRequest{Opts.Strat, Opts.Mode});
  if (!St.ok() || !St.Artifact) {
    // A trace the engine recorded itself should always compile; a
    // rejection here means the recorder produced an invalid program or a
    // translation-validation pass caught a real miscompile.
    reportFatalError(("runtime trace compile failed (" +
                      std::string(driver::getCompileCodeName(St.Code)) +
                      "): " + St.Message)
                         .c_str());
  }
  E->CP = std::move(St.Artifact);
  return E;
}

ir::ExprPtr EngineImpl::toExpr(const TExpr &T, const CacheEntry &E) const {
  switch (T.Kind) {
  case TExpr::K::ConstSlot:
    return ir::sref(E.ConstSyms[T.Slot]);
  case TExpr::K::InputSlot:
    return ir::sref(E.InputSyms[T.Slot]);
  case TExpr::K::ReduceSlot:
    return ir::sref(E.ReduceSyms[T.Slot]);
  case TExpr::K::Ref:
    return ir::aref(E.SlotArrays[T.Slot], T.Off);
  case TExpr::K::Un:
    return std::make_unique<ir::UnaryExpr>(T.UOp, toExpr(*T.A, E));
  case TExpr::K::Bin:
    return std::make_unique<ir::BinaryExpr>(T.BOp, toExpr(*T.A, E),
                                            toExpr(*T.B, E));
  }
  return nullptr;
}

/// Copies \p St's materialized values into \p Buf over the intersection
/// of their bounds (the rest of Buf stays zero: halo semantics).
void EngineImpl::copyIn(exec::ArrayBuffer &Buf, const ArrayState &St) const {
  const ir::Region &B = Buf.bounds();
  unsigned Rank = B.rank();
  std::vector<int64_t> Lo(Rank), Hi(Rank);
  for (unsigned D = 0; D < Rank; ++D) {
    Lo[D] = std::max(B.lo(D), St.Bounds.lo(D));
    Hi[D] = std::min(B.hi(D), St.Bounds.hi(D));
    if (Lo[D] > Hi[D])
      return; // disjoint
  }
  ir::Region Common(std::move(Lo), std::move(Hi));
  exec::countCopiedBytes(static_cast<uint64_t>(Common.size()) *
                         sizeof(double));
  ir::forEachPoint(Common, [&](const std::vector<int64_t> &At) {
    Buf.store(At, St.load(At));
  });
}

/// Adopts the executed buffer \p Buf as \p St's materialized value. When
/// St already holds data over different bounds, the two are merged over
/// the bounding box: the trace's footprint values win inside Buf, prior
/// values survive outside it — a flush over a sub-region must never
/// truncate a larger materialized array.
void EngineImpl::copyOut(ArrayState &St, const exec::ArrayBuffer &Buf) const {
  const ir::Region &B = Buf.bounds();
  exec::countCopiedBytes(Buf.raw().size() * sizeof(double));
  if (!St.Materialized || St.Bounds == B) {
    St.Materialized = true;
    St.Bounds = B;
    St.Data.assign(Buf.raw().begin(), Buf.raw().end());
    return;
  }
  unsigned Rank = B.rank();
  std::vector<int64_t> Lo(Rank), Hi(Rank);
  for (unsigned D = 0; D < Rank; ++D) {
    Lo[D] = std::min(B.lo(D), St.Bounds.lo(D));
    Hi[D] = std::max(B.hi(D), St.Bounds.hi(D));
  }
  ir::Region Union(std::move(Lo), std::move(Hi));
  std::vector<double> Merged;
  Merged.reserve(static_cast<size_t>(Union.size()));
  ir::forEachPoint(Union, [&](const std::vector<int64_t> &At) {
    bool InB = true;
    for (unsigned D = 0; D < Rank && InB; ++D)
      InB = At[D] >= B.lo(D) && At[D] <= B.hi(D);
    Merged.push_back(InB ? Buf.load(At) : St.load(At));
  });
  St.Bounds = std::move(Union);
  St.Data = std::move(Merged);
  St.Materialized = true;
}

void EngineImpl::execute(const CacheEntry &E, FlushInfo &Info) {
  const lir::LoopProgram &LP = E.CP->LP;

  // Allocate zeroed storage per the cached loop program's layout, then
  // rebind: live-in slots copy their handle's materialized values in.
  exec::Storage Store = exec::allocateZeroed(LP.storageLayout());
  for (size_t I = 0; I < Slots.size(); ++I) {
    const ArrayState &St = *Slots[I].State;
    if (!Slots[I].LiveIn || !St.Materialized)
      continue;
    if (exec::ArrayBuffer *Buf = Store.buffer(E.SlotArrays[I]))
      copyIn(*Buf, St);
  }
  for (size_t I = 0; I < ConstVals.size(); ++I)
    Store.setScalar(E.ConstSyms[I], ConstVals[I]);
  for (size_t I = 0; I < InputVals.size(); ++I)
    Store.setScalar(E.InputSyms[I], InputVals[I]);
  for (size_t I = 0; I < ReduceStates.size(); ++I)
    Store.setScalar(E.ReduceSyms[I], 0.0);

  exec::JitRunInfo JI;
  E.CP->run(Store, &JI);
  Info.UsedJit = JI.UsedJit;
  // The kernel was compiled (if at all) when this entry was built.
  Info.Compiled = !Info.CacheHit && JI.Compiled;
  if (Info.Compiled)
    ++Stats.KernelCompiles;

  // Materialize survivors and resolve reductions. Read-only slots keep
  // their handle's data untouched; written ones adopt or merge the
  // executed buffer.
  for (size_t I = 0; I < Slots.size(); ++I) {
    const ArraySlot &S = Slots[I];
    if (S.External && S.Written)
      if (const exec::ArrayBuffer *Buf = Store.buffer(E.SlotArrays[I]))
        copyOut(*S.State, *Buf);
    S.State->Slot = -1;
  }
  for (size_t I = 0; I < ReduceStates.size(); ++I) {
    ReduceStates[I]->Value = Store.getScalar(E.ReduceSyms[I]);
    ReduceStates[I]->Pending = false;
    ReduceStates[I]->ReduceSlot = -1;
  }
}

void EngineImpl::flush(FlushTrigger T) {
  if (Trace.empty())
    return;

  obs::Span FlushSpan("runtime.flush", getFlushTriggerName(T));

  for (ArraySlot &S : Slots)
    S.External = S.State.use_count() > 1;

  std::string Key = serializeKey();
  auto It = Cache.find(Key);
  bool Hit = It != Cache.end();
  if (!Hit) {
    obs::Span BuildSpan("runtime.build");
    It = Cache.emplace(std::move(Key), buildEntry()).first;
  }
  CacheEntry *E = It->second.get();
  obs::instant(Hit ? NumRuntimeCacheHits : NumRuntimeCacheMisses);

  FlushInfo Info;
  Info.TraceLen = static_cast<unsigned>(Trace.size());
  Info.Clusters = E->CP->NumClusters;
  Info.Contracted = static_cast<unsigned>(E->CP->ContractedNames.size());
  Info.CacheHit = Hit;
  Info.Trigger = T;

  execute(*E, Info);

  Slots.clear();
  Trace.clear();
  ConstVals.clear();
  InputVals.clear();
  InputStates.clear();
  InputSlotOf.clear();
  ReduceStates.clear();

  Last = Info;
  ++Stats.Flushes;
  ++NumRuntimeFlushes;
  if (Hit)
    ++Stats.CacheHits;
  else
    ++Stats.CacheMisses;
  NumRuntimeContracted += Info.Contracted;
}

//===----------------------------------------------------------------------===//
// Public handles
//===----------------------------------------------------------------------===//

const std::string &Array::name() const { return St->Name; }
const ir::Region &Array::domain() const { return St->Domain; }
bool Array::deferred() const { return St && St->Slot >= 0; }

double Array::get(const std::vector<int64_t> &At) const {
  assert(St && "get on an empty Array handle");
  if (St->Slot >= 0)
    St->E->flush(FlushTrigger::Observe);
  return St->load(At);
}

void Array::set(const std::vector<int64_t> &At, double V) {
  assert(St && "set on an empty Array handle");
  if (St->Slot >= 0)
    St->E->flush(FlushTrigger::Mutate);
  if (!St->Materialized) {
    St->Materialized = true;
    St->Bounds = St->Domain;
    St->Data.assign(static_cast<size_t>(St->Domain.size()), 0.0);
  }
  St->store(At, V);
}

void Array::setAll(const std::vector<double> &RowMajor) {
  assert(St && "setAll on an empty Array handle");
  assert(static_cast<int64_t>(RowMajor.size()) == St->Domain.size() &&
         "setAll size does not match the domain");
  if (St->Slot >= 0)
    St->E->flush(FlushTrigger::Mutate);
  if (!St->Materialized || !(St->Bounds == St->Domain)) {
    // Rehome onto exactly the domain; values outside it are dropped (they
    // are halo, observable as 0 either way).
    St->Materialized = true;
    St->Bounds = St->Domain;
    St->Data.assign(static_cast<size_t>(St->Domain.size()), 0.0);
  }
  St->Data = RowMajor;
}

std::vector<double> Array::values() const {
  assert(St && "values on an empty Array handle");
  if (St->Slot >= 0)
    St->E->flush(FlushTrigger::Observe);
  std::vector<double> Out;
  Out.reserve(static_cast<size_t>(St->Domain.size()));
  ir::forEachPoint(St->Domain, [&](const std::vector<int64_t> &At) {
    Out.push_back(St->load(At));
  });
  return Out;
}

bool Scalar::deferred() const { return St && St->Pending; }

double Scalar::value() const {
  assert(St && "value on an empty Scalar handle");
  if (St->Pending)
    St->E->flush(FlushTrigger::Observe);
  return St->Value;
}

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

const char *runtime::getFlushTriggerName(FlushTrigger T) {
  switch (T) {
  case FlushTrigger::None:
    return "none";
  case FlushTrigger::Explicit:
    return "explicit";
  case FlushTrigger::Observe:
    return "observe";
  case FlushTrigger::Mutate:
    return "mutate";
  case FlushTrigger::Cap:
    return "cap";
  case FlushTrigger::Shutdown:
    return "shutdown";
  }
  return "?";
}

Engine::Engine(EngineOptions Opts)
    : Impl(std::make_unique<EngineImpl>(std::move(Opts))) {}

Engine::~Engine() {
  // Materialize surviving handles so they stay readable past the engine.
  Impl->flush(FlushTrigger::Shutdown);
}

Array Engine::input(std::string Name, const ir::Region &Domain) {
  auto St = std::make_shared<ArrayState>();
  St->E = Impl.get();
  St->Name = std::move(Name);
  St->Domain = Domain;
  St->Materialized = true;
  St->Bounds = Domain;
  St->Data.assign(static_cast<size_t>(Domain.size()), 0.0);
  return Array(std::move(St));
}

Array Engine::compute(const ir::Region &R, const Ex &E, std::string Name) {
  return Impl->compute(R, E, std::move(Name));
}

void Engine::update(const Array &A, const ir::Offset &Off, const ir::Region &R,
                    const Ex &E) {
  Impl->update(A, Off, R, E);
}

Scalar Engine::reduce(RedOp Op, const ir::Region &R, const Ex &E) {
  return Impl->reduce(ir::ReduceStmt::canonical(Op), R, E);
}

Scalar Engine::reduce(const semiring::Semiring &SR, const ir::Region &R,
                      const Ex &E) {
  return Impl->reduce(SR, R, E);
}

void Engine::flush() { Impl->flush(FlushTrigger::Explicit); }

unsigned Engine::pending() const {
  return static_cast<unsigned>(Impl->Trace.size());
}

const FlushInfo &Engine::lastFlush() const { return Impl->Last; }
const EngineStats &Engine::stats() const { return Impl->Stats; }
const EngineOptions &Engine::options() const { return Impl->Opts; }

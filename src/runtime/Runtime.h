//===- runtime/Runtime.h - Deferred-evaluation array API -------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lazy array-programming front end over the ALF pipeline. Element-wise
/// operations, shifted references and reductions issued through an Engine
/// do not execute; each appends one normal-form statement
/// `[R] A@d0 := f(A1@d1, ..., As@ds)` to a growing trace. The trace is
/// lowered and executed ("flushed") when a value is observed (Array::get,
/// Scalar::value), when a traced array is mutated directly, when the
/// trace reaches the configured length cap, or on an explicit flush().
///
/// A flush builds an ir::Program from the trace, runs it through
/// driver::Pipeline (normalize -> ASDG -> fusion-for-contraction ->
/// scalarize) and executes the loop program against the live handles'
/// buffers with the configured executor. Whether a traced array is a
/// contractible temporary or a live-out result is decided by *handle
/// liveness*: an array still referenced outside the engine at flush time
/// is live-out; one whose every handle was dropped is a dead temporary
/// the fusion-for-contraction strategy may eliminate entirely.
///
/// Flushes are memoized by a structural trace cache keyed on the shapes,
/// offsets and operation structure of the trace — independent of buffer
/// contents and of constant values (constants are lowered to bound-late
/// parameter scalars). A steady-state loop that issues the same trace
/// shape every iteration pays analysis, scalarization and (under
/// ExecMode::NativeJit) kernel emission and compilation exactly once.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_RUNTIME_RUNTIME_H
#define ALF_RUNTIME_RUNTIME_H

#include "exec/NativeJit.h"
#include "exec/ParallelExecutor.h"
#include "ir/Expr.h"
#include "ir/Offset.h"
#include "ir/Region.h"
#include "ir/Stmt.h"
#include "verify/Verify.h"
#include "xform/Strategy.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace alf {
namespace runtime {

namespace detail {
struct ArrayState;
struct ScalarState;
struct ExNode;
class EngineImpl;
} // namespace detail

class Engine;
class Ex;

/// Reduction operators, shared with the IR.
using RedOp = ir::ReduceStmt::ReduceOpKind;

/// A handle to a (possibly still deferred) array value. Handles are
/// cheap shared references; the engine uses their liveness at flush time
/// to classify traced arrays as live-out results or contractible
/// temporaries, so drop handles you no longer need. Reads outside an
/// array's materialized bounds return 0 (the engine's halo semantics).
class Array {
public:
  Array() = default;

  bool valid() const { return St != nullptr; }
  const std::string &name() const;
  const ir::Region &domain() const;

  /// True while this array's value is only a recipe in its engine's
  /// pending trace.
  bool deferred() const;

  /// Element at absolute coordinates \p At; flushes the owning engine's
  /// trace first when this array is deferred. Out-of-bounds reads are 0.
  double get(const std::vector<int64_t> &At) const;

  /// Overwrites one element. Flushes first when this array is traced (a
  /// direct mutation would otherwise be reordered against the trace).
  void set(const std::vector<int64_t> &At, double V);

  /// Overwrites the whole domain with \p RowMajor (row-major order,
  /// size == domain().size()). Flushes first when traced.
  void setAll(const std::vector<double> &RowMajor);

  /// The domain's values in row-major order (flushes when deferred).
  std::vector<double> values() const;

private:
  friend class Engine;
  friend class Ex;
  friend class detail::EngineImpl;
  friend Ex shift(const Array &A, ir::Offset Off);
  explicit Array(std::shared_ptr<detail::ArrayState> St) : St(std::move(St)) {}

  std::shared_ptr<detail::ArrayState> St;
};

/// A handle to a (possibly still deferred) scalar, produced by
/// Engine::reduce. Referencing a deferred Scalar inside a later Ex of the
/// same trace is allowed and does not force a flush.
class Scalar {
public:
  Scalar() = default;

  bool valid() const { return St != nullptr; }

  /// True while the producing reduction is still in the pending trace.
  bool deferred() const;

  /// The reduction result; flushes the owning engine first when deferred.
  double value() const;

private:
  friend class Engine;
  friend class Ex;
  friend class detail::EngineImpl;
  explicit Scalar(std::shared_ptr<detail::ScalarState> St)
      : St(std::move(St)) {}

  std::shared_ptr<detail::ScalarState> St;
};

/// A deferred element-wise expression: a tree over array references at
/// constant offsets, scalar references and constants — exactly the
/// right-hand side the paper's normal form admits. Building an Ex never
/// computes anything.
class Ex {
public:
  Ex(double C);
  Ex(const Array &A); ///< A at the null offset.
  Ex(const Scalar &S);

  explicit Ex(std::shared_ptr<detail::ExNode> N) : N(std::move(N)) {}
  const std::shared_ptr<detail::ExNode> &node() const { return N; }

private:
  std::shared_ptr<detail::ExNode> N;
};

/// Reference to \p A shifted by constant offset \p Off (the paper's A@d).
Ex shift(const Array &A, ir::Offset Off);

Ex operator+(const Ex &L, const Ex &R);
Ex operator-(const Ex &L, const Ex &R);
Ex operator*(const Ex &L, const Ex &R);
Ex operator/(const Ex &L, const Ex &R);
Ex operator-(const Ex &E);
Ex emin(const Ex &L, const Ex &R);
Ex emax(const Ex &L, const Ex &R);
Ex eabs(const Ex &E);
Ex esqrt(const Ex &E);
Ex eexp(const Ex &E);
Ex elog(const Ex &E);
Ex esin(const Ex &E);
Ex ecos(const Ex &E);
Ex recip(const Ex &E);

/// What forced a flush.
enum class FlushTrigger { None, Explicit, Observe, Mutate, Cap, Shutdown };

/// Printable trigger name ("explicit", "observe", ...).
const char *getFlushTriggerName(FlushTrigger T);

/// What one flush did (Engine::lastFlush).
struct FlushInfo {
  unsigned TraceLen = 0;   ///< statements lowered by this flush
  unsigned Clusters = 0;   ///< fused clusters after the strategy
  unsigned Contracted = 0; ///< arrays contracted away entirely
  bool CacheHit = false;   ///< served by the structural trace cache
  bool Compiled = false;   ///< this flush invoked the kernel compiler
  bool UsedJit = false;    ///< executed as native code
  FlushTrigger Trigger = FlushTrigger::None;
};

/// Cumulative per-engine counters (process-wide counterparts are the
/// `runtime.*` obs counters).
struct EngineStats {
  uint64_t Flushes = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t StmtsRecorded = 0;
  uint64_t KernelCompiles = 0;
};

/// Configuration of one Engine.
struct EngineOptions {
  /// Optimization strategy applied to every flushed trace.
  xform::Strategy Strat = xform::Strategy::C2F3;

  /// Executor for flushed traces. NativeJit composes with the trace
  /// cache: a structurally repeated trace reruns the kernel its cached
  /// artifact already loaded, so warm flushes neither emit C nor invoke
  /// the compiler.
  xform::ExecMode Mode = xform::ExecMode::Sequential;

  /// Auto-flush when the trace reaches this many statements (0 = only
  /// explicit/observation flushes). Longer traces expose more fusion and
  /// contraction; shorter ones bound latency and memory.
  unsigned MaxTraceLen = 64;

  exec::ParallelOptions Parallel; ///< ExecMode::Parallel knobs
  exec::JitOptions Jit;           ///< ExecMode::NativeJit knobs

  /// Translation-validation level applied to every flush's pipeline (see
  /// verify::VerifyLevel). Cached traces were verified when first
  /// compiled; re-executions do not re-verify.
  verify::VerifyLevel Verify = verify::defaultVerifyLevel();
};

/// A deferred-evaluation engine: records array statements into a trace
/// and compiles/executes the trace on demand. Handles are bound to the
/// engine that created them; the engine flushes on destruction so
/// surviving handles keep their (materialized) values afterwards.
class Engine {
public:
  explicit Engine(EngineOptions Opts = EngineOptions());
  ~Engine();

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// A materialized zero-initialized array over \p Domain, for feeding
  /// input data (Array::set / Array::setAll).
  Array input(std::string Name, const ir::Region &Domain);

  /// Records `[R] T := E` with a fresh array T and returns its handle.
  Array compute(const ir::Region &R, const Ex &E, std::string Name = "");

  /// Records the in-place write `[R] A@Off := E`. Statements later in
  /// the trace (and later flushes) see the updated values.
  void update(const Array &A, const ir::Offset &Off, const ir::Region &R,
              const Ex &E);

  /// Records the full reduction `[R] s := Op<< E` and returns the
  /// deferred scalar s. The RedOp form folds with the canonical semiring
  /// of that operator; the Semiring form accepts any registered semiring
  /// and keys the kernel cache on its name.
  Scalar reduce(RedOp Op, const ir::Region &R, const Ex &E);
  Scalar reduce(const semiring::Semiring &SR, const ir::Region &R,
                const Ex &E);

  /// Compiles and executes the pending trace now.
  void flush();

  /// Number of statements recorded but not yet flushed.
  unsigned pending() const;

  const FlushInfo &lastFlush() const;
  const EngineStats &stats() const;
  const EngineOptions &options() const;

private:
  std::unique_ptr<detail::EngineImpl> Impl;
};

} // namespace runtime
} // namespace alf

#endif // ALF_RUNTIME_RUNTIME_H

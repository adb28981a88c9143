//===- obs/Obs.h - Structured tracing and kernel metrics -------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process's one metrics registry and its tracing layer. It holds
/// two kinds of rows:
///
///   counters — named static `obs::Counter` objects (ALF_COUNTER) that
///              passes, the runtime and the daemon bump as they work. A
///              bump is one relaxed atomic add: always on, no name lookup,
///              no level check. `zplc --stats` prints them.
///   spans    — lightweight RAII spans, aggregated per name into count,
///              total/p50/p95/max wall time and bytes moved.
///              Percentiles come from a fixed-size log-scale histogram,
///              so a row's memory never grows with its sample count.
///              `--metrics` prints them.
///
/// Spans are exported as Chrome `trace_event` JSON too (load the file at
/// chrome://tracing or ui.perfetto.dev). They are gated behind a single
/// global level so instrumented code pays one relaxed atomic load when
/// observability is off:
///
///   ObsLevel::Off       — spans are inert; nothing is recorded.
///   ObsLevel::Counters  — spans feed the aggregated metrics table only.
///   ObsLevel::Trace     — additionally, every span/instant becomes one
///                         Chrome trace event with thread id and nesting.
///
/// Usage:
/// \code
///   ALF_COUNTER(NumMerges, "fusion.merges", "Cluster merges performed");
///   ++NumMerges;                             // always counted
///   {
///     obs::Span S("pipeline.asdg");          // timed while in scope
///     ... build ...
///     S.setBytes(G.sizeBytes());             // optional volume
///   }
///   obs::instant(NumCacheHits);              // count, plus a trace mark
/// \endcode
///
/// Row names are dotted phase paths ("pipeline.scalarize",
/// "exec.interpreter", "kernel.nest", "runtime.flush"); the metrics
/// table aggregates by exact name, and a span's detail (the cluster id of
/// a "kernel.nest") tells its trace events apart. The default level comes from the
/// ALF_OBS environment variable ("off" | "counters" | "trace"), else
/// Off; tools expose it as `--trace=out.json` (implies Trace).
/// toJson() is the registry's one JSON rendering and reset() clears all
/// of it.
///
/// Thread behaviour: spans may open and close on any thread. Each
/// thread gets a small stable tid (registration order) and its own
/// nesting depth, so traces from the parallel executor render as
/// per-thread lanes. Recording takes a mutex at span *end* only — span
/// begin is two clock reads away from free — which is negligible at
/// phase/kernel granularity.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_OBS_OBS_H
#define ALF_OBS_OBS_H

#include "support/Json.h"

#include <atomic>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace alf {
namespace obs {

/// How much the process records. Ordered: each level includes the work
/// of the previous one.
enum class ObsLevel : int {
  Off = 0,      ///< No recording; spans cost one atomic load.
  Counters = 1, ///< Aggregated metrics only (no per-event storage).
  Trace = 2,    ///< Metrics plus the full Chrome-exportable event trace.
};

/// Printable level name ("off", "counters", "trace").
const char *getObsLevelName(ObsLevel L);

/// Parses a level name; nullopt when unknown.
std::optional<ObsLevel> obsLevelNamed(const std::string &Name);

/// The process-wide level. Defaults to $ALF_OBS (else Off), read once.
ObsLevel level();
void setLevel(ObsLevel L);

namespace detail {
extern std::atomic<int> LevelRaw; ///< -1 until initialized from $ALF_OBS.
ObsLevel levelSlow();
} // namespace detail

/// True when anything at all is being recorded.
inline bool enabled() {
  int Raw = detail::LevelRaw.load(std::memory_order_relaxed);
  if (Raw < 0)
    return detail::levelSlow() != ObsLevel::Off;
  return Raw != 0;
}

/// True when the full event trace is being recorded.
inline bool tracing() {
  int Raw = detail::LevelRaw.load(std::memory_order_relaxed);
  if (Raw < 0)
    return detail::levelSlow() == ObsLevel::Trace;
  return Raw == static_cast<int>(ObsLevel::Trace);
}

/// Restores the previous level on destruction (tests, tools).
class ScopedLevel {
  ObsLevel Saved;

public:
  explicit ScopedLevel(ObsLevel L) : Saved(level()) { setLevel(L); }
  ~ScopedLevel() { setLevel(Saved); }
  ScopedLevel(const ScopedLevel &) = delete;
  ScopedLevel &operator=(const ScopedLevel &) = delete;
};

/// Clears recorded events and metrics and zeroes every counter (not the
/// level, not thread ids).
void reset();

/// One process-wide named counter. Define it with ALF_COUNTER, at
/// namespace or function scope; it joins the registry when constructed.
/// Increments are relaxed atomics, so counters bumped from the parallel
/// executor's workers or the daemon's connection threads stay exact.
class Counter {
public:
  /// \p Name and \p Desc must have static storage duration.
  Counter(const char *Name, const char *Desc);

  Counter(const Counter &) = delete;
  Counter &operator=(const Counter &) = delete;

  Counter &operator++() {
    Value.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  Counter &operator+=(uint64_t N) {
    Value.fetch_add(N, std::memory_order_relaxed);
    return *this;
  }

  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  const char *name() const { return Name; }
  const char *desc() const { return Desc; }

private:
  friend void reset();

  const char *Name;
  const char *Desc;
  std::atomic<uint64_t> Value{0};
};

/// One RAII span: wall time from construction to destruction, attributed
/// to \p Name. \p Name must have static storage duration (pass string
/// literals); \p Detail may be dynamic and lands in the trace event's
/// args. Inert (no clock read, no allocation) when the level is Off.
class Span {
public:
  explicit Span(const char *Name);
  Span(const char *Name, std::string Detail);
  ~Span();

  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Attributes \p N bytes of data movement to this span (shows up in
  /// the metrics table's bytes column and the trace event args).
  void setBytes(uint64_t N) { Bytes = N; }
  void addBytes(uint64_t N) { Bytes += N; }

  bool active() const { return Active; }

private:
  const char *Name = nullptr;
  std::string Detail;
  uint64_t StartNs = 0;
  uint64_t Bytes = 0;
  bool Active = false;
  bool WantTrace = false;
};

/// Bumps \p C and, at Trace, also records a zero-duration `ph:"i"` trace
/// event named after it: the one call site for an event that is both
/// counted and worth seeing on the timeline (cache hits, fallbacks).
void instant(Counter &C, std::string Detail = std::string());

/// One recorded trace event, exposed for tests. Times are nanoseconds
/// since the process's trace epoch.
struct TraceEvent {
  const char *Name;
  std::string Detail;
  char Ph;          ///< 'X' complete span, 'i' instant.
  uint64_t StartNs; ///< begin (or instant) time
  uint64_t DurNs;   ///< 0 for instants
  uint64_t Bytes;
  unsigned Tid;   ///< small stable per-thread id (registration order)
  unsigned Depth; ///< span nesting depth on that thread at begin
};

/// Snapshot of the recorded events, in completion order.
std::vector<TraceEvent> traceEvents();
size_t numTraceEvents();

/// Events dropped because the trace buffer hit its cap (the metrics
/// table keeps aggregating regardless).
uint64_t numDroppedEvents();

/// One registry row: a counter (Count is its value, the rest zero) or
/// the aggregate of a span name. P50Ns and P95Ns come from the
/// row's log-scale histogram: within 1/8 relative error of the exact
/// nearest-rank percentile, and never above MaxNs.
struct MetricRow {
  std::string Name;
  bool IsCounter = false;
  uint64_t Count = 0;
  uint64_t TotalNs = 0;
  uint64_t P50Ns = 0;
  uint64_t P95Ns = 0;
  uint64_t MaxNs = 0;
  uint64_t Bytes = 0;
};

/// All span rows, sorted by name (deterministic across runs).
std::vector<MetricRow> metricsTable();

/// The span row of \p Name, else its counter row (counters
/// sharing a name are summed); nullopt when neither exists.
std::optional<MetricRow> metricsFor(const std::string &Name);

/// The value of the counter(s) named \p Name; 0 when none is registered.
uint64_t counterValue(const std::string &Name);

/// Units toJson() writes span times in.
enum class TimeUnit { Ns, Us };

/// The registry's one JSON rendering of a row. A counter renders as its
/// value; a span row as {"count", "total_<unit>", "p50_<unit>",
/// "p95_<unit>", "max_<unit>", "bytes"} with times in \p Unit.
json::Value toJson(const MetricRow &Row, TimeUnit Unit);

/// Writes the span table as aligned text (tools' --metrics output).
void writeMetricsTable(std::ostream &OS);

/// Writes every nonzero counter as aligned text in name order (the
/// order is a contract, so reports diff cleanly; zplc --stats output).
void writeCounterTable(std::ostream &OS);

/// Writes the whole trace in Chrome trace_event JSON object format:
/// `{"displayTimeUnit":"ms","traceEvents":[...]}`, each event carrying
/// name/cat/ph/ts/dur/pid/tid (ts and dur in microseconds) plus
/// args.{detail,bytes,depth} when present. Loadable by chrome://tracing
/// and Perfetto as-is.
void writeChromeTrace(std::ostream &OS);

/// writeChromeTrace into \p Path; false (with no partial file kept) on
/// I/O failure.
bool writeChromeTraceFile(const std::string &Path);

} // namespace obs
} // namespace alf

/// Defines a static obs::Counter \p VAR named \p NAME.
#define ALF_COUNTER(VAR, NAME, DESC)                                        \
  static ::alf::obs::Counter VAR(NAME, DESC)

#endif // ALF_OBS_OBS_H

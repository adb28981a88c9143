//===- obs/Obs.cpp - Structured tracing and kernel metrics ------------------===//

#include "obs/Obs.h"

#include "support/StringUtil.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <unordered_map>

using namespace alf;
using namespace alf::obs;

namespace {

/// Upper bound on stored trace events; phase/kernel granularity stays
/// far below this, but a runaway caller must not exhaust memory. Beyond
/// the cap events are dropped (and counted); metrics keep aggregating.
constexpr size_t MaxEvents = 1 << 20;

/// Log-scale duration histogram of fixed size (about 4 KiB): exact below
/// 16 ns, then 8 equal sub-buckets per power of two. A bucket is at most
/// 1/8 of its lower bound wide, so its midpoint is within 1/16 of every
/// value that lands in it.
class Histogram {
  static constexpr unsigned SubBits = 3;
  static constexpr unsigned Sub = 1u << SubBits;
  static constexpr unsigned Exact = 2 * Sub;
  static constexpr unsigned NumBuckets = Exact + (64 - SubBits - 1) * Sub;

  std::array<uint64_t, NumBuckets> Buckets{};

  static unsigned bucketOf(uint64_t V) {
    if (V < Exact)
      return static_cast<unsigned>(V);
    unsigned E = 63 - static_cast<unsigned>(__builtin_clzll(V));
    unsigned Low = static_cast<unsigned>(V >> (E - SubBits)) & (Sub - 1);
    return Exact + (E - SubBits - 1) * Sub + Low;
  }

  static uint64_t midpointOf(unsigned B) {
    if (B < Exact)
      return B;
    unsigned E = (B - Exact) / Sub + SubBits + 1;
    uint64_t Width = uint64_t(1) << (E - SubBits);
    return (Sub + (B - Exact) % Sub) * Width + Width / 2;
  }

public:
  void add(uint64_t V) { ++Buckets[bucketOf(V)]; }

  /// Nearest-rank percentile \p P of \p Count samples, clamped to the
  /// samples' range [\p Min, \p Max] (so a one-sample row is exact).
  uint64_t percentile(double P, uint64_t Count, uint64_t Min,
                      uint64_t Max) const {
    if (Count == 0)
      return 0;
    uint64_t Rank = std::min(static_cast<uint64_t>(P * Count), Count - 1);
    uint64_t Seen = 0;
    for (unsigned B = 0; B < NumBuckets; ++B) {
      Seen += Buckets[B];
      if (Seen > Rank)
        return std::clamp(midpointOf(B), Min, Max);
    }
    return Max;
  }
};

/// Per-name aggregation of spans.
struct Agg {
  uint64_t Count = 0;
  uint64_t TotalNs = 0;
  uint64_t MinNs = UINT64_MAX;
  uint64_t MaxNs = 0;
  uint64_t Bytes = 0;
  Histogram Hist;
};

struct Registry {
  std::mutex Mutex;
  std::vector<TraceEvent> Events;
  uint64_t Dropped = 0;
  std::map<std::string, Agg> Metrics;
  /// Row of each name literal seen, so recording never builds a string.
  std::unordered_map<const char *, Agg *> RowOf;
  std::vector<Counter *> Counters;
  unsigned NextTid = 0;
};

Registry &registry() {
  static Registry R;
  return R;
}

std::chrono::steady_clock::time_point traceEpoch() {
  static const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  return Epoch;
}

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - traceEpoch())
          .count());
}

struct ThreadState {
  unsigned Tid = ~0u;
  unsigned Depth = 0;
};

ThreadState &threadState() {
  thread_local ThreadState TS;
  if (TS.Tid == ~0u) {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mutex);
    TS.Tid = R.NextTid++;
  }
  return TS;
}

/// Appends one trace event; the caller holds the registry mutex.
void appendEvent(Registry &R, const char *Name, std::string &&Detail,
                 char Ph, uint64_t StartNs, uint64_t DurNs, uint64_t Bytes,
                 const ThreadState &TS) {
  if (R.Events.size() >= MaxEvents) {
    ++R.Dropped;
    return;
  }
  R.Events.push_back(TraceEvent{Name, std::move(Detail), Ph, StartNs, DurNs,
                                Bytes, TS.Tid, TS.Depth});
}

/// Records one finished span: always into its metrics row, into the
/// event buffer only when \p WantTrace.
void record(const char *Name, std::string &&Detail, uint64_t StartNs,
            uint64_t DurNs, uint64_t Bytes, const ThreadState &TS,
            bool WantTrace) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  Agg *&A = R.RowOf[Name];
  if (!A)
    A = &R.Metrics[Name];
  ++A->Count;
  A->TotalNs += DurNs;
  A->MinNs = std::min(A->MinNs, DurNs);
  A->MaxNs = std::max(A->MaxNs, DurNs);
  A->Bytes += Bytes;
  A->Hist.add(DurNs);
  if (WantTrace)
    appendEvent(R, Name, std::move(Detail), 'X', StartNs, DurNs, Bytes, TS);
}

MetricRow rowOf(const std::string &Name, const Agg &A) {
  MetricRow Row;
  Row.Name = Name;
  Row.Count = A.Count;
  Row.TotalNs = A.TotalNs;
  Row.MaxNs = A.MaxNs;
  Row.Bytes = A.Bytes;
  Row.P50Ns = A.Hist.percentile(0.50, A.Count, A.MinNs, A.MaxNs);
  Row.P95Ns = A.Hist.percentile(0.95, A.Count, A.MinNs, A.MaxNs);
  return Row;
}

} // namespace

std::atomic<int> obs::detail::LevelRaw{-1};

ObsLevel obs::detail::levelSlow() {
  // First query: seed from $ALF_OBS. Races here are benign (every racer
  // computes the same value).
  ObsLevel L = ObsLevel::Off;
  if (const char *Env = std::getenv("ALF_OBS"))
    if (std::optional<ObsLevel> Parsed = obsLevelNamed(Env))
      L = *Parsed;
  int Expected = -1;
  LevelRaw.compare_exchange_strong(Expected, static_cast<int>(L),
                                   std::memory_order_relaxed);
  return static_cast<ObsLevel>(LevelRaw.load(std::memory_order_relaxed));
}

const char *obs::getObsLevelName(ObsLevel L) {
  switch (L) {
  case ObsLevel::Off:
    return "off";
  case ObsLevel::Counters:
    return "counters";
  case ObsLevel::Trace:
    return "trace";
  }
  return "?";
}

std::optional<ObsLevel> obs::obsLevelNamed(const std::string &Name) {
  if (Name == "off")
    return ObsLevel::Off;
  if (Name == "counters")
    return ObsLevel::Counters;
  if (Name == "trace")
    return ObsLevel::Trace;
  return std::nullopt;
}

ObsLevel obs::level() {
  int Raw = detail::LevelRaw.load(std::memory_order_relaxed);
  if (Raw < 0)
    return detail::levelSlow();
  return static_cast<ObsLevel>(Raw);
}

void obs::setLevel(ObsLevel L) {
  detail::LevelRaw.store(static_cast<int>(L), std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Counters, spans and instants
//===----------------------------------------------------------------------===//

Counter::Counter(const char *InName, const char *InDesc)
    : Name(InName), Desc(InDesc) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Counters.push_back(this);
}

Span::Span(const char *Name) : Name(Name) {
  if (!obs::enabled())
    return;
  Active = true;
  WantTrace = obs::tracing();
  StartNs = nowNs();
  ++threadState().Depth;
}

Span::Span(const char *Name, std::string InDetail) : Span(Name) {
  if (Active)
    Detail = std::move(InDetail);
}

Span::~Span() {
  if (!Active)
    return;
  uint64_t EndNs = nowNs();
  ThreadState &TS = threadState();
  --TS.Depth;
  record(Name, std::move(Detail), StartNs, EndNs - StartNs, Bytes, TS,
         WantTrace);
}

void obs::instant(Counter &C, std::string Detail) {
  ++C;
  if (!tracing())
    return;
  uint64_t Now = nowNs();
  const ThreadState &TS = threadState();
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  appendEvent(R, C.name(), std::move(Detail), 'i', Now, 0, 0, TS);
}

//===----------------------------------------------------------------------===//
// Queries and export
//===----------------------------------------------------------------------===//

std::vector<TraceEvent> obs::traceEvents() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  return R.Events;
}

size_t obs::numTraceEvents() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  return R.Events.size();
}

uint64_t obs::numDroppedEvents() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  return R.Dropped;
}

std::vector<MetricRow> obs::metricsTable() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  std::vector<MetricRow> Rows;
  Rows.reserve(R.Metrics.size());
  // std::map iteration is name-sorted, which is the contract.
  for (const auto &[Name, A] : R.Metrics)
    Rows.push_back(rowOf(Name, A));
  return Rows;
}

std::optional<MetricRow> obs::metricsFor(const std::string &Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  auto It = R.Metrics.find(Name);
  if (It != R.Metrics.end())
    return rowOf(Name, It->second);
  std::optional<MetricRow> Row;
  for (const Counter *C : R.Counters) {
    if (Name != C->name())
      continue;
    if (!Row) {
      Row.emplace();
      Row->Name = Name;
      Row->IsCounter = true;
    }
    Row->Count += C->value();
  }
  return Row;
}

uint64_t obs::counterValue(const std::string &Name) {
  std::optional<MetricRow> Row = metricsFor(Name);
  return Row && Row->IsCounter ? Row->Count : 0;
}

json::Value obs::toJson(const MetricRow &Row, TimeUnit Unit) {
  auto Num = [](uint64_t N) {
    return json::Value::number(static_cast<double>(N));
  };
  if (Row.IsCounter)
    return Num(Row.Count);
  bool Us = Unit == TimeUnit::Us;
  auto Time = [&](uint64_t Ns) {
    return json::Value::number(static_cast<double>(Ns) / (Us ? 1e3 : 1.0));
  };
  std::string Suffix = Us ? "_us" : "_ns";
  json::Value V = json::Value::object();
  V.set("count", Num(Row.Count));
  V.set("total" + Suffix, Time(Row.TotalNs));
  V.set("p50" + Suffix, Time(Row.P50Ns));
  V.set("p95" + Suffix, Time(Row.P95Ns));
  V.set("max" + Suffix, Time(Row.MaxNs));
  V.set("bytes", Num(Row.Bytes));
  return V;
}

void obs::writeMetricsTable(std::ostream &OS) {
  std::vector<MetricRow> Rows = metricsTable();
  OS << "=== Observability metrics ===\n";
  OS << formatString("%-28s %8s %12s %12s %12s %12s\n", "span", "count",
                     "total_us", "p50_us", "p95_us", "bytes");
  for (const MetricRow &Row : Rows)
    OS << formatString("%-28s %8llu %12.1f %12.1f %12.1f %12llu\n",
                       Row.Name.c_str(),
                       static_cast<unsigned long long>(Row.Count),
                       static_cast<double>(Row.TotalNs) / 1e3,
                       static_cast<double>(Row.P50Ns) / 1e3,
                       static_cast<double>(Row.P95Ns) / 1e3,
                       static_cast<unsigned long long>(Row.Bytes));
}

void obs::writeCounterTable(std::ostream &OS) {
  std::vector<const Counter *> Sorted;
  {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mutex);
    Sorted.assign(R.Counters.begin(), R.Counters.end());
  }
  std::sort(Sorted.begin(), Sorted.end(),
            [](const Counter *L, const Counter *R) {
              return std::strcmp(L->name(), R->name()) < 0;
            });
  OS << "=== Counters ===\n";
  for (const Counter *C : Sorted)
    if (C->value())
      OS << formatString("%8llu %-36s %s\n",
                         static_cast<unsigned long long>(C->value()),
                         C->name(), C->desc());
}

void obs::writeChromeTrace(std::ostream &OS) {
  std::vector<TraceEvent> Events = traceEvents();
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  for (const TraceEvent &E : Events) {
    if (!First)
      OS << ',';
    First = false;
    // Chrome wants ts/dur in microseconds; fractional keeps ns fidelity.
    OS << formatString("\n{\"name\":\"%s\",\"cat\":\"alf\",\"ph\":\"%c\","
                       "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                       json::escapeString(E.Name).c_str(), E.Ph,
                       static_cast<double>(E.StartNs) / 1e3,
                       static_cast<double>(E.DurNs) / 1e3, E.Tid);
    if (E.Ph == 'i')
      OS << ",\"s\":\"t\""; // instant scope: thread
    OS << formatString(",\"args\":{\"depth\":%u", E.Depth);
    if (E.Bytes)
      OS << formatString(",\"bytes\":%llu",
                         static_cast<unsigned long long>(E.Bytes));
    if (!E.Detail.empty())
      OS << ",\"detail\":\"" << json::escapeString(E.Detail) << '"';
    OS << "}}";
  }
  OS << "\n]}\n";
}

bool obs::writeChromeTraceFile(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  writeChromeTrace(Out);
  Out.flush();
  if (!Out) {
    std::remove(Path.c_str());
    return false;
  }
  return true;
}

void obs::reset() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Events.clear();
  R.Dropped = 0;
  R.RowOf.clear();
  R.Metrics.clear();
  for (Counter *C : R.Counters)
    C->Value.store(0, std::memory_order_relaxed);
}

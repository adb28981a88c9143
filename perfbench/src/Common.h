//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the ALF benchmark shares: the run options, the
/// report that collects metrics, deterministic counts and failures, small
/// statistics helpers, and the private working directory each run owns.
///
/// A workload computes all its metrics in every run and tags each one as
/// end-to-end (printed by an untraced run) or per-layer (printed by a
/// traced run). Every workload reports the same end-to-end metrics, each
/// over its own kind of operation. Per-layer times are reported as shares
/// of the traced time, so a layer a workload never calls reads 0 there.
/// Deterministic counts are reported in both, so run.py can compare them
/// across any two runs of the same code and seed.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string RepoRoot = "."; ///< where examples/*.zpl live
};

/// Seconds on the monotonic clock.
inline double nowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Adds the lifetime of the object to a running total: checking work
/// inside a timed loop is subtracted from the loop's wall time.
class CheckTimer {
public:
  explicit CheckTimer(double &Total) : Total(Total), Start(nowSec()) {}
  ~CheckTimer() { Total += nowSec() - Start; }

  CheckTimer(const CheckTimer &) = delete;
  CheckTimer &operator=(const CheckTimer &) = delete;

private:
  double &Total;
  double Start;
};

/// splitmix64 finalizer: derives independent seeds from (seed, salt).
uint64_t mixSeed(uint64_t Seed, uint64_t Salt);

/// The outcome of one run.
class Report {
public:
  explicit Report(bool Trace) : Trace(Trace) {}

  /// An end-to-end metric (printed when the run is untraced).
  void e2e(const std::string &Name, double Value, const std::string &Unit);
  /// A per-layer metric (printed when the run is traced).
  void layer(const std::string &Name, double Value, const std::string &Unit);
  /// Records a value that must repeat exactly for the same code and seed.
  void mustRepeat(const std::string &Name, double Value);
  /// A per-layer count that must repeat exactly for the same code and seed.
  void count(const std::string &Name, double Value) {
    layer(Name, Value, "count");
    mustRepeat(Name, Value);
  }

  /// Operations attempted (each a compile, a kernel run, a request or a
  /// solver step).
  void attempted(uint64_t N = 1) { Attempted += N; }
  /// One operation failed, was refused, or returned a wrong result.
  void fail(const std::string &Why);
  /// A check not tied to one operation failed (e.g. a count drifted
  /// between passes); the run is then not correct.
  void problem(const std::string &Why);

  /// Share of attempted operations that succeeded (1 when none failed).
  double okFrac() const {
    return Attempted ? 1.0 - static_cast<double>(Failed) / Attempted : 0.0;
  }

  /// The run's result as one JSON line: correct, attempted, failed,
  /// metrics, plus the deterministic counts and the first diagnostics.
  std::string toJsonLine() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  bool Trace;
  std::vector<Metric> EndToEnd, PerLayer;
  std::vector<std::pair<std::string, double>> Counts;
  std::vector<std::string> Diagnostics;
  uint64_t Attempted = 0, Failed = 0;
  bool Correct = true;
};

double median(std::vector<double> V);
/// Nearest-rank percentile, \p P in [0, 1].
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);

/// Resident-memory high-water mark of this process, in MiB.
double peakRssMb();

/// Reports the end-to-end metrics every workload shares. \p ClassSec holds,
/// for each class of operation (program x strategy, program, request kind,
/// or the one class of solver steps), the latency of every untraced timed
/// operation of that class. \p BusySec is the timed wall time those
/// operations took, checks excluded. \p TailP is the percentile reported
/// as op_tail_ms, chosen per workload so that at least ten samples lie
/// beyond it.
///
/// There is no pooled median: the classes' latencies lie apart (36
/// equally frequent compiles, or jit beside sequential requests), so the
/// median of all operations falls in the gap between two classes and is
/// set by their extreme samples. op_geomean_ms reports each class's
/// median instead.
void reportEndToEnd(Report &R, double SetupSec, double PeakRss,
                    const std::vector<std::vector<double>> &ClassSec,
                    double BusySec, double TailP);

/// Sum of \p V.
double sum(const std::vector<double> &V);

/// Whole contents of \p Path; empty when unreadable.
std::string readFile(const std::string &Path);

/// A fresh directory under the current directory, removed (with its
/// contents) on destruction. Each run works inside its own, so JIT kernel
/// caches and sockets never leak from one run into the next.
class PrivateDir {
public:
  explicit PrivateDir(const std::string &Name);
  ~PrivateDir();

  PrivateDir(const PrivateDir &) = delete;
  PrivateDir &operator=(const PrivateDir &) = delete;

  /// Absolute path.
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// How many times each workload sets itself up; setup_s is the median.
constexpr unsigned SetupReps = 5;

/// Returns the memory the allocator holds free to the system, so set-ups
/// that were discarded leave nothing resident behind them.
void releaseFreeMemory();

/// Runs \p Make (returning a std::unique_ptr to a workload's set-up
/// state) SetupReps times, each from scratch, and keeps the last state.
/// \p MedianSec gets the median set-up time.
template <typename MakeFn>
auto repeatSetup(MakeFn &&Make, double &MedianSec) -> decltype(Make(0u)) {
  std::vector<double> Times;
  decltype(Make(0u)) Last;
  for (unsigned K = 0; K < SetupReps; ++K) {
    Last.reset();
    double T0 = nowSec();
    Last = Make(K);
    Times.push_back(nowSec() - T0);
  }
  MedianSec = median(Times);
  // Whether the discarded set-ups' freed memory stays resident depends on
  // which allocator arenas their threads used; without this, peak_rss_mb
  // on serve took one of two values 4 MiB apart.
  releaseFreeMemory();
  return Last;
}

/// Entry points of the four workloads.
void runCompileWorkload(const Options &Opts, Report &R);
void runKernelsWorkload(const Options &Opts, Report &R);
void runServeWorkload(const Options &Opts, Report &R);
void runRuntimeWorkload(const Options &Opts, Report &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H

//===- perfbench/src/RuntimeWorkload.cpp - The runtime workload -------------===//
//
// A runtime::Engine Jacobi solver under ExecMode::NativeJit on a 64 x 64
// grid (plus a fixed halo). Each step records the stencil update and a
// contractible residual temporary, then observes max << abs(residual),
// which flushes the trace. The grid starts from seeded values and its
// halo never changes, so the solution converges to a nonzero field and no
// value turns subnormal. Per-flush engine work (record, trace key, cache
// lookup, C re-emission) sets the step time, not the kernel.
//
// A traced run alternates blocks of untraced steps with blocks of traced
// steps, which time the recording calls and the observing flush
// separately.
//
// Check (after the timed region): the residual of every step and the
// final grid equal a plain C++ Jacobi loop over the same initial grid.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "runtime/Runtime.h"
#include "support/Random.h"

#include <cmath>
#include <cstring>

using namespace alf;
using namespace alf::runtime;
using namespace perfbench;

namespace {

constexpr int64_t N = 64;      ///< interior extent per dimension
constexpr int64_t W = N + 2;   ///< with the halo
constexpr unsigned Block = 256; ///< steps per traced/untraced block

struct RuntimeState {
  std::unique_ptr<PrivateDir> Dir;
  std::unique_ptr<Engine> E;
  Array U;
  std::vector<double> Init;      ///< W x W row-major
  std::vector<double> Residuals; ///< one per step taken
};

const ir::Region &interior() {
  static const ir::Region R({1, 1}, {N, N});
  return R;
}

/// One solver step; returns the residual. \p RecordSec / \p FlushSec get
/// the two halves when non-null.
double step(Engine &E, Array &U, double *RecordSec, double *FlushSec) {
  double T0 = RecordSec ? nowSec() : 0;
  Scalar Res;
  {
    Array V = E.compute(interior(), (shift(U, ir::Offset({-1, 0})) +
                                     shift(U, ir::Offset({1, 0})) +
                                     shift(U, ir::Offset({0, -1})) +
                                     shift(U, ir::Offset({0, 1}))) *
                                        Ex(0.25));
    Array D = E.compute(interior(), eabs(Ex(V) - Ex(U)));
    Res = E.reduce(RedOp::Max, interior(), Ex(D));
    E.update(U, ir::Offset({0, 0}), interior(), Ex(V));
  }
  double T1 = RecordSec ? nowSec() : 0;
  double R = Res.value();
  if (RecordSec) {
    *RecordSec = T1 - T0;
    *FlushSec = nowSec() - T1;
  }
  return R;
}

/// A fresh engine with a private kernel cache, seeded grid, and the first
/// step taken (the one flush that compiles).
std::unique_ptr<RuntimeState> setUp(unsigned Rep, uint64_t Seed) {
  auto S = std::make_unique<RuntimeState>();
  S->Dir = std::make_unique<PrivateDir>("runtime-cache-" + std::to_string(Rep));
  EngineOptions EO;
  EO.Strat = xform::Strategy::C2F3;
  EO.Mode = xform::ExecMode::NativeJit;
  EO.Jit.CacheDir = S->Dir->path();
  EO.Verify = verify::VerifyLevel::Structural;
  S->E = std::make_unique<Engine>(EO);
  S->U = S->E->input("U", ir::Region({0, 0}, {N + 1, N + 1}));
  S->Init.resize(W * W);
  SplitMix64 Rng(Seed);
  for (double &V : S->Init)
    V = Rng.nextDouble();
  S->U.setAll(S->Init);
  S->Residuals.push_back(step(*S->E, S->U, nullptr, nullptr));
  return S;
}

/// The same iteration as plain loops. Operation order matches the
/// recorded expression, so results must agree bit for bit.
std::vector<double> referenceRun(std::vector<double> U, size_t Steps,
                                 std::vector<double> &Residuals) {
  std::vector<double> V(U.size());
  for (size_t S = 0; S < Steps; ++S) {
    double Max = 0;
    for (int64_t I = 1; I <= N; ++I)
      for (int64_t J = 1; J <= N; ++J) {
        double X = (U[(I - 1) * W + J] + U[(I + 1) * W + J] +
                    U[I * W + J - 1] + U[I * W + J + 1]) *
                   0.25;
        V[I * W + J] = X;
        Max = std::max(Max, std::fabs(X - U[I * W + J]));
      }
    for (int64_t I = 1; I <= N; ++I)
      for (int64_t J = 1; J <= N; ++J)
        U[I * W + J] = V[I * W + J];
    Residuals.push_back(Max);
  }
  return U;
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

} // namespace

void perfbench::runRuntimeWorkload(const Options &Opts, Report &R) {
  double SetupSec = 0;
  std::unique_ptr<RuntimeState> S = repeatSetup(
      [&](unsigned Rep) { return setUp(Rep, mixSeed(Opts.Seed, 0)); },
      SetupSec);

  std::vector<double> StepUs, TracedStepUs, RecordUs, FlushUs;
  double Deadline = nowSec() + Opts.Seconds;
  for (unsigned B = 0;; ++B) {
    bool IsTraced = Opts.Trace && B % 2 == 1;
    for (unsigned I = 0; I < Block; ++I) {
      double Rec = 0, Flush = 0;
      double T0 = nowSec();
      S->Residuals.push_back(step(*S->E, S->U, IsTraced ? &Rec : nullptr,
                                  IsTraced ? &Flush : nullptr));
      double Us = (nowSec() - T0) * 1e6;
      if (IsTraced) {
        TracedStepUs.push_back(Us);
        RecordUs.push_back(Rec * 1e6);
        FlushUs.push_back(Flush * 1e6);
      } else {
        StepUs.push_back(Us);
      }
    }
    if (nowSec() >= Deadline && (!Opts.Trace || B >= 1))
      break;
  }
  double PeakRss = peakRssMb();
  EngineStats Stats = S->E->stats();
  std::vector<double> Final = S->U.values();

  // Check against the plain loop: the timed steps plus the set-up step.
  std::vector<double> RefResiduals;
  std::vector<double> RefFinal =
      referenceRun(S->Init, S->Residuals.size(), RefResiduals);
  R.attempted(S->Residuals.size());
  for (size_t I = 0; I < S->Residuals.size(); ++I)
    if (!sameBits(S->Residuals[I], RefResiduals[I]))
      R.fail("step " + std::to_string(I) + ": residual differs from the "
             "plain loop");
  if (Final.size() != RefFinal.size())
    R.problem("final grid has the wrong size");
  else
    for (size_t I = 0; I < Final.size(); ++I)
      if (!sameBits(Final[I], RefFinal[I])) {
        R.problem("final grid differs from the plain loop at element " +
                  std::to_string(I));
        break;
      }
  if (Stats.KernelCompiles != 1)
    R.problem("expected exactly one kernel compile, saw " +
              std::to_string(Stats.KernelCompiles));
  if (!S->E->lastFlush().UsedJit)
    R.problem("the last flush did not run native code");

  double Flushes = static_cast<double>(Stats.Flushes);
  double StmtsPerFlush = static_cast<double>(Stats.StmtsRecorded) / Flushes;
  // End-to-end: one operation is one solver step, the only class.
  std::vector<double> StepSec;
  for (double Us : StepUs)
    StepSec.push_back(Us / 1e6);
  reportEndToEnd(R, SetupSec, PeakRss, {StepSec}, sum(StepSec), 0.99);

  // Per-layer: the recording calls' and the flush's share of traced steps.
  double TracedUs = sum(TracedStepUs);
  R.layer("runtime.record_frac", sum(RecordUs) / TracedUs, "frac");
  R.layer("runtime.flush_frac", sum(FlushUs) / TracedUs, "frac");
  R.layer("trace.unattributed_frac",
          1 - (sum(RecordUs) + sum(FlushUs)) / TracedUs, "frac");
  R.layer("runtime.cache_hit_ratio",
          static_cast<double>(Stats.CacheHits) / Flushes, "frac");
  R.count("runtime.kernel_compiles", static_cast<double>(Stats.KernelCompiles));
  R.count("runtime.stmts_per_flush", StmtsPerFlush);
  R.layer("trace.overhead_frac", median(TracedStepUs) / median(StepUs) - 1,
          "frac");
}

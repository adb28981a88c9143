//===- perfbench/src/ServeWorkload.cpp - The serve workload -----------------===//
//
// An in-process serve::Server (default options: 2 compile threads) on a
// Unix socket in the run's private directory, driven by 3 closed-loop
// client connections, because alfd callers each wait for their reply.
//
// The pool is the three examples/*.zpl sources plus 8 generated
// Jacobi-like programs with seed-varied extents from 24 to 63. Set-up
// pre-warms the pool with `execute` for each (program, exec) pair, so the
// JIT kernels are compiled before the timed region. Traffic:
//  - warm: `execute` of a pool program, split evenly between the
//    `sequential` and `jit` exec modes (about 94% of requests here);
//  - cold: `execute` of a never-seen generated program (extent 24 to 64)
//    under `sequential`, which takes the compile-queue and cache-insert
//    path;
//  - reject: a program with a syntax error that must answer `parse`,
//    which exercises the negative cache.
// Cold and reject requests are issued on a fixed schedule (a set number
// per second of the run, spread evenly over it), so how many there are,
// and hence the cache misses, depends only on the run length.
//
// A traced run alternates half-second slices in which the clients keep
// per-class latencies with slices in which they keep only the total.
//
// Check (after the timed region): every response equals the in-process
// interpreter's values for the same (program, seed) under the Baseline
// strategy; warm requests hit the cache, cold ones miss, rejects answer
// `parse`, and no JIT compile runs in the timed region.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "driver/Pipeline.h"
#include "exec/Interpreter.h"
#include "frontend/Parser.h"
#include "obs/Obs.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Random.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <thread>

using namespace alf;
using namespace perfbench;

namespace {

constexpr unsigned NumClients = 3;
constexpr unsigned NumGenerated = 8;
constexpr unsigned NumRequestSeeds = 4;
constexpr double ColdPerSec = 64;
constexpr double RejectPerSec = 12;
constexpr double SliceSec = 0.5;

const char *const ExecNames[2] = {"sequential", "jit"};

/// A Jacobi-like smoothing fragment with a contractible temporary and a
/// scalar reduction.
std::string jacobiLike(unsigned Extent, const char *Coef) {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "region R : [1..%u, 1..%u];\n"
                "array U, V : R;\n"
                "array T : R temp;\n"
                "scalar s;\n"
                "[R] T := (U@(-1,0) + U@(1,0) + U@(0,-1) + U@(0,1)) * %s - U;\n"
                "[R] V := U + T * 0.8;\n"
                "[R] s := + << abs(T);\n",
                Extent, Extent, Coef);
  return Buf;
}


/// Programs with syntax errors; each must be answered with `parse`.
const char *const BadPrograms[] = {
    "region R : [1..8, 1..8;\narray U : R;\n[R] U := 1;\n",
    "region R : [1..8];\narray U, V : R;\n[R] V = U + 1;\n",
    "region R : [1..8];\narray U : R;\n[R U := 2;\n",
    "region R : [1..8];\narray U : R\n[R] U := U@(1) +;\n",
};
constexpr unsigned NumBad = sizeof(BadPrograms) / sizeof(BadPrograms[0]);

struct ServeInputs {
  std::vector<std::string> Pool; ///< warm programs
  std::vector<std::string> Cold; ///< one per cold request
  uint64_t RequestSeeds[NumRequestSeeds];
  unsigned NumReject = 0;
};

ServeInputs makeInputs(const Options &Opts, Report &R) {
  ServeInputs In;
  for (const char *File : {"ep", "jacobi", "shortest_paths"}) {
    std::string Text =
        readFile(Opts.RepoRoot + "/examples/" + File + ".zpl");
    if (Text.empty())
      R.problem(std::string("cannot read examples/") + File + ".zpl");
    In.Pool.push_back(Text);
  }
  // One pool program per 5-wide band of 24..63, at a seeded offset in
  // the band: the extents vary with the seed but the pool's total work
  // barely does.
  SplitMix64 Rng(mixSeed(Opts.Seed, 1));
  for (unsigned I = 0; I < NumGenerated; ++I) {
    char Coef[16];
    std::snprintf(Coef, sizeof(Coef), "%.2f", 0.20 + 0.01 * I);
    unsigned Extent = 24 + 5 * I + static_cast<unsigned>(Rng.nextBounded(5));
    In.Pool.push_back(jacobiLike(Extent, Coef));
  }
  // Cold coefficients have six decimals, so no cold text equals a pool
  // text or another cold text.
  unsigned NumCold = static_cast<unsigned>(ColdPerSec * Opts.Seconds + 0.5);
  for (unsigned J = 0; J < NumCold; ++J) {
    char Coef[16];
    std::snprintf(Coef, sizeof(Coef), "%.6f", 0.3 + 1e-6 * (J + 1));
    In.Cold.push_back(
        jacobiLike(24 + static_cast<unsigned>(Rng.nextBounded(41)), Coef));
  }
  In.NumReject = static_cast<unsigned>(RejectPerSec * Opts.Seconds + 0.5);
  // Seeds travel as JSON numbers (doubles): keep them below 2^53.
  for (unsigned K = 0; K < NumRequestSeeds; ++K)
    In.RequestSeeds[K] = mixSeed(Opts.Seed, 10 + K) >> 12;
  return In;
}

struct ServeState {
  std::unique_ptr<PrivateDir> Dir;
  std::unique_ptr<serve::Server> Srv;
  std::string Socket;
};

/// Starts a server with a private JIT cache and socket, then pre-warms
/// every (pool program, exec) pair with an execute.
std::unique_ptr<ServeState> setUp(unsigned Rep, const ServeInputs &In,
                                  Report &R) {
  auto S = std::make_unique<ServeState>();
  S->Dir = std::make_unique<PrivateDir>("serve-cache-" + std::to_string(Rep));
  // Relative to the run directory: socket paths are limited to 107 bytes.
  S->Socket = "serve-" + std::to_string(Rep) + ".sock";
  serve::ServerOptions SO;
  SO.SocketPath = S->Socket;
  SO.Verify = verify::VerifyLevel::Structural;
  SO.Jit.CacheDir = S->Dir->path();
  S->Srv = std::make_unique<serve::Server>(SO);
  std::string Err;
  if (!S->Srv->start(&Err)) {
    R.problem("server did not start: " + Err);
    return S;
  }
  serve::Client C;
  if (!C.connect(S->Socket, &Err)) {
    R.problem("cannot connect: " + Err);
    return S;
  }
  for (const std::string &P : In.Pool)
    for (const char *Exec : ExecNames) {
      json::Value Resp;
      if (!C.request(serve::Client::makeExecute(P, "", Exec, "",
                                                In.RequestSeeds[0]),
                     Resp, &Err) ||
          !Resp.getBool("ok").value_or(false))
        R.problem(std::string("pre-warm execute failed (") + Exec + ")");
    }
  return S;
}

enum Kind : uint8_t { WarmSeq, WarmJit, Cold, Reject };

/// The observable values of one execution, in the server's order.
using Values = std::vector<std::pair<std::string, double>>;

/// One request as the clients saw it. Warm and reject responses are
/// checked as they arrive (outside the latency timer), so only the cold
/// responses keep their values for the check after the timed region.
struct Sample {
  Kind K = WarmSeq;
  bool Traced = false;
  uint32_t Prog = 0; ///< pool, cold or bad-program index
  double Sec = 0;
  double CompileUs = 0;
  std::string Why;   ///< why the request failed; empty when it did not
  Values ColdVals;
};

Values valuesOf(const json::Value &Resp) {
  Values V;
  if (const json::Value *S = Resp.get("scalars"))
    for (const auto &[Name, X] : S->members())
      V.emplace_back("s:" + Name, X.asNumber());
  if (const json::Value *A = Resp.get("arrays"))
    for (const auto &[Name, X] : A->members()) {
      V.emplace_back("n:" + Name, X.getNumber("elements").value_or(-1));
      V.emplace_back("a:" + Name, X.getNumber("sum").value_or(NAN));
    }
  return V;
}

/// The same digest the server computes, from an in-process interpreter
/// run of the Baseline (unfused, uncontracted) program.
std::optional<Values> reference(const std::string &Text, uint64_t Seed) {
  frontend::ParseResult PR = frontend::parseProgram(Text, "reference");
  if (!PR.succeeded())
    return std::nullopt;
  driver::PipelineOptions PO;
  PO.Verify = verify::VerifyLevel::Structural;
  driver::Pipeline PL(*PR.Prog, PO);
  driver::CompileStatus St =
      PL.tryCompile(driver::CompileRequest{xform::Strategy::Baseline});
  if (!St.ok() || !St.Artifact)
    return std::nullopt;
  exec::RunResult RR = exec::run(St.Artifact->LP, Seed);
  Values V;
  for (const auto &[Name, X] : RR.ScalarsOut)
    V.emplace_back("s:" + Name, X);
  for (const auto &[Name, Data] : RR.LiveOut) {
    double Sum = 0.0;
    for (double D : Data)
      Sum += D;
    V.emplace_back("n:" + Name, static_cast<double>(Data.size()));
    V.emplace_back("a:" + Name, Sum);
  }
  return V;
}

uint64_t coldSeed(const Options &Opts, size_t ColdIdx) {
  return mixSeed(Opts.Seed, 1000 + ColdIdx) >> 12;
}

/// What is wrong with \p Resp for a request of kind \p K, apart from its
/// values; empty when nothing is.
std::string verdict(Kind K, const json::Value &Resp) {
  bool OK = Resp.getBool("ok").value_or(false);
  std::string Error = Resp.getString("error").value_or("");
  std::string Cache = Resp.getString("cache").value_or("");
  if (K == Reject)
    return !OK && Error == "parse" ? ""
                                   : "answered '" + Error + "', not 'parse'";
  if (!OK)
    return "refused: " + Error;
  const char *Want = K == Cold ? "miss" : "hit";
  return Cache == Want ? "" : "saw cache outcome '" + Cache + "'";
}

double statNumber(const json::Value &Stats, const char *Group,
                  const char *Key) {
  if (const json::Value *G = Stats.get(Group))
    return G->getNumber(Key).value_or(0);
  return 0;
}

double latencyNumber(const json::Value &Stats, const char *Row,
                     const char *Key) {
  if (const json::Value *L = Stats.get("latency"))
    if (const json::Value *X = L->get(Row))
      return X->getNumber(Key).value_or(0);
  return 0;
}

} // namespace

void perfbench::runServeWorkload(const Options &Opts, Report &R) {
  double SetupSec = 0;
  ServeInputs In;
  std::unique_ptr<ServeState> S = repeatSetup(
      [&](unsigned Rep) {
        In = makeInputs(Opts, R);
        return setUp(Rep, In, R);
      },
      SetupSec);

  // References for every warm (program, seed), outside set-up and the
  // timed region.
  std::vector<std::vector<std::optional<Values>>> WarmRefs;
  for (const std::string &P : In.Pool) {
    WarmRefs.emplace_back();
    for (uint64_t Seed : In.RequestSeeds)
      WarmRefs.back().push_back(reference(P, Seed));
  }

  // Server-side figures cover the timed region only.
  obs::reset();
  json::Value Before = S->Srv->statsJson();

  const size_t NumCold = In.Cold.size();
  std::atomic<size_t> ColdIssued{0}, RejectIssued{0};
  std::vector<std::vector<Sample>> PerClient(NumClients);
  double Start = nowSec();
  auto Due = [&](size_t Total) {
    double Frac = (nowSec() - Start) / Opts.Seconds;
    return Frac >= 1 ? Total : static_cast<size_t>(Frac * Total) + 1;
  };
  // Claims the next scheduled request of a class when it is due.
  auto Claim = [&](std::atomic<size_t> &Issued, size_t Total, size_t &Out) {
    size_t Cur = Issued.load();
    while (Cur < std::min(Total, Due(Total)))
      if (Issued.compare_exchange_weak(Cur, Cur + 1)) {
        Out = Cur;
        return true;
      }
    return false;
  };

  auto ClientLoop = [&](unsigned CI) {
    std::vector<Sample> &Out = PerClient[CI];
    // Room for well over the request rate seen on a 4-core host: a
    // doubling late in the run would make peak_rss_mb depend on when it
    // happened. Pages only count once samples are written to them.
    Out.reserve(static_cast<size_t>(2000 * Opts.Seconds) + 1000);
    SplitMix64 Rng(mixSeed(Opts.Seed, 100 + CI));
    serve::Client C;
    std::string Err;
    C.connect(S->Socket, &Err);
    for (;;) {
      double Now = nowSec();
      bool Over = Now - Start >= Opts.Seconds;
      Sample Smp;
      size_t Idx = 0;
      unsigned SeedIdx = 0;
      json::Value Req;
      if (Claim(ColdIssued, NumCold, Idx)) {
        Smp.K = Cold;
        Smp.Prog = static_cast<uint32_t>(Idx);
        Req = serve::Client::makeExecute(In.Cold[Idx], "", "sequential", "",
                                         coldSeed(Opts, Idx));
      } else if (Claim(RejectIssued, In.NumReject, Idx)) {
        Smp.K = Reject;
        Smp.Prog = static_cast<uint32_t>(Idx % NumBad);
        Req = serve::Client::makeExecute(BadPrograms[Smp.Prog], "",
                                         "sequential", "", 0);
      } else if (Over) {
        break;
      } else {
        Smp.Prog = static_cast<uint32_t>(Rng.nextBounded(In.Pool.size()));
        Smp.K = Rng.nextBounded(2) ? WarmJit : WarmSeq;
        SeedIdx = static_cast<unsigned>(Rng.nextBounded(NumRequestSeeds));
        Req = serve::Client::makeExecute(In.Pool[Smp.Prog], "",
                                         ExecNames[Smp.K == WarmJit], "",
                                         In.RequestSeeds[SeedIdx]);
      }
      Smp.Traced =
          Opts.Trace && static_cast<long>((Now - Start) / SliceSec) % 2 == 1;
      if (!C.connected())
        C.connect(S->Socket, &Err);
      json::Value Resp;
      double T0 = nowSec();
      bool Answered = C.request(Req, Resp, &Err);
      Smp.Sec = nowSec() - T0;
      Smp.Why = Answered ? verdict(Smp.K, Resp) : "transport failure: " + Err;
      if (Smp.Why.empty() && Smp.K == Cold) {
        Smp.CompileUs = Resp.getNumber("compile_us").value_or(0);
        Smp.ColdVals = valuesOf(Resp);
      } else if (Smp.Why.empty() && Smp.K != Reject &&
                 WarmRefs[Smp.Prog][SeedIdx] != valuesOf(Resp)) {
        Smp.Why = "result differs from the interpreter";
      }
      Out.push_back(std::move(Smp));
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned CI = 0; CI < NumClients; ++CI)
    Threads.emplace_back(ClientLoop, CI);
  for (std::thread &T : Threads)
    T.join();
  double Elapsed = nowSec() - Start;
  double PeakRss = peakRssMb();
  json::Value After = S->Srv->statsJson();

  static const char *const KindNames[] = {"warm_seq", "warm_jit", "cold",
                                          "reject"};
  std::vector<double> AllMs, ClassMs[4], UntracedMs, TracedMs, ColdCompileUs;
  for (const std::vector<Sample> &V : PerClient)
    for (const Sample &Smp : V) {
      R.attempted();
      double Ms = Smp.Sec * 1e3;
      AllMs.push_back(Ms);
      (Smp.Traced ? TracedMs : UntracedMs).push_back(Ms);
      if (Smp.Traced || !Opts.Trace)
        ClassMs[Smp.K].push_back(Ms);
      std::string Why = Smp.Why;
      if (Why.empty() && Smp.K == Cold) {
        ColdCompileUs.push_back(Smp.CompileUs);
        if (reference(In.Cold[Smp.Prog], coldSeed(Opts, Smp.Prog)) !=
            Smp.ColdVals)
          Why = "result differs from the interpreter";
      }
      if (!Why.empty())
        R.fail(std::string(KindNames[Smp.K]) + " request: " + Why);
    }

  double Hits = statNumber(After, "cache", "hits") -
                statNumber(Before, "cache", "hits");
  double Misses = statNumber(After, "cache", "misses") -
                  statNumber(Before, "cache", "misses");
  double Coalesced = statNumber(After, "cache", "coalesced") -
                     statNumber(Before, "cache", "coalesced");
  double RejectedBusy = statNumber(After, "admission", "rejected_busy");
  double TimedJitCompiles = latencyNumber(After, "jit_compile", "count");
  double ServerExecUs = latencyNumber(After, "execute", "p50_us");
  if (TimedJitCompiles != 0)
    R.problem(std::to_string(TimedJitCompiles) +
              " JIT compiles ran in the timed region");

  // End-to-end: one operation is one request.
  std::vector<std::vector<double>> ClassSec;
  for (const std::vector<double> &V : ClassMs) {
    ClassSec.emplace_back();
    for (double Ms : V)
      ClassSec.back().push_back(Ms / 1e3);
  }
  reportEndToEnd(R, SetupSec, PeakRss, ClassSec, Elapsed, 0.99);

  // Per-layer: each class's p50 against the geometric mean of the four
  // class p50s (op_geomean_ms of the same slices), and the share of a
  // request the server spends executing (warm) or compiling (cold); the
  // rest is protocol and transport.
  std::vector<double> WarmMs = ClassMs[WarmSeq], ClassP50Ms;
  WarmMs.insert(WarmMs.end(), ClassMs[WarmJit].begin(), ClassMs[WarmJit].end());
  for (const std::vector<double> &V : ClassMs)
    ClassP50Ms.push_back(median(V));
  for (unsigned K = 0; K < 4; ++K)
    R.layer(std::string("serve.") + KindNames[K] + "_rel",
            ClassP50Ms[K] / geomean(ClassP50Ms), "ratio");
  R.layer("serve.rtt_overhead_frac",
          1 - ServerExecUs / (median(WarmMs) * 1e3), "frac");
  R.layer("serve.server_compile_frac",
          median(ColdCompileUs) / (median(ClassMs[Cold]) * 1e3), "frac");
  R.layer("serve.cache_hits", Hits, "count");
  R.count("serve.cache_misses", Misses);
  R.layer("serve.cache_coalesced", Coalesced, "count");
  R.layer("serve.hit_ratio", Hits / (Hits + Misses + Coalesced), "frac");
  R.layer("serve.rejected_busy", RejectedBusy, "count");
  R.layer("serve.timed_jit_compiles", TimedJitCompiles, "count");
  R.layer("trace.overhead_frac", median(TracedMs) / median(UntracedMs) - 1,
          "frac");
  std::cerr << "serve: " << AllMs.size() << " requests in " << Elapsed
            << " s (" << ClassMs[WarmSeq].size() << " warm seq, "
            << ClassMs[WarmJit].size() << " warm jit, "
            << ClassMs[Cold].size() << " cold, " << ClassMs[Reject].size()
            << " reject)\n";
}

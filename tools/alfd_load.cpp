//===- tools/alfd_load.cpp - N-clients x M-programs load harness ------------===//
//
// Drives a running (or freshly spawned) alfd with concurrent clients and
// reports latency percentiles and cache behavior, both measured
// client-side and as the daemon's own stats (fed by the obs metrics
// table). This is the acceptance harness for the serving layer:
//
//   # 16 clients hammer one identical program: exactly one compile may
//   # happen (single-flight), everyone else must hit or coalesce.
//   alfd_load --alfd=./alfd --clients=16 --requests=4 --identical
//             --assert-single-flight --assert-no-failures
//
//   # 8 clients x 6 distinct programs, pre-warmed, with a cold compile
//   # deliberately in flight during the timed phase: warm p95 is
//   # reported for both phases so an operator can see it is unaffected.
//   alfd_load --alfd=./alfd --clients=8 --programs=6 --requests=20
//             --warm --overlap-cold --assert-no-failures
//
// Options:
//   --socket=PATH      talk to an already-running daemon at PATH
//   --alfd=PATH        spawn PATH --socket=<tmp> for the run, shut it
//                      down (and reap it) at the end
//   --clients=N        concurrent client connections (default 8)
//   --programs=M       distinct generated programs (default 4)
//   --requests=R       execute requests per client (default 10)
//   --exec=MODE        execution mode for the requests (default
//                      sequential)
//   --strategy=NAME    strategy for the requests (default c2)
//   --identical        all clients send program 0 (single-flight demo)
//   --warm             pre-warm every program once before the timed run
//   --overlap-cold     run the timed phase twice and keep a cold compile
//                      of a fresh program in flight during the second
//   --assert-single-flight  fail unless misses == 1 and hits+coalesced
//                      cover every other request
//   --assert-no-failures    fail if any request did not answer ok
//   --assert-warm-hits      fail unless the cache saw at least one hit
//
//===----------------------------------------------------------------------===//

#include "ToolOptions.h"
#include "serve/Client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace alf;

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Deterministically distinct mini-ZPL programs: a Jacobi-like smoothing
/// fragment whose region extent and coefficients vary with the index, so
/// each has its own content hash, a contractible temporary, and a
/// scalar reduction whose value the harness can cross-check across
/// clients.
std::string makeProgram(unsigned Index, unsigned ExtentBase = 24) {
  unsigned N = ExtentBase + 4 * (Index % 5);
  double C = 0.20 + 0.01 * static_cast<double>(Index % 7);
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "region R : [1..%u, 1..%u];\n"
                "array U, V : R;\n"
                "array T : R temp;\n"
                "scalar s;\n"
                "[R] T := (U@(-1,0) + U@(1,0) + U@(0,-1) + U@(0,1)) * %.2f "
                "- U;\n"
                "[R] V := U + T * 0.8;\n"
                "[R] s := + << abs(T);\n",
                N, N, C);
  return Buf;
}

struct ClientStats {
  std::vector<uint64_t> LatencyNs;
  uint64_t Failures = 0;
  uint64_t Requests = 0;
  std::vector<std::string> Errors;
};

uint64_t percentile(std::vector<uint64_t> &V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Idx = static_cast<size_t>(P * static_cast<double>(V.size() - 1));
  return V[Idx];
}

struct SpawnedDaemon {
  pid_t Pid = -1;
  std::string SocketPath;
};

bool spawnDaemon(const std::string &AlfdPath, SpawnedDaemon &D,
                 std::string &Error) {
  char Tmpl[] = "/tmp/alfd-load-XXXXXX";
  if (!mkdtemp(Tmpl)) {
    Error = "mkdtemp failed";
    return false;
  }
  D.SocketPath = std::string(Tmpl) + "/alfd.sock";
  pid_t Pid = fork();
  if (Pid < 0) {
    Error = "fork failed";
    return false;
  }
  if (Pid == 0) {
    std::string SocketArg = "--socket=" + D.SocketPath;
    execl(AlfdPath.c_str(), AlfdPath.c_str(), SocketArg.c_str(),
          static_cast<char *>(nullptr));
    std::perror("alfd_load: exec alfd");
    _exit(127);
  }
  D.Pid = Pid;
  // The daemon binds before serving; poll until the socket accepts.
  for (int Try = 0; Try < 200; ++Try) {
    serve::Client Probe;
    if (Probe.connect(D.SocketPath)) {
      json::Value Resp;
      if (Probe.request(serve::Client::makeHealth(), Resp))
        return true;
    }
    int Status = 0;
    if (waitpid(Pid, &Status, WNOHANG) == Pid) {
      Error = "alfd exited during startup";
      D.Pid = -1;
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  Error = "alfd did not come up on " + D.SocketPath;
  return false;
}

void stopDaemon(SpawnedDaemon &D) {
  if (D.Pid < 0)
    return;
  serve::Client C;
  if (C.connect(D.SocketPath)) {
    json::Value Resp;
    C.request(serve::Client::makeShutdown(), Resp);
  }
  int Status = 0;
  for (int Try = 0; Try < 200; ++Try) {
    if (waitpid(D.Pid, &Status, WNOHANG) == D.Pid) {
      D.Pid = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  kill(D.Pid, SIGKILL);
  waitpid(D.Pid, &Status, 0);
  D.Pid = -1;
}

/// One timed phase: every client runs its request loop; returns per-
/// client stats.
std::vector<ClientStats>
runPhase(const std::string &SocketPath, unsigned NumClients,
         unsigned Requests, const std::vector<std::string> &Programs,
         bool Identical, const std::string &Strategy,
         const std::string &Exec, std::mutex &ResultMu,
         std::string &CanonicalScalars) {
  std::vector<ClientStats> Stats(NumClients);
  std::vector<std::thread> Threads;
  Threads.reserve(NumClients);
  for (unsigned CI = 0; CI < NumClients; ++CI) {
    Threads.emplace_back([&, CI] {
      ClientStats &S = Stats[CI];
      serve::Client C;
      std::string Error;
      if (!C.connect(SocketPath, &Error)) {
        S.Failures += Requests;
        S.Requests += Requests;
        S.Errors.push_back(Error);
        return;
      }
      for (unsigned R = 0; R < Requests; ++R) {
        unsigned PI =
            Identical ? 0 : (CI + R) % static_cast<unsigned>(Programs.size());
        json::Value Req = serve::Client::makeExecute(
            Programs[PI], Strategy, Exec, /*Verify=*/"", /*Seed=*/1);
        json::Value Resp;
        uint64_t T0 = nowNs();
        bool OK = C.request(Req, Resp, &Error);
        uint64_t T1 = nowNs();
        ++S.Requests;
        if (!OK) {
          ++S.Failures;
          S.Errors.push_back(Error);
          // The client closed on transport failure; reconnect for the
          // remaining requests.
          C.connect(SocketPath);
          continue;
        }
        S.LatencyNs.push_back(T1 - T0);
        std::optional<bool> RespOK = Resp.getBool("ok");
        if (!RespOK || !*RespOK) {
          ++S.Failures;
          std::optional<std::string> Msg = Resp.getString("message");
          S.Errors.push_back(Msg ? *Msg : "request answered !ok");
          continue;
        }
        // Cross-client determinism: every execution of the identical
        // program must produce the identical scalar results.
        if (Identical) {
          const json::Value *Scalars = Resp.get("scalars");
          std::string Rendered = Scalars ? Scalars->str() : "";
          std::lock_guard<std::mutex> Lock(ResultMu);
          if (CanonicalScalars.empty())
            CanonicalScalars = Rendered;
          else if (Rendered != CanonicalScalars) {
            ++S.Failures;
            S.Errors.push_back("scalar results diverged across clients");
          }
        }
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  return Stats;
}

void printPhase(const char *Label, std::vector<ClientStats> &Stats) {
  std::vector<uint64_t> All;
  uint64_t Failures = 0, Requests = 0;
  for (ClientStats &S : Stats) {
    All.insert(All.end(), S.LatencyNs.begin(), S.LatencyNs.end());
    Failures += S.Failures;
    Requests += S.Requests;
  }
  std::cout << Label << ": " << Requests << " requests, " << Failures
            << " failed, client-side latency p50 "
            << percentile(All, 0.50) / 1000 << " us, p95 "
            << percentile(All, 0.95) / 1000 << " us, max "
            << (All.empty() ? 0 : All.back()) / 1000 << " us\n";
  for (ClientStats &S : Stats)
    for (const std::string &E : S.Errors)
      std::cout << "  error: " << E << '\n';
}

double statNumber(const json::Value &Stats, const char *Group,
                  const char *Key) {
  if (const json::Value *G = Stats.get(Group))
    if (std::optional<double> N = G->getNumber(Key))
      return *N;
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string SocketPath, AlfdPath;
  unsigned NumClients = 8, NumPrograms = 4, Requests = 10;
  bool Identical = false, Warm = false, OverlapCold = false;
  bool AssertSingleFlight = false, AssertNoFailures = false,
       AssertWarmHits = false;
  tool::ToolOptions TO;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    std::string Error;
    switch (tool::parseToolFlag(Arg, tool::TF_Strategy | tool::TF_Exec, TO,
                                Error)) {
    case tool::FlagParse::Consumed:
      continue;
    case tool::FlagParse::Error:
      std::cerr << "alfd_load: " << Error << '\n';
      return 1;
    case tool::FlagParse::NotMine:
      break;
    }
    bool NumberOK = true;
    if (Arg.rfind("--socket=", 0) == 0)
      SocketPath = Arg.substr(9);
    else if (Arg.rfind("--alfd=", 0) == 0)
      AlfdPath = Arg.substr(7);
    else if (Arg.rfind("--clients=", 0) == 0)
      NumberOK = tool::parseNumberFlag(Arg, NumClients, Error);
    else if (Arg.rfind("--programs=", 0) == 0)
      NumberOK = tool::parseNumberFlag(Arg, NumPrograms, Error);
    else if (Arg.rfind("--requests=", 0) == 0)
      NumberOK = tool::parseNumberFlag(Arg, Requests, Error);
    else if (Arg == "--identical")
      Identical = true;
    else if (Arg == "--warm")
      Warm = true;
    else if (Arg == "--overlap-cold")
      OverlapCold = true;
    else if (Arg == "--assert-single-flight")
      AssertSingleFlight = true;
    else if (Arg == "--assert-no-failures")
      AssertNoFailures = true;
    else if (Arg == "--assert-warm-hits")
      AssertWarmHits = true;
    else {
      std::cerr << "alfd_load: unknown option '" << Arg << "'\n"
                << "usage: alfd_load (--socket=PATH | --alfd=PATH) "
                   "[--clients=N] [--programs=M]\n"
                   "                 [--requests=R] [--identical] [--warm] "
                   "[--overlap-cold]\n"
                   "                 [--assert-single-flight] "
                   "[--assert-no-failures] [--assert-warm-hits]\n"
                << tool::toolFlagsHelp(tool::TF_Strategy | tool::TF_Exec);
      return 1;
    }
    if (!NumberOK) {
      std::cerr << "alfd_load: " << Error << '\n';
      return 2;
    }
  }
  if (SocketPath.empty() && AlfdPath.empty()) {
    std::cerr << "alfd_load: need --socket=PATH or --alfd=PATH\n";
    return 1;
  }
  NumClients = std::max(1u, NumClients);
  NumPrograms = std::max(1u, NumPrograms);
  Requests = std::max(1u, Requests);

  SpawnedDaemon Daemon;
  if (!AlfdPath.empty()) {
    std::string Error;
    if (!spawnDaemon(AlfdPath, Daemon, Error)) {
      std::cerr << "alfd_load: " << Error << '\n';
      return 1;
    }
    SocketPath = Daemon.SocketPath;
    std::cout << "spawned alfd (pid " << Daemon.Pid << ") on " << SocketPath
              << '\n';
  }

  std::string Strategy =
      TO.Strat ? xform::getStrategyName(*TO.Strat) : "c2";
  std::string Exec =
      TO.Exec ? xform::getExecModeName(*TO.Exec) : "sequential";

  std::vector<std::string> Programs;
  for (unsigned I = 0; I < NumPrograms; ++I)
    Programs.push_back(makeProgram(I));

  int Failed = 0;
  uint64_t TotalFailures = 0;

  {
    // Pre-warm: one client touches every program once so the timed
    // phase measures warm executes, not cold compiles.
    if (Warm) {
      serve::Client C;
      std::string Error;
      if (!C.connect(SocketPath, &Error)) {
        std::cerr << "alfd_load: " << Error << '\n';
        stopDaemon(Daemon);
        return 1;
      }
      for (const std::string &P : Programs) {
        json::Value Resp;
        C.request(serve::Client::makeCompile(P, Strategy, Exec), Resp);
      }
      std::cout << "pre-warmed " << Programs.size() << " programs\n";
    }

    std::mutex ResultMu;
    std::string CanonicalScalars;
    auto Stats =
        runPhase(SocketPath, NumClients, Requests, Programs, Identical,
                 Strategy, Exec, ResultMu, CanonicalScalars);
    printPhase("warm phase", Stats);
    for (ClientStats &S : Stats)
      TotalFailures += S.Failures;

    if (OverlapCold) {
      // Re-run the same warm workload with a cold compile deliberately
      // in flight: a fresh never-seen program large enough to keep the
      // compile queue busy. Warm p95 should be in the same regime.
      std::atomic<bool> ColdDone{false};
      std::thread Cold([&] {
        serve::Client C;
        if (!C.connect(SocketPath))
          return;
        // A distinct extent far outside the generated family.
        std::string Big = makeProgram(9991, /*ExtentBase=*/160);
        json::Value Resp;
        C.request(serve::Client::makeCompile(Big, Strategy, Exec), Resp);
        ColdDone.store(true);
      });
      auto Stats2 =
          runPhase(SocketPath, NumClients, Requests, Programs, Identical,
                   Strategy, Exec, ResultMu, CanonicalScalars);
      Cold.join();
      printPhase("warm phase with cold compile in flight", Stats2);
      std::cout << "cold compile finished during phase: "
                << (ColdDone.load() ? "yes" : "still running at join")
                << '\n';
      for (ClientStats &S : Stats2)
        TotalFailures += S.Failures;
    }
  }

  // The daemon's own view: request counters, cache behavior, latency
  // percentiles from the obs metrics table.
  json::Value Stats;
  {
    serve::Client C;
    std::string Error;
    json::Value Resp;
    if (!C.connect(SocketPath, &Error) ||
        !C.request(serve::Client::makeStats(), Resp, &Error)) {
      std::cerr << "alfd_load: stats: " << Error << '\n';
      stopDaemon(Daemon);
      return 1;
    }
    Stats = Resp;
  }
  double Hits = statNumber(Stats, "cache", "hits");
  double Misses = statNumber(Stats, "cache", "misses");
  double Coalesced = statNumber(Stats, "cache", "coalesced");
  std::cout << "server cache: " << Hits << " hits, " << Misses
            << " misses, " << Coalesced << " coalesced\n";
  if (const json::Value *Lat = Stats.get("latency")) {
    if (const json::Value *Ex = Lat->get("execute"))
      if (Ex->getNumber("count"))
        std::cout << "server execute latency: p50 "
                  << Ex->getNumber("p50_us").value_or(0) << " us, p95 "
                  << Ex->getNumber("p95_us").value_or(0) << " us over "
                  << Ex->getNumber("count").value_or(0) << " requests\n";
    if (const json::Value *JC = Lat->get("jit_compile"))
      if (JC->getNumber("count"))
        std::cout << "jit compiles: " << JC->getNumber("count").value_or(0)
                  << " (p95 " << JC->getNumber("p95_us").value_or(0)
                  << " us)\n";
  }

  if (AssertNoFailures && TotalFailures > 0) {
    std::cout << "FAIL: " << TotalFailures << " requests failed\n";
    Failed = 1;
  }
  if (AssertSingleFlight) {
    // The thundering herd must have compiled exactly once; every other
    // request was served from the cache (hit or coalesced wait).
    double Expected =
        static_cast<double>(NumClients) * Requests - 1;
    if (Misses != 1.0) {
      std::cout << "FAIL: expected exactly 1 compile, saw " << Misses
                << '\n';
      Failed = 1;
    } else if (Hits + Coalesced < Expected) {
      std::cout << "FAIL: expected >= " << Expected
                << " cache-served requests, saw " << Hits + Coalesced
                << '\n';
      Failed = 1;
    } else {
      std::cout << "single-flight confirmed: 1 compile, " << Hits + Coalesced
                << " cache-served requests\n";
    }
  }
  if (AssertWarmHits && Hits + Coalesced <= 0) {
    std::cout << "FAIL: expected a warm cache hit, saw none\n";
    Failed = 1;
  }

  stopDaemon(Daemon);
  std::cout << (Failed ? "FAILED\n" : "PASSED\n");
  return Failed;
}

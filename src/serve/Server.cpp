//===- serve/Server.cpp - alfd Unix-socket compile/execute server -----------===//

#include "serve/Server.h"

#include "exec/Storage.h"
#include "frontend/Parser.h"
#include "obs/Obs.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>
#include <stdexcept>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace alf;
using namespace alf::serve;

namespace {

ALF_COUNTER(NumRequests, "serve.requests", "Requests handled by the daemon");
ALF_COUNTER(NumCompileReqs, "serve.requests.compile",
            "Compile requests admitted");
ALF_COUNTER(NumExecuteReqs, "serve.requests.execute",
            "Execute requests admitted");
ALF_COUNTER(NumConnections, "serve.connections", "Connections accepted");
ALF_COUNTER(NumRejectedBusy, "serve.admission.rejected_busy",
            "Requests refused because too many were in flight");
ALF_COUNTER(NumRejectedTooLarge, "serve.admission.rejected_too_large",
            "Requests refused for an oversized program");
ALF_COUNTER(NumMalformed, "serve.admission.malformed",
            "Frames refused as malformed");

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-request RAII admission token.
class InFlightToken {
  std::atomic<uint64_t> &Counter;

public:
  explicit InFlightToken(std::atomic<uint64_t> &C) : Counter(C) {
    Counter.fetch_add(1, std::memory_order_relaxed);
  }
  ~InFlightToken() { Counter.fetch_sub(1, std::memory_order_relaxed); }
};

/// One stats-op group: member Key shows registry row Name (a row never
/// recorded shows as zeros).
json::Value statsGroup(
    std::initializer_list<std::pair<const char *, const char *>> Members) {
  json::Value G = json::Value::object();
  for (const auto &[Key, Name] : Members)
    G.set(Key, obs::toJson(obs::metricsFor(Name).value_or(obs::MetricRow()),
                           obs::TimeUnit::Us));
  return G;
}

} // namespace

/// One connection: the fd plus the thread draining it. The worker closes
/// Fd and sets Closed under ConnMu, so teardown never shuts down an fd
/// number the system may already have reused.
struct Server::Conn {
  int Fd = -1;
  bool Closed = false;
  std::thread Worker;
};

Server::Server(ServerOptions InOpts) : Opts(std::move(InOpts)) {
  Opts.CompileThreads = std::max(1u, Opts.CompileThreads);
  CompileQueue = std::make_unique<TaskQueue>(Opts.CompileThreads);
  Cache = std::make_unique<KernelCache>(/*NumShards=*/8, CompileQueue.get());
}

Server::~Server() {
  stop();
  wait();
}

bool Server::start(std::string *Error) {
  auto Fail = [&](const std::string &Why) {
    if (Error)
      *Error = Why + ": " + std::strerror(errno);
    if (ListenFd >= 0) {
      ::close(ListenFd);
      ListenFd = -1;
    }
    return false;
  };

  if (Opts.SocketPath.empty()) {
    if (Error)
      *Error = "no socket path configured";
    return false;
  }
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    if (Error)
      *Error = "socket path too long: " + Opts.SocketPath;
    return false;
  }
  std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
               sizeof(Addr.sun_path) - 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Fail("socket");
  ::unlink(Opts.SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    return Fail("bind " + Opts.SocketPath);
  if (::listen(ListenFd, 64) < 0)
    return Fail("listen");

  // The stats op reports latency percentiles from the obs metrics
  // table; make sure something is feeding it.
  if (obs::level() == obs::ObsLevel::Off)
    obs::setLevel(obs::ObsLevel::Counters);

  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::acceptLoop() {
  while (!Stopping.load(std::memory_order_acquire)) {
    pollfd Pfd;
    Pfd.fd = ListenFd;
    Pfd.events = POLLIN;
    Pfd.revents = 0;
    int R = ::poll(&Pfd, 1, /*timeout ms=*/100);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (R == 0 || !(Pfd.revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    ++NumConnections;
    // Register under the lock with the thread already started, so
    // teardown (which swaps the list under the same lock after joining
    // this acceptor) always sees a joinable worker. Reap the finished
    // workers first: each holds its thread's stack until joined.
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (auto It = Conns.begin(); It != Conns.end();) {
      if (!(*It)->Closed) {
        ++It;
        continue;
      }
      (*It)->Worker.join();
      It = Conns.erase(It);
    }
    auto C = std::make_unique<Conn>();
    C->Fd = Fd;
    Conn *Raw = C.get();
    C->Worker = std::thread([this, Raw] { handleConnection(*Raw); });
    Conns.push_back(std::move(C));
  }
}

void Server::handleConnection(Conn &C) {
  const int Fd = C.Fd;
  for (;;) {
    json::Value Req;
    std::string Why;
    FrameRead R = readFrame(Fd, Opts.MaxProgramBytes, Req, &Why);
    if (R == FrameRead::Eof || R == FrameRead::IoError)
      break;
    if (R == FrameRead::TooLarge) {
      ++NumRejectedTooLarge;
      writeFrame(Fd, makeError("too-large", Why));
      break; // the stream is out of sync; hang up
    }
    if (R == FrameRead::Malformed) {
      ++NumMalformed;
      writeFrame(Fd, makeError("malformed", Why));
      break;
    }
    json::Value Resp = handleRequest(Req);
    if (!writeFrame(Fd, Resp))
      break;
    std::optional<std::string> Op = Req.getString("op");
    if (Op && *Op == "shutdown")
      break;
  }
  std::lock_guard<std::mutex> Lock(ConnMu);
  ::shutdown(Fd, SHUT_RDWR);
  ::close(Fd);
  C.Closed = true;
}

json::Value Server::handleRequest(const json::Value &Req) {
  ++NumRequests;
  std::optional<std::string> Op = Req.getString("op");
  if (!Op)
    return makeError("malformed", "request has no \"op\" member");

  if (*Op == "health")
    return handleHealth();
  if (*Op == "stats")
    return handleStats();
  if (*Op == "shutdown") {
    stop();
    json::Value V = makeOk();
    V.set("stopping", json::Value::boolean(true));
    return V;
  }

  if (*Op != "compile" && *Op != "execute")
    return makeError("unknown-op", "unknown op \"" + *Op + "\"");

  if (Stopping.load(std::memory_order_acquire))
    return makeError("shutting-down", "daemon is shutting down");

  // Admission: cap concurrent compile/execute work. health/stats stay
  // exempt so operators can always look in.
  if (NumInFlight.load(std::memory_order_relaxed) >= Opts.MaxInFlight) {
    ++NumRejectedBusy;
    return makeError("busy",
                     "more than " + std::to_string(Opts.MaxInFlight) +
                         " requests in flight");
  }
  InFlightToken Token(NumInFlight);

  if (*Op == "compile") {
    ++NumCompileReqs;
    obs::Span S("serve.request.compile");
    return handleCompile(Req, nullptr, nullptr);
  }
  ++NumExecuteReqs;
  obs::Span S("serve.request.execute");
  return handleExecute(Req);
}

json::Value Server::handleHealth() const {
  json::Value V = makeOk();
  V.set("service", json::Value::str("alfd"));
  V.set("status", json::Value::str("ok"));
  V.set("protocol", json::Value::number(ProtocolVersion));
  return V;
}

json::Value Server::handleStats() const {
  json::Value V = statsJson();
  V.set("ok", json::Value::boolean(true));
  return V;
}

json::Value Server::statsJson() const {
  json::Value Reqs = statsGroup({{"total", "serve.requests"},
                                 {"compile", "serve.requests.compile"},
                                 {"execute", "serve.requests.execute"},
                                 {"connections", "serve.connections"}});
  Reqs.set("in_flight", json::Value::number(static_cast<double>(
                            NumInFlight.load(std::memory_order_relaxed))));
  json::Value CacheV = statsGroup({{"hits", "serve.cache.hit"},
                                   {"misses", "serve.cache.miss"},
                                   {"coalesced", "serve.cache.coalesced"}});
  CacheV.set("entries",
             json::Value::number(static_cast<double>(Cache->size())));

  json::Value V = json::Value::object();
  V.set("requests", Reqs);
  V.set("cache", CacheV);
  V.set("admission",
        statsGroup(
            {{"rejected_busy", "serve.admission.rejected_busy"},
             {"rejected_too_large", "serve.admission.rejected_too_large"},
             {"malformed", "serve.admission.malformed"}}));
  V.set("latency", statsGroup({{"execute", "serve.request.execute"},
                               {"compile", "serve.request.compile"},
                               {"jit_compile", "jit.compile"}}));
  return V;
}

json::Value Server::handleCompile(
    const json::Value &Req, std::shared_ptr<const CompiledEntry> *OutEntry,
    CacheOutcome *OutOutcome) {
  std::optional<std::string> Program = Req.getString("program");
  if (!Program)
    return makeError("malformed", "request has no \"program\" member");
  if (Program->size() > Opts.MaxProgramBytes) {
    ++NumRejectedTooLarge;
    return makeError("too-large",
                     "program of " + std::to_string(Program->size()) +
                         " bytes exceeds the " +
                         std::to_string(Opts.MaxProgramBytes) + "-byte cap");
  }

  CompileKey Key;
  Key.ProgramHash = exec::hashName(*Program);
  Key.Verify = Opts.Verify;
  if (std::optional<std::string> S = Req.getString("strategy")) {
    std::optional<xform::Strategy> St = xform::strategyNamed(*S);
    if (!St)
      return makeError("malformed", "unknown strategy \"" + *S + "\"");
    Key.Strat = *St;
  }
  if (std::optional<std::string> S = Req.getString("exec")) {
    std::optional<xform::ExecMode> M = xform::execModeNamed(*S);
    if (!M)
      return makeError("malformed", "unknown exec mode \"" + *S + "\"");
    Key.Mode = *M;
  }
  if (std::optional<std::string> S = Req.getString("verify")) {
    std::optional<verify::VerifyLevel> L = verify::verifyLevelNamed(*S);
    if (!L)
      return makeError("malformed", "unknown verify level \"" + *S + "\"");
    Key.Verify = *L;
  }
  const semiring::Semiring *SemiringSel = nullptr;
  if (std::optional<std::string> S = Req.getString("semiring")) {
    SemiringSel = semiring::byName(*S);
    if (!SemiringSel)
      return makeError("malformed", "unknown semiring \"" + *S +
                                        "\" (expected " +
                                        semiring::allNames() + ")");
    Key.Semiring = SemiringSel->Name;
  }

  CacheOutcome Outcome = CacheOutcome::Hit;
  std::shared_ptr<const CompiledEntry> Entry = Cache->get(
      Key,
      [&]() -> CompiledEntry {
        CompiledEntry E;
        uint64_t T0 = nowNs();
        frontend::ParseResult PR = frontend::parseProgram(
            *Program, "serve-" + std::to_string(Key.ProgramHash));
        if (!PR.succeeded()) {
          E.ErrorCode = "parse";
          E.ErrorMessage = PR.Errors.empty() ? "parse failed"
                                             : PR.Errors.front();
          E.CompileNs = nowNs() - T0;
          return E;
        }
        E.P = std::move(PR.Prog);
        if (SemiringSel)
          E.P->setReductionSemiring(*SemiringSel);
        driver::PipelineOptions PO;
        PO.Verify = Key.Verify;
        PO.Jit = Opts.Jit;
        driver::Pipeline PL(*E.P, PO);
        driver::CompileStatus St =
            PL.tryCompile(driver::CompileRequest{Key.Strat, Key.Mode});
        if (!St.ok()) {
          E.ErrorCode = driver::getCompileCodeName(St.Code);
          E.ErrorMessage = St.Message;
          for (const verify::VerifyFinding &F : St.Findings.Findings)
            E.ErrorFindings.push_back(F.str());
          E.CompileNs = nowNs() - T0;
          return E;
        }
        E.CP = std::move(St.Artifact);
        E.OK = true;
        E.CompileNs = nowNs() - T0;
        return E;
      },
      &Outcome);

  if (OutEntry)
    *OutEntry = Entry;
  if (OutOutcome)
    *OutOutcome = Outcome;
  if (!Entry->OK) {
    json::Value V = makeError(Entry->ErrorCode, Entry->ErrorMessage);
    // Rejections carry every finding, so a client sees the whole static
    // diagnosis (e.g. each unsafe access) rather than the first line —
    // including on negative-cache hits, which replay this entry. The
    // cache outcome makes that replay observable.
    V.set("cache", json::Value::str(getCacheOutcomeName(Outcome)));
    if (!Entry->ErrorFindings.empty()) {
      json::Value Findings = json::Value::array();
      for (const std::string &F : Entry->ErrorFindings)
        Findings.push(json::Value::str(F));
      V.set("findings", Findings);
    }
    return V;
  }

  json::Value V = makeOk();
  V.set("cache", json::Value::str(getCacheOutcomeName(Outcome)));
  V.set("strategy", json::Value::str(xform::getStrategyName(Key.Strat)));
  V.set("exec", json::Value::str(xform::getExecModeName(Key.Mode)));
  V.set("verify",
        json::Value::str(verify::getVerifyLevelName(Key.Verify)));
  V.set("clusters",
        json::Value::number(static_cast<double>(Entry->CP->NumClusters)));
  json::Value Contracted = json::Value::array();
  for (const std::string &Name : Entry->CP->ContractedNames)
    Contracted.push(json::Value::str(Name));
  V.set("contracted", Contracted);
  V.set("compile_us", json::Value::number(
                          static_cast<double>(Entry->CompileNs) / 1000.0));
  return V;
}

json::Value Server::handleExecute(const json::Value &Req) {
  std::shared_ptr<const CompiledEntry> Entry;
  CacheOutcome Outcome = CacheOutcome::Hit;
  json::Value CompileResp = handleCompile(Req, &Entry, &Outcome);
  std::optional<bool> OK = CompileResp.getBool("ok");
  if (!OK || !*OK || !Entry || !Entry->OK)
    return CompileResp;

  uint64_t Seed = 0;
  if (std::optional<double> S = Req.getNumber("seed"))
    Seed = static_cast<uint64_t>(*S);

  // A program whose storage cannot be allocated (a region past
  // vector::max_size, or more memory than the host has) fails this
  // request only; the daemon keeps serving everyone else.
  exec::JitRunInfo JitInfo;
  exec::RunResult RR;
  try {
    RR = Entry->CP->run(Seed, &JitInfo);
  } catch (const std::bad_alloc &) {
    return makeError("resource-limit", "storage allocation failed");
  } catch (const std::length_error &E) {
    return makeError("resource-limit",
                     std::string("storage allocation failed: ") + E.what());
  }

  json::Value V = CompileResp;
  json::Value Scalars = json::Value::object();
  for (const auto &[Name, Val] : RR.ScalarsOut)
    Scalars.set(Name, json::Value::number(Val));
  V.set("scalars", Scalars);
  json::Value Arrays = json::Value::object();
  for (const auto &[Name, Data] : RR.LiveOut) {
    json::Value A = json::Value::object();
    A.set("elements",
          json::Value::number(static_cast<double>(Data.size())));
    double Sum = 0.0;
    for (double D : Data)
      Sum += D;
    A.set("sum", json::Value::number(Sum));
    Arrays.set(Name, A);
  }
  V.set("arrays", Arrays);
  xform::ExecMode Mode = Entry->CP->Mode;
  if (Mode == xform::ExecMode::NativeJit ||
      Mode == xform::ExecMode::NativeJitSimd) {
    json::Value J = json::Value::object();
    J.set("used_jit", json::Value::boolean(JitInfo.UsedJit));
    // The kernel was compiled (if at all) by the compile that filled this
    // cache entry, so only the request whose miss ran it reports it.
    J.set("compiled", json::Value::boolean(Outcome == CacheOutcome::Miss &&
                                           JitInfo.Compiled));
    if (!JitInfo.FallbackReason.empty())
      J.set("fallback", json::Value::str(JitInfo.FallbackReason));
    if (Mode == xform::ExecMode::NativeJitSimd) {
      J.set("vectorized_nests",
            json::Value::number(
                static_cast<double>(JitInfo.VectorizedNests)));
      J.set("vector_fallbacks",
            json::Value::number(
                static_cast<double>(JitInfo.VectorFallbacks)));
      J.set("reassociated", json::Value::boolean(JitInfo.Reassociated));
    }
    V.set("jit", J);
  }
  return V;
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> Lock(ShutdownMu);
    ShutdownRequested = true;
  }
  ShutdownCv.notify_all();
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> Lock(ShutdownMu);
    ShutdownCv.wait(Lock, [&] { return ShutdownRequested; });
  }
  // Teardown is idempotent and runs at most once: the first waiter (or
  // the destructor) flips Stopping and joins everything.
  if (Stopping.exchange(true, std::memory_order_acq_rel))
    return;
  if (Acceptor.joinable())
    Acceptor.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  std::vector<std::unique_ptr<Conn>> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    ToJoin.swap(Conns);
    // Unblock every live worker parked in readFrame; its own close()
    // then runs on an already-shut-down fd, which is harmless.
    for (auto &C : ToJoin)
      if (!C->Closed)
        ::shutdown(C->Fd, SHUT_RDWR);
  }
  for (auto &C : ToJoin)
    C->Worker.join();
  if (!Opts.SocketPath.empty())
    ::unlink(Opts.SocketPath.c_str());
}

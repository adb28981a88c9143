//===- serve/Server.h - alfd Unix-socket compile/execute server -*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The alfd server: listens on a Unix-domain socket, reads framed JSON
/// requests (serve/Protocol.h), and serves five ops:
///
///   health   -> {"ok", "service":"alfd", "protocol":N}
///   stats    -> request counters, cache hit/miss/coalesced, admission
///               rejections and request-latency p50/p95, all read from the
///               process-wide obs registry
///   compile  -> parse + Pipeline::tryCompile through the kernel cache;
///               reports the cache outcome and the strategy's numbers
///   execute  -> compile (cached) then run under the requested exec
///               mode; returns scalars and per-array digests
///   shutdown -> acknowledges, then stops the daemon
///
/// Threading model: one accept loop, one thread per connection, one
/// shared KernelCache whose misses run on a TaskQueue of
/// CompileThreads workers — so a cold ~300 ms compile occupies a
/// compile-queue slot, not a connection thread's attention, and warm
/// executes of already-cached programs proceed concurrently. For the
/// JIT modes the compile also emits and loads the kernel, so `cc` runs on
/// the compile queue too and a warm execute is marshal plus kernel call
/// (the process-wide JitEngine's single-flight keeps a kernel herd to one
/// cc invocation). Admission control caps concurrent
/// in-flight requests (busy error) and program bytes (too-large before
/// any parsing, enforced by the frame cap).
///
//===----------------------------------------------------------------------===//

#ifndef ALF_SERVE_SERVER_H
#define ALF_SERVE_SERVER_H

#include "serve/KernelCache.h"
#include "serve/Protocol.h"

#include "exec/NativeJit.h"
#include "support/ThreadPool.h"
#include "verify/Verify.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace alf {
namespace serve {

/// Configuration of one Server.
struct ServerOptions {
  /// Filesystem path the daemon listens on (required). An existing
  /// socket file at this path is replaced.
  std::string SocketPath;

  /// Workers on the compile queue — the bound on concurrently running
  /// pipeline compiles.
  unsigned CompileThreads = 2;

  /// Admission: concurrent requests beyond this are refused with "busy".
  unsigned MaxInFlight = 64;

  /// Admission: programs larger than this are refused with "too-large".
  /// Also the frame cap, so an oversized request is rejected from its
  /// length prefix without buffering the payload.
  uint32_t MaxProgramBytes = DefaultMaxFrameBytes;

  /// Verify level compiles run at when the request does not name one.
  verify::VerifyLevel Verify = verify::defaultVerifyLevel();

  exec::JitOptions Jit;
};

/// A running daemon. start() spawns the accept loop and returns; wait()
/// blocks until a shutdown request (or stop()) arrives. One Server per
/// socket path.
class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and listens; false with \p Error set when the socket cannot
  /// be set up. Raises the obs level to Counters when it is Off so the
  /// stats op always has latency data.
  bool start(std::string *Error);

  /// Blocks until a client's shutdown op or a stop() call, then tears
  /// the server down (joins every thread, removes the socket file).
  void wait();

  /// Requests shutdown from outside (signal handlers set a flag and call
  /// this from the main thread). Idempotent; safe before wait().
  void stop();

  /// The stats-op payload, also available in-process (alfd_load asserts
  /// on it after a run).
  json::Value statsJson() const;

  const ServerOptions &options() const { return Opts; }

private:
  struct Conn;

  void acceptLoop();
  void handleConnection(Conn &C);
  json::Value handleRequest(const json::Value &Req);
  json::Value handleCompile(const json::Value &Req,
                            std::shared_ptr<const CompiledEntry> *OutEntry,
                            CacheOutcome *OutOutcome);
  json::Value handleExecute(const json::Value &Req);
  json::Value handleStats() const;
  json::Value handleHealth() const;

  ServerOptions Opts;

  int ListenFd = -1;
  std::thread Acceptor;
  std::atomic<bool> Stopping{false};

  std::mutex ConnMu;
  std::vector<std::unique_ptr<Conn>> Conns;

  mutable std::mutex ShutdownMu;
  std::condition_variable ShutdownCv;
  bool ShutdownRequested = false;

  std::unique_ptr<TaskQueue> CompileQueue;
  std::unique_ptr<KernelCache> Cache;

  /// Requests admitted and not yet answered (admission control's gauge).
  std::atomic<uint64_t> NumInFlight{0};
};

} // namespace serve
} // namespace alf

#endif // ALF_SERVE_SERVER_H

//===- serve/KernelCache.h - Sharded single-flight compile cache -*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's in-memory cache of compiled programs, keyed by (program
/// content hash, strategy, exec mode, verify level) — everything that
/// changes the artifact. Lookups are sharded by key hash so unrelated
/// requests never contend on one mutex, and misses are single-flight: a
/// thundering herd of identical programs runs the ~300 ms parse +
/// analysis + scalarization exactly once while the rest block on the
/// entry's condition variable and share the result.
///
/// Compiles run through an optional TaskQueue (the daemon's compile
/// queue), bounding concurrent pipeline work to a fixed thread budget so
/// cold compiles never saturate the connection threads serving warm
/// executions. Failed compiles ARE cached (negatively): a daemon must
/// not re-parse a broken program per request — unlike the JIT disk
/// cache, whose retry-on-failure behavior serves interactive tools.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_SERVE_KERNELCACHE_H
#define ALF_SERVE_KERNELCACHE_H

#include "driver/Pipeline.h"
#include "ir/Program.h"
#include "support/ThreadPool.h"
#include "verify/Verify.h"
#include "xform/Strategy.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace alf {
namespace serve {

/// Everything that changes what a compile produces. Two requests with
/// equal keys may share one artifact.
struct CompileKey {
  uint64_t ProgramHash = 0; ///< exec::hashName of the source text
  xform::Strategy Strat = xform::Strategy::C2;
  xform::ExecMode Mode = xform::ExecMode::Sequential;
  verify::VerifyLevel Verify = verify::VerifyLevel::Structural;
  /// Registry name of a reduction-algebra override ("" = none). The same
  /// source text compiled under min-plus and plus-times yields different
  /// artifacts, so the override is part of the key.
  std::string Semiring;

  bool operator<(const CompileKey &O) const {
    if (ProgramHash != O.ProgramHash)
      return ProgramHash < O.ProgramHash;
    if (Strat != O.Strat)
      return Strat < O.Strat;
    if (Mode != O.Mode)
      return Mode < O.Mode;
    if (Verify != O.Verify)
      return Verify < O.Verify;
    return Semiring < O.Semiring;
  }
};

/// One cached compile outcome — success or failure. Immutable once
/// published; connection threads run CP concurrently (CompiledProgram::run
/// is const: the loop IR, the schedule and the prepared kernel have no
/// mutable state on the execute path). P owns the symbols CP references,
/// so the two live and die together here.
struct CompiledEntry {
  bool OK = false;
  std::string ErrorCode;    ///< "parse" or a driver::getCompileCodeName
  std::string ErrorMessage; ///< first diagnostic, one line

  /// Every verification finding ("[pass] message" renderings) behind a
  /// verify-rejected or unsafe-program failure. Cached with the entry so
  /// a negative-cache hit replays the full diagnosis, not just the
  /// leading line.
  std::vector<std::string> ErrorFindings;

  std::unique_ptr<ir::Program> P;
  std::optional<driver::CompiledProgram> CP;

  uint64_t CompileNs = 0; ///< wall time of the winning compile
};

/// How one get() was served.
enum class CacheOutcome {
  Hit,       ///< Entry was ready.
  Miss,      ///< This call ran the compile.
  Coalesced, ///< Another in-flight call ran it; this one waited.
};

/// Printable name ("hit", "miss", "coalesced") — stable wire strings.
const char *getCacheOutcomeName(CacheOutcome O);

/// The sharded single-flight cache. Thread-safe; entries are never
/// evicted (a daemon restart is the flush — program working sets are
/// small next to kernel memory).
class KernelCache {
public:
  using CompileFn = std::function<CompiledEntry()>;

  /// \p Dispatch, when non-null, runs every compile (bounding their
  /// concurrency); it must outlive the cache. Null compiles inline on
  /// the calling thread.
  explicit KernelCache(unsigned NumShards = 8, TaskQueue *Dispatch = nullptr);

  KernelCache(const KernelCache &) = delete;
  KernelCache &operator=(const KernelCache &) = delete;

  /// Returns the entry for \p Key, running \p Compile iff this is the
  /// first request for it. Hit and Coalesced callers never run
  /// \p Compile. Blocks until the entry is ready. \p Outcome (optional)
  /// reports how the call was served, and the process-wide obs counters
  /// `serve.cache.hit`, `serve.cache.miss` and `serve.cache.coalesced`
  /// count it.
  std::shared_ptr<const CompiledEntry> get(const CompileKey &Key,
                                           const CompileFn &Compile,
                                           CacheOutcome *Outcome = nullptr);

  /// Entries resident (ready or in flight).
  size_t size() const;

private:
  struct Slot {
    std::mutex Mu;
    std::condition_variable Ready;
    bool Done = false;
    std::shared_ptr<const CompiledEntry> Entry;
  };

  struct Shard {
    mutable std::mutex Mu;
    std::map<CompileKey, std::shared_ptr<Slot>> Slots;
  };

  Shard &shardFor(const CompileKey &Key);
  const Shard &shardFor(const CompileKey &Key) const;

  std::vector<std::unique_ptr<Shard>> Shards;
  TaskQueue *Dispatch;
};

} // namespace serve
} // namespace alf

#endif // ALF_SERVE_KERNELCACHE_H

//===- exec/NativeJit.h - Native JIT kernel backend ------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a scalarized LoopProgram as real machine code: the C backend
/// emits a kernel with a fixed `_entry(double **arrays, double *scalars)`
/// ABI, the system compiler turns it into a shared object, and the engine
/// dlopens it and runs it against exec::Storage — so the paper's eight
/// strategies are finally measured on hardware instead of the
/// interpreter.
///
/// Kernels are cached twice: in memory (per engine, by content hash) and
/// on disk (shared across processes and runs), keyed by a hash of the
/// emitted source, the compiler flags and the compiler version — so a
/// strategy sweep or the 50-seed stress harness pays each compile once,
/// and a toolchain upgrade invalidates stale objects automatically.
///
/// The fallback ladder keeps the backend total: emission failure, missing
/// compiler, compile failure/timeout, dlopen or dlsym failure each
/// degrade to the sequential interpreter with the reason recorded (and
/// counted by the `jit.fallbacks` obs counter), so callers always get a
/// result.
/// Results are bit-identical to the interpreter: the emitted helpers
/// mirror the interpreter's guarded arithmetic and kernels are compiled
/// with `-ffp-contract=off` and without fast-math.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_EXEC_NATIVEJIT_H
#define ALF_EXEC_NATIVEJIT_H

#include "exec/Interpreter.h"
#include "scalarize/CEmitter.h"
#include "scalarize/LoopIR.h"

#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>

namespace alf {
namespace exec {

/// Configuration of the native backend.
struct JitOptions {
  /// Kernel-cache directory; shared objects land here as
  /// `alf-<contenthash>.so`. Empty selects $ALF_JIT_CACHE_DIR, falling
  /// back to <tmp>/alf-kernel-cache.
  std::string CacheDir;

  /// Compiler driver invoked for kernels.
  std::string Compiler = "cc";

  /// Optimization/correctness flags. -ffp-contract=off (and the absence
  /// of fast-math) is what keeps native results bit-identical to the
  /// interpreter; changing flags changes the content hash.
  std::string Flags = "-std=c99 -O2 -ffp-contract=off -fPIC -shared";

  /// CPU-seconds budget for one compiler invocation; a runaway compile is
  /// killed and treated as a compile failure. 0 disables the limit.
  unsigned CompileTimeoutSec = 60;

  /// Selects the vectorizing emission mode (scalarize::CEmitOptions):
  /// loop nests the legality check certifies are emitted as explicit SIMD
  /// loops over the innermost FIND-LOOP-STRUCTURE dimension; the rest
  /// keep the scalar spelling. Results stay bit-identical to the
  /// interpreter except where a float + reduction is lane-split
  /// (JitRunInfo::Reassociated; compare with support::Tolerance).
  bool Vectorize = false;

  /// Upper bound, in bytes, on the on-disk kernel cache (shared objects
  /// plus their paired sources). After each install the oldest entries by
  /// modification time are evicted until the directory fits; the entry
  /// just installed is never evicted, and disk hits refresh an entry's
  /// mtime so hot kernels survive. 0 disables the bound.
  uint64_t MaxCacheBytes = 0;

  /// Flags for the sanitized harness build (runSanitized). -O1 keeps
  /// shadow checks on every access; -fno-sanitize-recover=all turns the
  /// first finding into a nonzero exit so the oracle's verdict is just
  /// the exit code.
  std::string SanitizeFlags = "-std=c99 -O1 -g -ffp-contract=off "
                              "-fsanitize=address,undefined "
                              "-fno-sanitize-recover=all";
};

/// Outcome of one runSanitized oracle run.
struct SanitizedRunResult {
  bool Ran = false;   ///< The harness compiled and executed.
  bool Clean = false; ///< Ran and exited 0: no sanitizer report.
  int ExitCode = -1;  ///< Harness exit code (sanitizers exit nonzero).
  std::string Output; ///< Emission/compile diagnostics or the report.
};

/// What happened on one JitEngine::run call (for tests and reports). For
/// a run of a prepared kernel, Compiled and the cache hits describe how
/// the kernel was prepared.
struct JitRunInfo {
  bool UsedJit = false;        ///< Kernel executed natively.
  bool Compiled = false;       ///< Preparing the kernel invoked the compiler.
  bool CacheHitMemory = false; ///< Served from this engine's loaded kernels.
  bool CacheHitDisk = false;   ///< Loaded a previously compiled .so.
  std::string FallbackReason;  ///< Why the interpreter ran instead ("" = jit).
  std::string SoPath;          ///< Cache entry backing this kernel.

  // Vectorize-mode outcome (JitOptions::Vectorize only).
  unsigned VectorizedNests = 0; ///< Nests emitted as SIMD loops.
  unsigned VectorFallbacks = 0; ///< Nests the legality check refused.
  bool Reassociated = false;    ///< A float + fold was lane-split.
};

/// One LoopProgram's kernel, prepared once by JitEngine::prepare: C
/// emitted, content-hashed, compiled or found in a cache, and loaded.
/// Running it (JitEngine::runPrepared) is argument marshalling plus one
/// call. Entry points into a kernel its engine installed, so a prepared
/// kernel must not outlive that engine (sharedJitEngine's never die). A
/// null Entry means a rung of the fallback ladder failed; runs then use
/// the interpreter and report Info.FallbackReason.
struct PreparedKernel {
  void (*Entry)(double **, double *) = nullptr;
  std::vector<const ir::ArraySymbol *> Arrays;   ///< arrays[] order
  std::vector<const ir::ScalarSymbol *> Scalars; ///< scalars[] order
  /// What preparing did: Compiled, the cache hits, SoPath, the fallback
  /// reason and the vectorize counts. UsedJit is left to the runs.
  JitRunInfo Info;
};

/// A JIT compilation engine: owns the loaded kernels of one process and
/// the handle bookkeeping. Thread-safe; one engine can serve every
/// strategy of a sweep so repeated shapes hit the in-memory cache.
///
/// Thread-safety contract (the serving layer dispatches many worker
/// threads into one engine):
///
///  - run/runOnStorage/prepare may be called concurrently from any
///    number of threads. Kernel lookup and installation are guarded by
///    the engine mutex; compilation, disk-cache I/O and dlopen run
///    UNLOCKED so a ~300 ms compile of one kernel never blocks warm
///    dispatch of another.
///  - Compiles are single-flight per content hash: the first thread to
///    miss marks the hash in-flight and compiles; later threads needing
///    the same hash block on a condition variable and are handed the
///    installed kernel — an N-thread thundering herd of one program
///    performs exactly one compiler invocation (asserted in debug
///    builds: installation requires the hash to be absent from the
///    loaded-kernel map). Failed compiles are not negative-cached: the
///    next waiter retries, preserving the retry behavior single-threaded
///    callers always had.
///  - Installed LoadedKernel entries are never erased before the engine
///    is destroyed, and std::map never moves mapped values, so the
///    pointer kernelFor returns stays valid (and Entry is immutable) for
///    the engine's lifetime; dispatch through it (runPrepared) needs no
///    lock.
///  - The disk-cache LRU bound (MaxCacheBytes) may evict an entry that a
///    concurrent thread or process is between installing and dlopening.
///    Eviction deletes oldest-mtime first and a just-installed entry is
///    mtime-newest (disk hits refresh mtime), so this is rare; when it
///    does happen the loser re-compiles or falls back to the
///    interpreter — never a wrong result. An already-dlopened kernel is
///    unaffected by deletion of its backing file (the mapping survives
///    unlink).
class JitEngine {
public:
  explicit JitEngine(JitOptions Opts = JitOptions());
  ~JitEngine();

  JitEngine(const JitEngine &) = delete;
  JitEngine &operator=(const JitEngine &) = delete;

  /// Runs \p LP natively on inputs seeded by \p Seed, falling back to the
  /// sequential interpreter when any step of the JIT ladder fails. Same
  /// observable semantics as exec::run on the same seed.
  RunResult run(const lir::LoopProgram &LP, uint64_t Seed,
                JitRunInfo *Info = nullptr);

  /// Executes \p LP natively against caller-provided storage, in place
  /// (the JIT counterpart of exec::runOnStorage): the kernel's array
  /// arguments are bound to \p Store's buffers and its scalar slots are
  /// copied in and back out, so the runtime engine can re-run one cached
  /// kernel against the live buffers of each flush. Falls back to the
  /// interpreter on the same storage when the JIT ladder fails.
  void runOnStorage(const lir::LoopProgram &LP, Storage &Store,
                    JitRunInfo *Info = nullptr);

  /// The first half of runOnStorage: emits, hashes and loads \p LP's
  /// kernel (compiling on a miss). Call once, then runPrepared per run.
  PreparedKernel prepare(const lir::LoopProgram &LP);

  /// The second half of runOnStorage: binds \p Store's buffers and
  /// scalar slots to \p K's arguments and calls the kernel, or runs the
  /// interpreter when \p K carries no entry point. \p Info, when
  /// non-null, receives K.Info with UsedJit set by this run.
  static void runPrepared(const PreparedKernel &K, const lir::LoopProgram &LP,
                          Storage &Store, JitRunInfo *Info = nullptr);

  /// The on-disk cache entry \p LP's kernel maps to under this engine's
  /// options (exists only after a successful compile). Tests use this to
  /// corrupt entries deliberately.
  std::string cachePathFor(const lir::LoopProgram &LP);

  /// Resolved cache directory.
  const std::string &cacheDir() const { return Opts.CacheDir; }

  /// True when \p Opts.Compiler can run at all (probed once per call).
  static bool compilerAvailable(const JitOptions &Opts = JitOptions());

private:
  struct LoadedKernel {
    void *Handle = nullptr;
    void (*Entry)(double **, double *) = nullptr;
  };

  /// Returns the entry point for \p Module's kernel, compiling and/or
  /// loading as needed; null with \p WhyNot set when every rung failed.
  /// Single-flight per content hash (see the class comment).
  LoadedKernel *kernelFor(const scalarize::CModule &Module, JitRunInfo &Info,
                          std::string &WhyNot);

  /// Disk probe + compile + dlopen, run without the engine lock while
  /// the content hash is claimed in InFlight.
  void compileAndLoad(const scalarize::CModule &Module, JitRunInfo &Info,
                      LoadedKernel &Out, std::string &WhyNot);

  const std::string &compilerVersion();

  JitOptions Opts;
  std::mutex Mutex;
  std::map<uint64_t, LoadedKernel> Kernels; // by content hash
  std::set<uint64_t> InFlight;              // hashes being compiled now
  std::condition_variable InFlightDone;     // signaled per finished compile
  std::string CompilerVersion;
  bool CompilerVersionProbed = false;
};

/// The process-wide engine for \p Opts, created on first use; one engine
/// per distinct option set (Vectorize included, so the scalar and SIMD
/// tiers stay apart). Engines are never destroyed, so kernels prepared
/// through them stay valid for the life of the process. Thread-safe.
JitEngine &sharedJitEngine(const JitOptions &Opts);

/// The sanitizer-tier dynamic oracle: emits \p LP's kernel together with
/// its self-seeding main() harness (scalarize::emitCWithHarnessChecked,
/// seeded with \p Seed), compiles it as a standalone executable with
/// \p Opts.SanitizeFlags, and runs it out of process. Clean means the
/// harness exited 0 — every load and store passed the ASan/UBSan checks
/// on real hardware — so the StressSweepTest sweep can assert that
/// programs the static safety checker certifies also run sanitizer-clean.
/// The dlopen JIT path cannot do this: the ASan runtime does not survive
/// into a shared object loaded by an unsanitized host. Returns Ran=false
/// (with the reason in Output) when any build step fails.
SanitizedRunResult runSanitized(const lir::LoopProgram &LP, uint64_t Seed,
                                const JitOptions &Opts = JitOptions());

} // namespace exec
} // namespace alf

#endif // ALF_EXEC_NATIVEJIT_H

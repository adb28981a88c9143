//===- exec/NativeJit.cpp - Native JIT kernel backend -----------------------===//

#include "exec/NativeJit.h"

#include "exec/Eval.h"
#include "obs/Obs.h"
#include "scalarize/CEmitter.h"
#include "support/Process.h"
#include "support/StringUtil.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <dlfcn.h>
#include <filesystem>
#include <fstream>
#include <memory>
#include <unistd.h>

using namespace alf;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::lir;

namespace {

ALF_COUNTER(NumJitRuns, "jit.runs",
            "Executions dispatched to the native backend");
ALF_COUNTER(NumJitCompiles, "jit.compiles", "Kernel compiler invocations");
ALF_COUNTER(NumJitCompileFailures, "jit.compile_failures",
            "Compiler invocations that failed or timed out");
ALF_COUNTER(NumJitCacheMemoryHits, "jit.cache.memory_hit",
            "Kernels served from the in-memory cache");
ALF_COUNTER(NumJitCacheDiskHits, "jit.cache.disk_hit",
            "Kernels loaded from the on-disk cache");
ALF_COUNTER(NumJitCacheCorrupt, "jit.cache.corrupt",
            "Corrupt on-disk cache entries discarded");
ALF_COUNTER(NumJitFallbacks, "jit.fallbacks",
            "Runs that fell back to the sequential interpreter");
ALF_COUNTER(NumJitCacheEvictions, "jit.cache.evictions",
            "On-disk cache entries evicted by the size bound");
ALF_COUNTER(NumSanitizedRuns, "jit.sanitized_runs",
            "Out-of-process sanitizer oracle executions");
ALF_COUNTER(NumSanitizedReports, "jit.sanitizer_reports",
            "Sanitizer oracle runs that reported a violation");
ALF_COUNTER(NumVectorizedNests, "jit.vectorize.nests",
            "Loop nests emitted as SIMD loops");
ALF_COUNTER(NumVectorizeFallbacks, "jit.vectorize.fallback",
            "Loop nests the SIMD legality check refused");
ALF_COUNTER(NumVectorizedRuns, "jit.vectorize.runs",
            "Vectorize-mode runs with at least one SIMD nest");
ALF_COUNTER(NumParallelNests, "jit.parallel_nests",
            "Kernel nests emitted to run in chunks on the shared pool");
ALF_COUNTER(NumParallelDispatches, "jit.parallel_dispatches",
            "Split nests a kernel handed to the shared pool");

/// KernelRuntime::ParallelFor on ThreadPool::shared(): one chunk per
/// pool thread.
void poolParallelFor(const KernelRuntime *, long Begin, long End,
                     void (*Body)(void *Env, long Begin, long End),
                     void *Env) {
  ++NumParallelDispatches;
  ThreadPool &Pool = ThreadPool::shared();
  Pool.parallelFor(Begin, End, Pool.numThreads(),
                   [Body, Env](int64_t Lo, int64_t Hi, unsigned) {
                     if (Lo < Hi)
                       Body(Env, Lo, Hi);
                   });
}

/// The kernel function name inside every emitted module.
constexpr const char *KernelName = "alf_kernel";

/// CPU-seconds budget for one compiler or harness invocation; a runaway
/// compile is killed and treated as a compile failure.
constexpr unsigned CompileTimeoutSec = 60;

/// Flags for the sanitized harness build (runSanitized). -O1 keeps shadow
/// checks on every access; -fno-sanitize-recover=all turns the first
/// finding into a nonzero exit so the oracle's verdict is just the exit
/// code.
constexpr const char *SanitizeFlags = "-std=c99 -O1 -g -ffp-contract=off "
                                      "-fsanitize=address,undefined "
                                      "-fno-sanitize-recover=all";

std::string defaultCacheDir() {
  if (const char *Env = std::getenv("ALF_JIT_CACHE_DIR"))
    if (*Env)
      return Env;
  std::error_code EC;
  std::filesystem::path Tmp = std::filesystem::temp_directory_path(EC);
  if (EC)
    Tmp = "/tmp";
  return (Tmp / "alf-kernel-cache").string();
}

/// Content hash of one kernel: emitted source + compile command +
/// compiler version. Any of the three changing yields a new cache entry.
uint64_t contentHash(const std::string &Source, const JitOptions &Opts,
                     const std::string &CompilerVersion) {
  return hashName(Source + '\x1f' + Opts.Compiler + ' ' + Opts.Flags +
                  '\x1f' + CompilerVersion);
}

std::string soPathFor(const std::string &CacheDir, uint64_t Hash) {
  return CacheDir + "/" +
         formatString("alf-%016llx.so",
                      static_cast<unsigned long long>(Hash));
}

uint64_t fileSizeOrZero(const std::filesystem::path &P) {
  std::error_code EC;
  uint64_t Size = std::filesystem::file_size(P, EC);
  return EC ? 0 : Size;
}

/// Shrinks the cache directory to \p MaxBytes by deleting whole entries
/// (.so plus paired .c) oldest-mtime first, never touching \p KeepSo.
/// Eviction only ever removes alf-*.so entries, so foreign files in a
/// shared temp directory are counted but left alone.
void evictCacheOverage(const std::string &CacheDir, uint64_t MaxBytes,
                       const std::string &KeepSo) {
  namespace fs = std::filesystem;
  struct Entry {
    fs::path So;
    fs::file_time_type MTime;
    uint64_t Bytes;
  };
  std::error_code EC;
  std::vector<Entry> Entries;
  uint64_t Total = 0;
  for (const auto &DirEnt : fs::directory_iterator(CacheDir, EC)) {
    if (!DirEnt.is_regular_file(EC))
      continue;
    fs::path P = DirEnt.path();
    if (P.filename().string().rfind("alf-", 0) != 0)
      continue;
    uint64_t Size = fileSizeOrZero(P);
    Total += Size;
    if (P.extension() != ".so")
      continue;
    Entry E;
    E.So = P;
    E.MTime = fs::last_write_time(P, EC);
    fs::path Src = P;
    Src.replace_extension(".c");
    E.Bytes = Size + fileSizeOrZero(Src);
    Entries.push_back(std::move(E));
  }
  if (Total <= MaxBytes)
    return;
  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) { return A.MTime < B.MTime; });
  for (const Entry &E : Entries) {
    if (Total <= MaxBytes)
      break;
    if (E.So.string() == KeepSo)
      continue;
    fs::path Src = E.So;
    Src.replace_extension(".c");
    fs::remove(E.So, EC);
    fs::remove(Src, EC);
    Total = Total > E.Bytes ? Total - E.Bytes : 0;
    ++NumJitCacheEvictions;
  }
}

} // namespace

JitEngine::JitEngine(JitOptions InOpts) : Opts(std::move(InOpts)) {
  if (Opts.CacheDir.empty())
    Opts.CacheDir = defaultCacheDir();
  // The vectorizing tier targets the host ISA: a JIT kernel runs on the
  // machine that compiled it, and without -march=native the compiler
  // lowers the emitted generic-vector ops to the portable SSE2 baseline
  // — scalarizing 4-lane compares and selects through memory, which is
  // slower than the scalar tier it is supposed to beat. -ffp-contract=off
  // still governs, and -O2 never reassociates FP, so the tier's only
  // numeric divergence remains the declared lane-fold reassociation.
  // (The scalar tier keeps the pinned portable flags; both flag strings
  // feed the content hash, so the tiers never collide in the cache.)
  // Vector types wider than the target's native registers also change
  // the ABI of the by-value lane helpers; they are module-internal
  // (static), so the -Wpsabi note is noise — silence it without
  // touching the correctness flags.
  if (Opts.Vectorize)
    Opts.Flags += " -march=native -Wno-psabi";
}

JitEngine::~JitEngine() {
  for (auto &[Hash, Kernel] : Kernels)
    if (Kernel.Handle)
      dlclose(Kernel.Handle);
}

bool JitEngine::compilerAvailable(const JitOptions &Opts) {
  return runCommand(Opts.Compiler + " --version > /dev/null").ok();
}

const std::string &JitEngine::compilerVersion() {
  if (!CompilerVersionProbed) {
    CompilerVersion = commandFirstLine(Opts.Compiler + " --version");
    CompilerVersionProbed = true;
  }
  return CompilerVersion;
}

JitEngine::LoadedKernel *JitEngine::kernelFor(const scalarize::CModule &Module,
                                              JitRunInfo &Info,
                                              std::string &WhyNot) {
  uint64_t Hash;
  {
    std::unique_lock<std::mutex> Lock(Mutex);

    std::string Version = compilerVersion();
    if (Version.empty()) {
      WhyNot = "compiler '" + Opts.Compiler + "' is not available";
      return nullptr;
    }

    Hash = contentHash(Module.Source, Opts, Version);
    Info.SoPath = soPathFor(Opts.CacheDir, Hash);

    // Single-flight admission: either the kernel is loaded (hit), or
    // someone else is compiling it (wait, then re-check), or this thread
    // claims the hash and compiles it below, unlocked. A waiter whose
    // winner failed falls out of the wait loop and becomes the next
    // compiler — failures are not negative-cached.
    for (;;) {
      auto It = Kernels.find(Hash);
      if (It != Kernels.end()) {
        Info.CacheHitMemory = true;
        obs::instant(NumJitCacheMemoryHits);
        return &It->second;
      }
      if (!InFlight.count(Hash)) {
        InFlight.insert(Hash);
        break;
      }
      InFlightDone.wait(Lock);
    }
  }

  // From here the hash is claimed: every exit must release it and wake
  // the waiters, whether a kernel was installed or not.
  LoadedKernel Compiled;
  std::string FailReason;
  compileAndLoad(Module, Info, Compiled, FailReason);

  std::lock_guard<std::mutex> Lock(Mutex);
  InFlight.erase(Hash);
  InFlightDone.notify_all();
  if (!Compiled.Entry) {
    WhyNot = std::move(FailReason);
    return nullptr;
  }
  assert(!Kernels.count(Hash) &&
         "single-flight violated: kernel compiled twice");
  return &Kernels.emplace(Hash, Compiled).first->second;
}

/// The unlocked slice of kernelFor: disk-cache probe, compile, install,
/// dlopen. Runs with the content hash claimed in InFlight, so no other
/// thread of this engine works on the same entry; cross-process races on
/// the shared directory are handled by the write-temp-then-rename
/// install. On success \p Out holds an open handle and entry pointer; on
/// failure \p WhyNot explains the rung that broke.
void JitEngine::compileAndLoad(const scalarize::CModule &Module,
                               JitRunInfo &Info, LoadedKernel &Out,
                               std::string &WhyNot) {
  auto LoadEntry = [&](void *Handle) -> bool {
    void *Sym = dlsym(Handle, Module.EntryName.c_str());
    if (!Sym)
      return false;
    Out.Handle = Handle;
    Out.Entry = reinterpret_cast<KernelEntry>(Sym);
    return true;
  };

  std::error_code EC;
  // Warm path: a previous process (or CI run) compiled this kernel.
  if (std::filesystem::exists(Info.SoPath, EC)) {
    void *Handle = dlopen(Info.SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (Handle) {
      if (LoadEntry(Handle)) {
        Info.CacheHitDisk = true;
        obs::instant(NumJitCacheDiskHits);
        // Refresh the entry's age so the LRU eviction bound keeps hot
        // kernels and drops cold ones.
        std::filesystem::last_write_time(
            Info.SoPath, std::filesystem::file_time_type::clock::now(), EC);
        return;
      }
      dlclose(Handle);
    }
    // Unloadable or missing the entry symbol: a corrupt or stale entry.
    // Discard it and recompile below.
    ++NumJitCacheCorrupt;
    std::filesystem::remove(Info.SoPath, EC);
  }

  // Cold path: write the source next to the object and compile into a
  // temp file, renaming only on success so concurrent processes never see
  // a half-written entry.
  std::filesystem::create_directories(Opts.CacheDir, EC);
  std::string SrcPath =
      Info.SoPath.substr(0, Info.SoPath.size() - 3) + ".c";
  {
    std::ofstream Src(SrcPath);
    Src << Module.Source;
    if (!Src) {
      WhyNot = "cannot write kernel source to " + SrcPath;
      return;
    }
  }
  std::string TmpSo = Info.SoPath + formatString(".tmp%d", getpid());
  std::string Cmd = Opts.Compiler + " " + Opts.Flags + " -o " + TmpSo + " " +
                    SrcPath + " -lm";
  Info.Compiled = true;
  ++NumJitCompiles;
  CommandResult CR = [&] {
    obs::Span S("jit.compile");
    return runCommand(Cmd, CompileTimeoutSec);
  }();
  if (!CR.ok()) {
    ++NumJitCompileFailures;
    std::filesystem::remove(TmpSo, EC);
    WhyNot = CR.TimedOut
                 ? formatString("compiler exceeded the %u s CPU budget",
                                CompileTimeoutSec)
                 : "compile failed: " +
                       (CR.Output.empty() ? "exit " +
                                                std::to_string(CR.ExitCode)
                                          : CR.Output);
    return;
  }
  std::filesystem::rename(TmpSo, Info.SoPath, EC);
  if (EC) {
    std::filesystem::remove(TmpSo, EC);
    WhyNot = "cannot install compiled kernel into the cache";
    return;
  }
  if (Opts.MaxCacheBytes)
    evictCacheOverage(Opts.CacheDir, Opts.MaxCacheBytes, Info.SoPath);

  void *Handle = dlopen(Info.SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    const char *Err = dlerror();
    WhyNot = std::string("dlopen failed: ") + (Err ? Err : "unknown error");
    return;
  }
  if (LoadEntry(Handle))
    return;
  dlclose(Handle);
  WhyNot = "entry symbol '" + Module.EntryName + "' missing from kernel";
}

scalarize::CModule JitEngine::emitModule(const LoopProgram &LP) const {
  scalarize::CEmitOptions EmitOpts;
  EmitOpts.Vectorize = Opts.Vectorize;
  return scalarize::emitCModule(LP, KernelName, EmitOpts);
}

PreparedKernel JitEngine::prepare(const LoopProgram &LP) {
  PreparedKernel K;
  scalarize::CModule Module = [&] {
    obs::Span S(Opts.Vectorize ? "jit.vectorize" : "jit.emit");
    return emitModule(LP);
  }();
  if (!Module.ok()) {
    K.Info.FallbackReason = "emission failed: " + Module.Error;
    return K;
  }
  if (Opts.Vectorize) {
    K.Info.VectorizedNests = Module.NumVectorizedNests;
    K.Info.VectorFallbacks = Module.NumVectorFallbacks;
    K.Info.Reassociated = Module.Reassociated;
    NumVectorizedNests += Module.NumVectorizedNests;
    for (unsigned I = 0; I < Module.NumVectorFallbacks; ++I)
      obs::instant(NumVectorizeFallbacks);
  }
  K.Info.ParallelNests = Module.NumParallelNests;
  NumParallelNests += Module.NumParallelNests;
  std::string WhyNot;
  LoadedKernel *Kernel = kernelFor(Module, K.Info, WhyNot);
  if (!Kernel) {
    K.Info.FallbackReason = std::move(WhyNot);
    return K;
  }
  K.Entry = Kernel->Entry;
  K.Arrays = std::move(Module.Arrays);
  K.Scalars = std::move(Module.Scalars);
  return K;
}

void JitEngine::runPrepared(const PreparedKernel &K, const LoopProgram &LP,
                            Storage &Store, JitRunInfo *OutInfo,
                            const KernelRuntime *Runtime) {
  ++NumJitRuns;
  if (K.Info.VectorizedNests)
    ++NumVectorizedRuns;

  // Marshal the caller-owned buffers in the module's argument order. The
  // emitter and Storage both lay arrays out over LP.storageBounds, so raw
  // pointers line up element for element.
  std::vector<double *> Arrays;
  const ArraySymbol *Missing = nullptr;
  if (K.Entry) {
    Arrays.reserve(K.Arrays.size());
    for (const ArraySymbol *A : K.Arrays) {
      ArrayBuffer *Buf = Store.buffer(A);
      if (!Buf) {
        Missing = A;
        break;
      }
      Arrays.push_back(Buf->data());
    }
  }
  if (!K.Entry || Missing) {
    ++NumJitFallbacks;
    if (OutInfo) {
      *OutInfo = K.Info;
      if (Missing)
        OutInfo->FallbackReason =
            "array '" + Missing->getName() + "' missing from storage";
    }
    exec::runOnStorage(LP, Store);
    return;
  }

  std::vector<double> Scalars;
  Scalars.reserve(K.Scalars.size());
  for (const ScalarSymbol *S : K.Scalars)
    Scalars.push_back(Store.getScalar(S));

  {
    obs::Span S("jit.dispatch");
    if (S.active())
      S.setBytes(Store.totalBytes());
    K.Entry(Arrays.data(), Scalars.data(), Runtime);
  }

  for (size_t I = 0; I < K.Scalars.size(); ++I)
    Store.setScalar(K.Scalars[I], Scalars[I]);

  if (OutInfo) {
    *OutInfo = K.Info;
    OutInfo->UsedJit = true;
  }
}

void JitEngine::runOnStorage(const LoopProgram &LP, Storage &Store,
                             JitRunInfo *OutInfo) {
  runPrepared(prepare(LP), LP, Store, OutInfo);
}

RunResult JitEngine::run(const LoopProgram &LP, uint64_t Seed,
                         JitRunInfo *OutInfo) {
  Storage Store = allocateStorage(LP, Seed);
  runOnStorage(LP, Store, OutInfo);
  return collectResults(LP, Store);
}

std::string JitEngine::cachePathFor(const LoopProgram &LP) {
  scalarize::CModule Module = emitModule(LP);
  if (!Module.ok())
    return "";
  std::lock_guard<std::mutex> Lock(Mutex);
  return soPathFor(Opts.CacheDir,
                   contentHash(Module.Source, Opts, compilerVersion()));
}

const KernelRuntime &exec::poolKernelRuntime() {
  static const KernelRuntime Runtime{poolParallelFor};
  return Runtime;
}

JitEngine &exec::sharedJitEngine(const JitOptions &Opts) {
  std::string Key = formatString(
      "%s\x1f%s\x1f%s\x1f%d\x1f%llu", Opts.CacheDir.c_str(),
      Opts.Compiler.c_str(), Opts.Flags.c_str(), Opts.Vectorize ? 1 : 0,
      static_cast<unsigned long long>(Opts.MaxCacheBytes));
  // Leaked on purpose: prepared kernels cached in other long-lived state
  // (daemon entries, runtime trace caches) point into these engines, and
  // no static destructor may unload them while such state is still live.
  struct Registry {
    std::mutex Mu;
    std::map<std::string, std::unique_ptr<JitEngine>> Engines;
  };
  static Registry *R = new Registry;
  std::lock_guard<std::mutex> Lock(R->Mu);
  std::unique_ptr<JitEngine> &E = R->Engines[Key];
  if (!E)
    E = std::make_unique<JitEngine>(Opts);
  return *E;
}

SanitizedRunResult exec::runSanitized(const LoopProgram &LP, uint64_t Seed,
                                      const JitOptions &InOpts) {
  SanitizedRunResult R;
  JitOptions Opts = InOpts;
  if (Opts.CacheDir.empty())
    Opts.CacheDir = defaultCacheDir();

  scalarize::CEmitOptions EmitOpts;
  EmitOpts.Vectorize = Opts.Vectorize;
  std::string Flags = SanitizeFlags;
  if (Opts.Vectorize)
    Flags += " -march=native -Wno-psabi";
  scalarize::CEmitResult Src =
      scalarize::emitCWithHarness(LP, KernelName, Seed, EmitOpts);
  if (!Src.ok()) {
    R.Output = "emission failed: " + Src.Error;
    return R;
  }

  // The harness is pid-suffixed and deleted after the run: a sanitized
  // executable is an oracle verdict, not a reusable kernel, so it never
  // enters the shared .so cache.
  std::error_code EC;
  std::filesystem::create_directories(Opts.CacheDir, EC);
  uint64_t Hash = hashName(Src.Source + '\x1f' + Opts.Compiler + ' ' + Flags);
  std::string Base =
      Opts.CacheDir + "/" +
      formatString("alf-san-%016llx-%d",
                   static_cast<unsigned long long>(Hash), getpid());
  std::string SrcPath = Base + ".c";
  std::string ExePath = Base + ".bin";
  {
    std::ofstream Out(SrcPath);
    Out << Src.Source;
    if (!Out) {
      R.Output = "cannot write harness source to " + SrcPath;
      return R;
    }
  }
  std::string Cmd =
      Opts.Compiler + " " + Flags + " -o " + ExePath + " " + SrcPath + " -lm";
  CommandResult Compile = [&] {
    obs::Span S("jit.sanitize.compile");
    return runCommand(Cmd, CompileTimeoutSec);
  }();
  if (!Compile.ok()) {
    std::filesystem::remove(SrcPath, EC);
    std::filesystem::remove(ExePath, EC);
    R.Output = Compile.TimedOut
                   ? formatString("sanitized compile exceeded the %u s "
                                  "CPU budget",
                                  CompileTimeoutSec)
                   : "sanitized compile failed: " + Compile.Output;
    return R;
  }

  ++NumSanitizedRuns;
  CommandResult Run = [&] {
    obs::Span S("jit.sanitize.run");
    return runCommand(ExePath, CompileTimeoutSec);
  }();
  std::filesystem::remove(SrcPath, EC);
  std::filesystem::remove(ExePath, EC);

  R.Ran = true;
  R.ExitCode = Run.ExitCode;
  R.Output = Run.Output;
  R.Clean = Run.ok() && !Run.TimedOut;
  if (!R.Clean)
    ++NumSanitizedReports;
  return R;
}

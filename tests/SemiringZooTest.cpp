//===- tests/SemiringZooTest.cpp - Workload zoo vs scalar references --------===//
//
// The semiring workload zoo validated against independent scalar
// references: Floyd–Warshall (min-plus) and transitive closure (or-and)
// as straightforward triple loops over an N×N matrix, k-NN best-score
// (max-times) as a plain fold. Every backend — sequential interpreter
// under every strategy, parallel executor, native JIT, and the runtime
// engine's trace path — must reproduce the reference bit-identically on
// the same controlled inputs, with full translation validation on.
//
// The references deliberately do NOT share any code with the compiler:
// they mirror the backends' fold semantics (std::fmin/fmax for the
// elementwise relax, which agree exactly with the semiring ⊕ on finite
// data) and the reference triple-loop iteration order the pivot-sweep
// programs encode through their scalar flow dependences.
//
//===----------------------------------------------------------------------===//

#include "benchprogs/Benchmarks.h"
#include "driver/Pipeline.h"
#include "exec/Eval.h"
#include "exec/Interpreter.h"
#include "exec/NativeJit.h"
#include "exec/ParallelExecutor.h"
#include "runtime/Runtime.h"
#include "support/StringUtil.h"
#include "verify/Verify.h"
#include "xform/Strategy.h"

#include <cmath>
#include <filesystem>
#include <gtest/gtest.h>
#include <unistd.h>

using namespace alf;
using namespace alf::benchprogs;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::xform;

namespace {

constexpr int64_t N = 6;

//===----------------------------------------------------------------------===//
// Controlled inputs. Exactly-representable values (quarters) so every
// backend's arithmetic on them is reproducible to the bit.
//===----------------------------------------------------------------------===//

double fwInput(int64_t I, int64_t J) {
  return 0.25 * static_cast<double>((I * 7 + J * 3) % 13) + 0.5;
}

double closureInput(int64_t I, int64_t J) {
  return (I * 5 + J * 3) % 7 < 3 ? 1.0 : 0.0;
}

double knnInput(int64_t J) {
  return 0.25 * static_cast<double>(J % 9) - 0.75;
}

//===----------------------------------------------------------------------===//
// Independent scalar references
//===----------------------------------------------------------------------===//

/// Classic Floyd–Warshall: D[i][j] = min(D[i][j], D[i][k] + D[k][j]) in
/// the canonical k-i-j order, which is exactly the statement order the
/// pivot-sweep program's scalar extracts pin down.
std::vector<double> fwReference() {
  std::vector<double> D(N * N);
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < N; ++J)
      D[I * N + J] = fwInput(I, J);
  for (int64_t K = 0; K < N; ++K)
    for (int64_t I = 0; I < N; ++I) {
      double S = D[I * N + K]; // the program's singleton ⊕-extract
      for (int64_t J = 0; J < N; ++J)
        D[I * N + J] = std::fmin(D[I * N + J], S + D[K * N + J]);
    }
  return D;
}

/// Boolean transitive closure: R[i][j] |= R[i][k] & R[k][j], computed on
/// {0,1} doubles the way the or-and kernel does (∧ as ×, ∨ as max).
std::vector<double> closureReference() {
  std::vector<double> D(N * N);
  for (int64_t I = 0; I < N; ++I)
    for (int64_t J = 0; J < N; ++J)
      D[I * N + J] = closureInput(I, J);
  for (int64_t K = 0; K < N; ++K)
    for (int64_t I = 0; I < N; ++I) {
      double S = D[I * N + K];
      for (int64_t J = 0; J < N; ++J)
        D[I * N + J] = std::fmax(D[I * N + J], S * D[K * N + J]);
    }
  return D;
}

/// k-NN best score for class \p C: max over j of f[j]² · 0.25·(C+1),
/// folded from the max-times identity 0 (all scores are nonnegative).
double knnReference(unsigned C) {
  double Best = 0.0;
  for (int64_t J = 0; J < N; ++J) {
    double V = knnInput(J) * knnInput(J) * (0.25 * (C + 1));
    Best = V > Best ? V : Best;
  }
  return Best;
}

//===----------------------------------------------------------------------===//
// Harness
//===----------------------------------------------------------------------===//

driver::PipelineOptions zooOptions() {
  driver::PipelineOptions PO;
  PO.Verify = verify::VerifyLevel::Full;
  return PO;
}

/// The loop program tryCompile produces for \p S. Its findings go to
/// \p Collected; a rejection also fails the test and yields a program
/// with no nests.
lir::LoopProgram zooCompile(driver::Pipeline &PL, Strategy S,
                            verify::VerifyReport &Collected) {
  driver::CompileStatus St = PL.tryCompile(driver::CompileRequest{S});
  Collected.take(St.Findings);
  EXPECT_TRUE(St.ok()) << getStrategyName(S) << ": " << St.Message;
  return St.Artifact ? std::move(St.Artifact->LP)
                     : lir::LoopProgram(PL.program());
}

const ArraySymbol *arrayNamed(const Program &P, const std::string &Name) {
  const Symbol *S = P.findSymbol(Name);
  return S ? dyn_cast<ArraySymbol>(S) : nullptr;
}

/// Overwrites the N persistent row buffers d0..dN-1 with \p In(row, col);
/// contracted temporaries have no buffers and need none.
void fillRows(const Program &P, Storage &Store,
              double (*In)(int64_t, int64_t)) {
  for (int64_t I = 0; I < N; ++I) {
    const ArraySymbol *A =
        arrayNamed(P, formatString("d%lld", static_cast<long long>(I)));
    ASSERT_NE(A, nullptr);
    ArrayBuffer *B = Store.buffer(A);
    ASSERT_NE(B, nullptr);
    for (int64_t J = 0; J < N; ++J)
      B->store({J + 1}, In(I, J));
  }
}

/// Compares every row of \p Res against the N×N reference \p Ref,
/// element-exactly.
void expectRowsEqual(const RunResult &Res, const std::vector<double> &Ref,
                     const std::string &What) {
  for (int64_t I = 0; I < N; ++I) {
    std::string Name = formatString("d%lld", static_cast<long long>(I));
    auto It = Res.LiveOut.find(Name);
    ASSERT_NE(It, Res.LiveOut.end()) << What << ": " << Name;
    ASSERT_EQ(It->second.size(), static_cast<size_t>(N)) << What;
    for (int64_t J = 0; J < N; ++J)
      EXPECT_EQ(It->second[static_cast<size_t>(J)], Ref[I * N + J])
          << What << ": " << Name << "[" << (J + 1) << "]";
  }
}

/// Runs one pivot-sweep program against the reference on every backend.
void checkPivotSweep(std::unique_ptr<Program> P,
                     double (*In)(int64_t, int64_t),
                     const std::vector<double> &Ref) {
  verify::VerifyReport Collected;
  driver::Pipeline PL(*P, zooOptions());

  // Sequential interpreter under every strategy: baseline (nothing
  // fused), greedy contraction, and contraction + width-limited fusion.
  for (Strategy S : {Strategy::Baseline, Strategy::C2, Strategy::C2F3}) {
    lir::LoopProgram LP = zooCompile(PL, S, Collected);
    Storage Store = allocateStorage(LP, /*Seed=*/1);
    fillRows(PL.program(), Store, In);
    runOnStorage(LP, Store);
    expectRowsEqual(collectResults(LP, Store), Ref,
                    std::string("interpreter/") + getStrategyName(S));
  }

  // Parallel executor on the contracted program.
  {
    lir::LoopProgram LP = zooCompile(PL, Strategy::C2F3, Collected);
    ParallelSchedule Sched = planParallelism(LP);
    Collected.take(verify::verifyParallelSafety(LP, Sched));
    ParallelOptions Opts;
    Opts.NumThreads = 3;
    Storage Store = allocateStorage(LP, /*Seed=*/1);
    fillRows(PL.program(), Store, In);
    runParallelOnStorage(LP, Store, Opts, Sched);
    expectRowsEqual(collectResults(LP, Store), Ref, "parallel/c2+f3");
  }

  // Native JIT on the contracted program.
  if (JitEngine::compilerAvailable()) {
    lir::LoopProgram LP = zooCompile(PL, Strategy::C2F3, Collected);
    std::string Dir =
        formatString("/tmp/alf_zoo_jit_%d", static_cast<int>(getpid()));
    JitOptions JO;
    JO.CacheDir = Dir;
    JitEngine Jit(JO);
    Storage Store = allocateStorage(LP, /*Seed=*/1);
    fillRows(PL.program(), Store, In);
    JitRunInfo Info;
    Jit.runOnStorage(LP, Store, &Info);
    EXPECT_TRUE(Info.UsedJit) << "jit fell back: " << Info.FallbackReason;
    expectRowsEqual(collectResults(LP, Store), Ref, "jit/c2+f3");
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }

  // Vectorizing JIT on the contracted program. The zoo's ⊕ folds are
  // compare selects (min-plus, or-and-as-max) that return one of their
  // operands bit-for-bit, so simdToleranceFor declares these programs
  // Exact and lane-splitting the reductions must still reproduce the
  // scalar reference to the bit — no ULP allowance.
  if (JitEngine::compilerAvailable()) {
    lir::LoopProgram LP = zooCompile(PL, Strategy::C2F3, Collected);
    EXPECT_EQ(scalarize::simdToleranceFor(LP), support::Tolerance::Exact);
    std::string Dir =
        formatString("/tmp/alf_zoo_simd_%d", static_cast<int>(getpid()));
    JitOptions JO;
    JO.CacheDir = Dir;
    JO.Vectorize = true;
    JitEngine Jit(JO);
    Storage Store = allocateStorage(LP, /*Seed=*/1);
    fillRows(PL.program(), Store, In);
    JitRunInfo Info;
    Jit.runOnStorage(LP, Store, &Info);
    EXPECT_TRUE(Info.UsedJit)
        << "jit-simd fell back: " << Info.FallbackReason;
    expectRowsEqual(collectResults(LP, Store), Ref, "jit-simd/c2+f3");
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }

  EXPECT_TRUE(Collected.ok())
      << "verification findings:\n" << Collected.str();
}

} // namespace

TEST(SemiringZooTest, FloydWarshallMatchesScalarReferenceEverywhere) {
  checkPivotSweep(buildFloydWarshall(N), fwInput, fwReference());
}

TEST(SemiringZooTest, TransitiveClosureMatchesScalarReferenceEverywhere) {
  std::vector<double> Ref = closureReference();
  // The closure kernel's outputs must stay exactly boolean.
  for (double V : Ref)
    ASSERT_TRUE(V == 0.0 || V == 1.0);
  checkPivotSweep(buildTransitiveClosure(N), closureInput, Ref);
}

TEST(SemiringZooTest, KnnBestScoresMatchScalarReference) {
  auto P = buildKnn(N);
  verify::VerifyReport Collected;
  driver::Pipeline PL(*P, zooOptions());

  for (Strategy S : {Strategy::Baseline, Strategy::C2F3}) {
    lir::LoopProgram LP = zooCompile(PL, S, Collected);
    Storage Store = allocateStorage(LP, /*Seed=*/1);
    const ArraySymbol *F = arrayNamed(PL.program(), "f");
    ASSERT_NE(F, nullptr);
    ArrayBuffer *B = Store.buffer(F);
    ASSERT_NE(B, nullptr);
    for (int64_t J = 0; J < N; ++J)
      B->store({J + 1}, knnInput(J));
    runOnStorage(LP, Store);
    RunResult Res = collectResults(LP, Store);
    for (unsigned C = 0; C < 5; ++C) {
      auto It = Res.ScalarsOut.find(formatString("best%u", C));
      ASSERT_NE(It, Res.ScalarsOut.end()) << getStrategyName(S);
      EXPECT_EQ(It->second, knnReference(C))
          << getStrategyName(S) << " best" << C;
    }
  }

  // The same folds through the vectorizing JIT: max-times is an Exact
  // semiring (⊕ selects an operand), so the lane-split accumulators must
  // still land on the reference bit-for-bit.
  if (JitEngine::compilerAvailable()) {
    lir::LoopProgram LP = zooCompile(PL, Strategy::C2F3, Collected);
    EXPECT_EQ(scalarize::simdToleranceFor(LP), support::Tolerance::Exact);
    std::string Dir =
        formatString("/tmp/alf_zoo_knn_simd_%d", static_cast<int>(getpid()));
    JitOptions JO;
    JO.CacheDir = Dir;
    JO.Vectorize = true;
    JitEngine Jit(JO);
    Storage Store = allocateStorage(LP, /*Seed=*/1);
    const ArraySymbol *F = arrayNamed(PL.program(), "f");
    ASSERT_NE(F, nullptr);
    ArrayBuffer *B = Store.buffer(F);
    ASSERT_NE(B, nullptr);
    for (int64_t J = 0; J < N; ++J)
      B->store({J + 1}, knnInput(J));
    JitRunInfo Info;
    Jit.runOnStorage(LP, Store, &Info);
    EXPECT_TRUE(Info.UsedJit)
        << "jit-simd fell back: " << Info.FallbackReason;
    RunResult Res = collectResults(LP, Store);
    for (unsigned C = 0; C < 5; ++C) {
      auto It = Res.ScalarsOut.find(formatString("best%u", C));
      ASSERT_NE(It, Res.ScalarsOut.end()) << "jit-simd best" << C;
      EXPECT_EQ(It->second, knnReference(C)) << "jit-simd best" << C;
    }
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC);
  }

  EXPECT_TRUE(Collected.ok())
      << "verification findings:\n" << Collected.str();
}

// The same Floyd–Warshall computation issued through the runtime
// engine's deferred-trace API: singleton min-plus extracts via
// Engine::reduce(Semiring), candidate rows via compute, relaxes via
// update. The trace auto-flushes several times mid-sweep (the length
// cap), so this also covers reduction results crossing flush boundaries.
TEST(SemiringZooTest, RuntimeEngineFloydWarshallMatchesReference) {
  using namespace alf::runtime;
  EngineOptions EO;
  EO.Verify = verify::VerifyLevel::Full;
  Engine E(EO);
  Region R = Region::fromExtents({N});

  std::vector<Array> Row;
  for (int64_t I = 0; I < N; ++I) {
    Row.push_back(E.input(
        formatString("d%lld", static_cast<long long>(I)), R));
    std::vector<double> Init(static_cast<size_t>(N));
    for (int64_t J = 0; J < N; ++J)
      Init[static_cast<size_t>(J)] = fwInput(I, J);
    Row.back().setAll(Init);
  }

  for (int64_t K = 0; K < N; ++K) {
    Region Pivot({K + 1}, {K + 1});
    for (int64_t I = 0; I < N; ++I) {
      Scalar S = E.reduce(semiring::minPlus(), Pivot, Ex(Row[I]));
      Ex Cand = Ex(S) + Ex(Row[K]);
      E.update(Row[I], Offset({0}), R, emin(Ex(Row[I]), Cand));
    }
  }
  E.flush();

  std::vector<double> Ref = fwReference();
  for (int64_t I = 0; I < N; ++I) {
    std::vector<double> Got = Row[I].values();
    ASSERT_EQ(Got.size(), static_cast<size_t>(N));
    for (int64_t J = 0; J < N; ++J)
      EXPECT_EQ(Got[static_cast<size_t>(J)], Ref[I * N + J])
          << "d" << I << "[" << (J + 1) << "]";
  }
}

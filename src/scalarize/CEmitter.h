//===- scalarize/CEmitter.h - C code generation ----------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits a compilable C99 translation unit from a scalarized LoopProgram —
/// the code an array-language compiler hands to the node compiler. Arrays
/// become flat row-major `double *` parameters laid out over their
/// LoopProgram::storageBounds; contracted arrays become locals; reductions become
/// accumulator loops; program scalars are passed by pointer (in/out).
///
/// `emitCWithHarness` additionally emits a `main` that allocates and
/// seeds every array exactly as the ALF interpreter does (same SplitMix64
/// streams keyed by array name), runs the kernel, and prints a checksum
/// per live-out array plus every scalar — so the emitted code can be
/// validated end-to-end against `exec::run` (see CEmitterTest).
///
//===----------------------------------------------------------------------===//

#ifndef ALF_SCALARIZE_CEMITTER_H
#define ALF_SCALARIZE_CEMITTER_H

#include "scalarize/LoopIR.h"
#include "support/Ulp.h"

#include <cstdint>
#include <string>
#include <vector>

namespace alf {
namespace scalarize {

/// Emission knobs. The default is the scalar backend (bit-identical to
/// the interpreter by construction). With `Vectorize` set, every loop
/// nest whose innermost FIND-LOOP-STRUCTURE dimension the legality check
/// can certify — provably stride-1 for all referenced arrays (via the
/// analysis/Intervals domain), increasing direction, no dependence
/// carried across lanes — is emitted as an explicit SIMD loop over GNU
/// vector-extension types: restrict-qualified array parameters, a main
/// loop stepping four lanes, a peeled scalar remainder, and
/// ⊕-accumulators kept in vector lanes (seeded with the identity from
/// the nest's ScalarInits) and folded back in lane order at loop exit.
/// Nests that fail the check keep the exact scalar spelling.
///
/// Divergence contract: elementwise vector code applies the same guarded
/// scalar helpers per lane and is bit-identical; Compare/Bitwise ⊕ folds
/// (min/max/or — every Exact semiring) select operand bits and are also
/// bit-identical; only Arith ⊕ folds (float +) are reassociated by the
/// lane split, and CModule::Reassociated reports when that happened.
struct CEmitOptions {
  bool Vectorize = false;
};

/// Status-returning outcome of C emission: the translation unit, or the
/// reason the program cannot be emitted (Error nonempty). Callers that
/// can recover — the native JIT's interpreter fallback above all — use
/// the checked entry points; the legacy string-returning entry points
/// abort on the same conditions.
struct CEmitResult {
  std::string Source;
  std::string Error;

  bool ok() const { return Error.empty(); }
};

/// A translation unit with a fixed-ABI entry point for dynamic loading,
/// plus the metadata a caller needs to marshal arguments:
///
///   void <FnName>_entry(double **arrays, double *scalars);
///
/// `arrays[i]` is the caller-owned row-major buffer of `Arrays[i]` over
/// its LoopProgram::storageBounds, exactly as exec::Storage allocates it.
/// `scalars[i]` is the in/out value of `Scalars[i]`.
struct CModule {
  std::string Source;
  std::string EntryName;
  std::vector<const ir::ArraySymbol *> Arrays;   ///< arrays[] order
  std::vector<const ir::ScalarSymbol *> Scalars; ///< scalars[] order
  std::string Error;

  // Vectorization outcome (CEmitOptions::Vectorize only; all zero/false
  // for scalar emission).
  unsigned NumVectorizedNests = 0;  ///< nests emitted as SIMD loops
  unsigned NumVectorFallbacks = 0;  ///< nests the legality check refused
  bool Reassociated = false; ///< a vectorized nest reordered a float + fold

  bool ok() const { return Error.empty(); }
};

/// Emits the kernel function \p FnName implementing \p LP. Aborts on
/// unsupported constructs; prefer emitCChecked where recovery matters.
std::string emitC(const lir::LoopProgram &LP, const std::string &FnName);

/// Emits the kernel plus a self-contained main() harness seeded with
/// \p Seed (matching exec::run's initialization).
std::string emitCWithHarness(const lir::LoopProgram &LP,
                             const std::string &FnName, uint64_t Seed);

/// Like emitC, but reports unsupported constructs as an error result
/// instead of aborting.
CEmitResult emitCChecked(const lir::LoopProgram &LP, const std::string &FnName);

/// Like emitCWithHarness, but status-returning; \p Opts selects the
/// scalar or vectorizing backend (the sanitizer oracle compiles the
/// vectorized harness with this).
CEmitResult emitCWithHarnessChecked(const lir::LoopProgram &LP,
                                    const std::string &FnName, uint64_t Seed,
                                    const CEmitOptions &Opts = CEmitOptions());

/// Emits the kernel plus the `<FnName>_entry` ABI wrapper for the native
/// JIT backend (exec/NativeJit). Status-returning: Error is set instead
/// of aborting when the program cannot be emitted.
CModule emitCModule(const lir::LoopProgram &LP, const std::string &FnName,
                    const CEmitOptions &Opts = CEmitOptions());

/// The declared tolerance a differential comparison of \p LP between the
/// scalar and vectorizing backends must use: ReassociatedFloat when the
/// program contains a reduction whose ⊕ lane-folds arithmetically (float
/// +, whose reassociation changes rounding), Exact otherwise — exact
/// semirings (min-plus, or-and, ...) and purely elementwise programs get
/// no ULP budget at all.
support::Tolerance simdToleranceFor(const lir::LoopProgram &LP);

/// Fault-injection modes for testing the vectorizer's legality check,
/// mirroring setScalarizeCorruptionForTest: each mode makes the next
/// vectorizing emission see one planted hazard.
enum class VectorizeFault {
  None,
  /// Every nest presents a synthetic dependence carried by its innermost
  /// loop — the cross-lane hazard SIMD execution would violate. The
  /// legality check must refuse every nest and fall back to the scalar
  /// spelling (counted in CModule::NumVectorFallbacks and the
  /// jit.vectorize statistics).
  CarriedInnermost,
};

/// Installs \p Mode for subsequent vectorizing emissions. Never called by
/// the pipeline; NativeJitTest plants the hazard and asserts the fallback
/// statistic moved. Scalar emission ignores the hook.
void setVectorizeFaultForTest(VectorizeFault Mode);

/// Whether the most recent vectorizing emission actually saw the planted
/// fault (i.e. it had at least one nest to refuse).
bool vectorizeFaultAppliedForTest();

} // namespace scalarize
} // namespace alf

#endif // ALF_SCALARIZE_CEMITTER_H

//===- exec/Eval.h - Shared loop-nest evaluation core ----------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation core shared by the sequential interpreter and the
/// parallel executor: expression evaluation, scalar-statement execution,
/// opaque-statement semantics and loop-nest iteration over a LoopProgram.
/// An EvalContext names the storage to run against; the parallel
/// executor additionally installs a per-thread scalar overlay so that
/// contracted arrays' replacement scalars stay thread-private while
/// array buffers and read-only parameters remain shared.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_EXEC_EVAL_H
#define ALF_EXEC_EVAL_H

#include "exec/Interpreter.h"
#include "exec/Storage.h"
#include "scalarize/LoopIR.h"

#include <map>
#include <vector>

namespace alf {
namespace exec {

/// Execution context for one run (or one thread of one run). Scalars —
/// program parameters, reduction accumulators and contracted arrays'
/// replacements alike — live in the Storage scalar environment; when a
/// ScalarOverlay is installed, scalar writes land in the overlay and
/// reads prefer it, leaving the shared environment untouched.
struct EvalContext {
  Storage *Store = nullptr;
  const lir::LoopProgram *LP = nullptr;
  std::map<unsigned, double> *ScalarOverlay = nullptr;

  double readScalar(const ir::ScalarSymbol *S) const {
    if (ScalarOverlay) {
      auto It = ScalarOverlay->find(S->getId());
      if (It != ScalarOverlay->end())
        return It->second;
    }
    return Store->getScalar(S);
  }

  void writeScalar(const ir::ScalarSymbol *S, double V) {
    if (ScalarOverlay)
      (*ScalarOverlay)[S->getId()] = V;
    else
      Store->setScalar(S, V);
  }

  /// Maps absolute coordinates into a partially contracted array's
  /// rolling buffer; identity for fully allocated arrays.
  void wrapCoords(const ir::ArraySymbol *A, std::vector<int64_t> &At) const;
};

/// Evaluates \p E at loop indices \p Idx.
double evalExpr(const ir::Expr *E, const EvalContext &Ctx,
                const std::vector<int64_t> &Idx);

/// Executes one element-wise statement at loop indices \p Idx.
void execScalarStmt(const lir::ScalarStmt &S, EvalContext &Ctx,
                    const std::vector<int64_t> &Idx);

/// Deterministic element-wise semantics for opaque statements.
void execOpaqueStmt(const ir::OpaqueStmt &O, EvalContext &Ctx);

/// Runs loops [FromLoop..rank) of \p Nest; the Idx components of all
/// outer loops' dimensions must already be set. FromLoop == rank runs
/// the body once at Idx.
void runNestLoops(const lir::LoopNest &Nest, EvalContext &Ctx,
                  std::vector<int64_t> &Idx, unsigned FromLoop);

/// Like runNestLoops starting at \p SplitLoop, but with that loop
/// restricted to the absolute inclusive range [\p Lo .. \p Hi] (iterated
/// in the loop's own direction). The parallel executor hands each worker
/// one such tile.
void runNestLoopsRestricted(const lir::LoopNest &Nest, EvalContext &Ctx,
                            std::vector<int64_t> &Idx, unsigned SplitLoop,
                            int64_t Lo, int64_t Hi);

/// Initializes the nest's reduction accumulators and runs the whole nest
/// sequentially in LSV order.
void iterateNest(const lir::LoopNest &Nest, EvalContext &Ctx);

/// Extracts the observable result (live-out arrays, program scalars).
/// Consumes \p Store's live-out buffers: each one moves into the result
/// without a copy, so it must not be read again (asserted in debug
/// builds). Store.totalBytes() and the other buffers are unchanged.
RunResult collectResults(const lir::LoopProgram &LP, Storage &Store);

} // namespace exec
} // namespace alf

#endif // ALF_EXEC_EVAL_H

//===- exec/Eval.h - Shared loop-nest evaluation core ----------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The evaluation core shared by the sequential interpreter, the parallel
/// executor and the distributed simulator: expression evaluation,
/// scalar-statement execution, opaque-statement semantics and loop-nest
/// iteration over a LoopProgram (the performance model walks nests in the
/// same loop order). An EvalContext names the storage to run against.
/// The parallel executor installs a per-thread scalar overlay, so that
/// contracted arrays' replacement scalars stay thread-private while array
/// buffers and read-only parameters remain shared; the distributed
/// simulator runs each processor on its own storage with one overlay
/// shared by all of them.
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

/// Calls \p Visit(Idx) at every point of \p Box in the loop order of
/// \p Order: loop 0 outermost, each loop walking its dimension of \p Box
/// in its own direction. Only loops [0, \p Loops) are walked; the other
/// dimensions of Idx stay at \p Box's lower bounds. Every executor that
/// walks a nest (the interpreter, the parallel executor's outer loops, the
/// performance model, the distributed simulator) walks it this way.
template <typename Fn>
void forEachInLoopOrder(const xform::LoopStructureVector &Order,
                        const ir::Region &Box, unsigned Loops, Fn &&Visit) {
  std::vector<int64_t> Idx(Box.rank());
  for (unsigned D = 0; D < Box.rank(); ++D)
    Idx[D] = Box.lo(D);
  auto Walk = [&](auto &Self, unsigned Loop) -> void {
    if (Loop == Loops) {
      Visit(static_cast<const std::vector<int64_t> &>(Idx));
      return;
    }
    unsigned Dim = Order.dimOf(Loop);
    if (Order.dirOf(Loop) > 0) {
      for (int64_t I = Box.lo(Dim); I <= Box.hi(Dim); ++I) {
        Idx[Dim] = I;
        Self(Self, Loop + 1);
      }
    } else {
      for (int64_t I = Box.hi(Dim); I >= Box.lo(Dim); --I) {
        Idx[Dim] = I;
        Self(Self, Loop + 1);
      }
    }
  };
  Walk(Walk, 0);
}

/// Runs \p Nest's body at every point of \p Box (the nest's region, a
/// processor's slice of it or a parallel tile) in LSV order. Accumulators
/// are not initialized.
void runNestLoops(const lir::LoopNest &Nest, EvalContext &Ctx,
                  const ir::Region &Box);

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

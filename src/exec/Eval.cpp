//===- exec/Eval.cpp - Shared loop-nest evaluation core ---------------------===//

#include "exec/Eval.h"

#include "support/Casting.h"
#include "support/ErrorHandling.h"

using namespace alf;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::lir;

void EvalContext::wrapCoords(const ArraySymbol *A,
                             std::vector<int64_t> &At) const {
  const xform::PartialPlan *Plan = LP->partialPlanFor(A);
  if (!Plan)
    return;
  for (unsigned D = 0; D < At.size(); ++D)
    At[D] = Plan->wrap(D, At[D]);
}

double exec::evalExpr(const Expr *E, const EvalContext &Ctx,
                      const std::vector<int64_t> &Idx) {
  if (const auto *C = dyn_cast<ConstExpr>(E))
    return C->getValue();
  if (const auto *S = dyn_cast<ScalarRefExpr>(E))
    return Ctx.readScalar(S->getSymbol());
  if (const auto *A = dyn_cast<ArrayRefExpr>(E)) {
    const ArrayBuffer *Buf = Ctx.Store->buffer(A->getSymbol());
    if (!Buf)
      alf_unreachable("read of an array without storage");
    std::vector<int64_t> At(Idx.size());
    for (unsigned D = 0; D < Idx.size(); ++D)
      At[D] = Idx[D] + A->getOffset()[D];
    Ctx.wrapCoords(A->getSymbol(), At);
    return Buf->load(At);
  }
  if (const auto *U = dyn_cast<UnaryExpr>(E))
    return UnaryExpr::evaluate(U->getOpcode(),
                               evalExpr(U->getOperand(), Ctx, Idx));
  const auto *B = cast<BinaryExpr>(E);
  return BinaryExpr::evaluate(B->getOpcode(), evalExpr(B->getLHS(), Ctx, Idx),
                              evalExpr(B->getRHS(), Ctx, Idx));
}

void exec::execScalarStmt(const ScalarStmt &S, EvalContext &Ctx,
                          const std::vector<int64_t> &Idx) {
  double V = evalExpr(S.RHS.get(), Ctx, Idx);
  if (S.LHS.isScalar()) {
    if (S.Accumulate)
      V = S.SR->combine(Ctx.readScalar(S.LHS.Scalar), V);
    Ctx.writeScalar(S.LHS.Scalar, V);
    return;
  }
  ArrayBuffer *Buf = Ctx.Store->buffer(S.LHS.Array);
  if (!Buf)
    alf_unreachable("write to an array without storage");
  std::vector<int64_t> At(Idx.size());
  for (unsigned D = 0; D < Idx.size(); ++D)
    At[D] = Idx[D] + S.LHS.Off[D];
  Ctx.wrapCoords(S.LHS.Array, At);
  Buf->store(At, V);
}

void exec::runNestLoops(const LoopNest &Nest, EvalContext &Ctx,
                        const Region &Box) {
  forEachInLoopOrder(Nest.LSV, Box, Box.rank(),
                     [&](const std::vector<int64_t> &Idx) {
                       for (const ScalarStmt &S : Nest.Body)
                         execScalarStmt(S, Ctx, Idx);
                     });
}

void exec::iterateNest(const LoopNest &Nest, EvalContext &Ctx) {
  for (const lir::ScalarInit &SI : Nest.ScalarInits)
    Ctx.writeScalar(SI.Acc, SI.Init);
  runNestLoops(Nest, Ctx, *Nest.R);
}

void exec::execOpaqueStmt(const OpaqueStmt &O, EvalContext &Ctx) {
  const Region *R = O.getRegion();
  if (!R) {
    double V = 1.0;
    for (const ScalarSymbol *S : O.scalarReads())
      V += 0.5 * Ctx.readScalar(S);
    unsigned Ordinal = 0;
    for (const ScalarSymbol *S : O.scalarWrites())
      Ctx.writeScalar(S, V + Ordinal++);
    return;
  }

  double ScalarBase = 1.0;
  for (const ScalarSymbol *S : O.scalarReads())
    ScalarBase += 0.5 * Ctx.readScalar(S);

  std::vector<double> ScalarAccum(O.scalarWrites().size(), 0.0);
  forEachPoint(*R, [&](const std::vector<int64_t> &Idx) {
    double V = ScalarBase;
    for (const ArraySymbol *A : O.arrayReads())
      if (const ArrayBuffer *Buf = Ctx.Store->buffer(A))
        if (Buf->bounds().rank() == Idx.size())
          V += 0.5 * Buf->load(Idx);
    unsigned Ordinal = 0;
    for (const ArraySymbol *A : O.arrayWrites())
      if (ArrayBuffer *Buf = Ctx.Store->buffer(A))
        if (Buf->bounds().rank() == Idx.size())
          Buf->store(Idx, V + Ordinal++);
    for (double &Acc : ScalarAccum)
      Acc += V;
  });

  double Scale = 1.0 / static_cast<double>(R->size());
  for (size_t I = 0; I < O.scalarWrites().size(); ++I)
    Ctx.writeScalar(O.scalarWrites()[I], ScalarAccum[I] * Scale);
}

RunResult exec::collectResults(const LoopProgram &LP, Storage &Store) {
  const Program &P = LP.source();
  RunResult Result;
  for (const ArraySymbol *A : P.arrays()) {
    if (!A->isLiveOut())
      continue;
    if (ArrayBuffer *Buf = Store.buffer(A))
      Result.LiveOut.emplace(A->getName(), Buf->take());
  }
  for (const Symbol *Sym : P.symbols())
    if (const auto *Sc = dyn_cast<ScalarSymbol>(Sym))
      Result.ScalarsOut.emplace(Sc->getName(), Store.getScalar(Sc));
  return Result;
}

//===- exec/Interpreter.cpp - Concrete loop-nest interpreter ----------------===//

#include "exec/Interpreter.h"

#include "exec/Eval.h"
#include "obs/Obs.h"
#include "support/Casting.h"
#include "support/StringUtil.h"

#include <cmath>
#include <string>

using namespace alf;
using namespace alf::exec;
using namespace alf::ir;
using namespace alf::lir;

void exec::runOnStorage(const LoopProgram &LP, Storage &Store) {
  obs::Span Outer("exec.interpreter");
  if (Outer.active())
    Outer.setBytes(Store.totalBytes());

  EvalContext Ctx;
  Ctx.Store = &Store;
  Ctx.LP = &LP;

  for (const auto &NodePtr : LP.nodes()) {
    if (const auto *Nest = dyn_cast<LoopNest>(NodePtr.get())) {
      // One row for every nest; the trace tells nests apart by cluster id.
      obs::Span S("kernel.nest", obs::tracing()
                                     ? std::to_string(Nest->ClusterId)
                                     : std::string());
      iterateNest(*Nest, Ctx);
      continue;
    }
    if (isa<CommOp>(NodePtr.get()))
      continue; // single address space: halo exchange is a no-op
    execOpaqueStmt(*cast<OpaqueOp>(NodePtr.get())->Src, Ctx);
  }
}

RunResult exec::run(const LoopProgram &LP, uint64_t Seed) {
  Storage Store = allocateStorage(LP, Seed);
  runOnStorage(LP, Store);
  return collectResults(LP, Store);
}

bool exec::resultsMatch(const RunResult &A, const RunResult &B, double Tol,
                        std::string *WhyNot) {
  if (A.LiveOut.size() != B.LiveOut.size()) {
    if (WhyNot)
      *WhyNot = "different live-out array sets";
    return false;
  }
  for (const auto &[Name, DataA] : A.LiveOut) {
    auto It = B.LiveOut.find(Name);
    if (It == B.LiveOut.end()) {
      if (WhyNot)
        *WhyNot = "array " + Name + " missing from second result";
      return false;
    }
    const auto &DataB = It->second;
    if (DataA.size() != DataB.size()) {
      if (WhyNot)
        *WhyNot = "array " + Name + " has different sizes";
      return false;
    }
    for (size_t I = 0; I < DataA.size(); ++I) {
      double Diff = std::fabs(DataA[I] - DataB[I]);
      if (Diff > Tol && !(std::isnan(DataA[I]) && std::isnan(DataB[I]))) {
        if (WhyNot)
          *WhyNot = formatString("array %s element %zu differs: %g vs %g",
                                 Name.c_str(), I, DataA[I], DataB[I]);
        return false;
      }
    }
  }
  for (const auto &[Name, VA] : A.ScalarsOut) {
    auto It = B.ScalarsOut.find(Name);
    if (It == B.ScalarsOut.end()) {
      if (WhyNot)
        *WhyNot = "scalar " + Name + " missing from second result";
      return false;
    }
    // Reduction order varies with loop structure, so scalar results are
    // compared with a relative tolerance floor even when Tol is 0.
    double RelTol = std::max(Tol, 1e-9 * (std::fabs(VA) + 1.0));
    if (std::fabs(VA - It->second) > RelTol &&
        !(std::isnan(VA) && std::isnan(It->second))) {
      if (WhyNot)
        *WhyNot = formatString("scalar %s differs: %g vs %g", Name.c_str(),
                               VA, It->second);
      return false;
    }
  }
  return true;
}

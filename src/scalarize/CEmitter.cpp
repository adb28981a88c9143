//===- scalarize/CEmitter.cpp - C code generation -----------------------------===//

#include "scalarize/CEmitter.h"

#include "analysis/Intervals.h"
#include "support/ErrorHandling.h"
#include "support/StringUtil.h"

#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::lir;
using namespace alf::scalarize;

namespace {

/// Doubles per vector register in the vectorizing emission.
constexpr unsigned VectorWidth = 4;

/// Fault-injection state for the vectorizer's legality check (see
/// setVectorizeFaultForTest).
VectorizeFault TestVectorizeFault = VectorizeFault::None;
bool TestVectorizeFaultApplied = false;

/// Collects every ScalarRefExpr under \p Root (no dedup, pre-order).
void collectScalarRefs(const Expr *Root,
                       std::vector<const ScalarSymbol *> &Out) {
  if (!Root)
    return;
  if (const auto *S = dyn_cast<ScalarRefExpr>(Root)) {
    Out.push_back(S->getSymbol());
    return;
  }
  if (const auto *U = dyn_cast<UnaryExpr>(Root)) {
    collectScalarRefs(U->getOperand(), Out);
    return;
  }
  if (const auto *B = dyn_cast<BinaryExpr>(Root)) {
    collectScalarRefs(B->getLHS(), Out);
    collectScalarRefs(B->getRHS(), Out);
  }
}

class Emitter {
  const LoopProgram &LP;
  const Program &P;
  CEmitOptions Opts;
  StorageLayout Layout;
  std::string LayoutError; // why the storage layout overflows, or ""
  std::ostringstream OS;

  // Vectorization bookkeeping (Opts.Vectorize only).
  unsigned NumVectorized = 0;
  unsigned NumFallbacks = 0;
  bool Reassociated = false;
  /// Scalar temporaries (non-accumulate scalar targets of the nest being
  /// vectorized) that have been assigned their vector value so far; reads
  /// of these render as the vector temp, everything else splats.
  std::set<const ScalarSymbol *> VecAssigned;

public:
  explicit Emitter(const LoopProgram &LP, CEmitOptions Opts = CEmitOptions())
      : LP(LP), P(LP.source()), Opts(Opts) {
    try {
      Layout = LP.storageLayout();
    } catch (const std::length_error &E) {
      LayoutError = E.what();
    }
  }

  /// Allocated arrays in symbol order.
  std::vector<const ArraySymbol *> allocatedArrays() const {
    std::vector<const ArraySymbol *> Result;
    for (const ArrayLayout &L : Layout.Arrays)
      Result.push_back(L.Array);
    return Result;
  }

  std::vector<const ScalarSymbol *> programScalars() const {
    std::vector<const ScalarSymbol *> Result;
    for (const Symbol *S : P.symbols())
      if (const auto *Sc = dyn_cast<ScalarSymbol>(S))
        Result.push_back(Sc);
    return Result;
  }

  const ArrayLayout &layoutOf(const ArraySymbol *A) const {
    const ArrayLayout *L = Layout.find(A);
    if (!L)
      alf_unreachable("emitting a reference to an array without storage");
    return *L;
  }

  /// Pre-flight check that every construct the emitter will render is
  /// supported: each array referenced from a nest body must have storage
  /// (a storage-bounds layout) — contracted arrays were already rewritten to
  /// scalars during scalarization, so a missing layout means the program
  /// reached the backend in a shape it cannot express. A storage layout
  /// that overflows cannot be addressed at all. Returns "" when emission
  /// will succeed.
  std::string validate() const {
    if (!LayoutError.empty())
      return "storage layout: " + LayoutError;
    for (const auto &NodePtr : LP.nodes()) {
      const auto *Nest = dyn_cast<LoopNest>(NodePtr.get());
      if (!Nest)
        continue;
      for (const ScalarStmt &S : Nest->Body) {
        std::vector<const ArraySymbol *> Refs;
        if (!S.LHS.isScalar())
          Refs.push_back(S.LHS.Array);
        for (const ArrayRefExpr *Ref : collectArrayRefs(S.RHS.get()))
          Refs.push_back(Ref->getSymbol());
        for (const ArraySymbol *A : Refs) {
          if (!Layout.find(A))
            return "array '" + A->getName() +
                   "' is referenced but has no storage layout";
          if (layoutOf(A).Bounds.rank() != Nest->R->rank())
            return "array '" + A->getName() +
                   "' rank does not match its enclosing nest";
        }
      }
    }
    return "";
  }

  /// "A_x[(i1-(0))*18 + (i2-(1))]" for the element at loop indices +
  /// offset. Dimensions reduced by partial contraction index their
  /// rolling buffer modulo the window size.
  std::string elemRef(const ArraySymbol *A, const Offset &Off) const {
    const ArrayLayout &L = layoutOf(A);
    const xform::PartialPlan *Plan = LP.partialPlanFor(A);
    std::string Index;
    for (unsigned D = 0; D < L.Bounds.rank(); ++D) {
      std::string Coord;
      if (Plan && Plan->isReduced(D)) {
        long long E = static_cast<long long>(Plan->BufferExtents[D]);
        Coord = formatString("(((i%u%+d - (%lld)) %% %lld + %lld) %% %lld)",
                             D + 1, Off[D],
                             static_cast<long long>(Plan->OrigLo[D]), E, E, E);
      } else {
        Coord = formatString("(i%u%+d - (%lld))", D + 1, Off[D],
                             static_cast<long long>(L.Bounds.lo(D)));
      }
      if (L.Strides[D] != 1)
        Coord += formatString("*%lld", static_cast<long long>(L.Strides[D]));
      Index += (D ? " + " : "") + Coord;
    }
    return formatString("A_%s[%s]", A->getName().c_str(), Index.c_str());
  }

  std::string renderExpr(const Expr *E) const {
    if (const auto *C = dyn_cast<ConstExpr>(E))
      return formatString("%.17g", C->getValue());
    if (const auto *S = dyn_cast<ScalarRefExpr>(E)) {
      // Contracted-array scalars are locals; program scalars are in/out
      // pointer parameters.
      if (P.findSymbol(S->getSymbol()->getName()) == S->getSymbol())
        return formatString("(*S_%s)", S->getSymbol()->getName().c_str());
      return S->getSymbol()->getName();
    }
    if (const auto *A = dyn_cast<ArrayRefExpr>(E))
      return elemRef(A->getSymbol(), A->getOffset());
    if (const auto *U = dyn_cast<UnaryExpr>(E)) {
      std::string Op = renderExpr(U->getOperand());
      switch (U->getOpcode()) {
      case UnaryExpr::Opcode::Neg:
        return "(-(" + Op + "))";
      case UnaryExpr::Opcode::Abs:
        return "fabs(" + Op + ")";
      case UnaryExpr::Opcode::Sqrt:
        return "alf_sqrt(" + Op + ")";
      case UnaryExpr::Opcode::Exp:
        return "alf_exp(" + Op + ")";
      case UnaryExpr::Opcode::Log:
        return "alf_log(" + Op + ")";
      case UnaryExpr::Opcode::Sin:
        return "sin(" + Op + ")";
      case UnaryExpr::Opcode::Cos:
        return "cos(" + Op + ")";
      case UnaryExpr::Opcode::Recip:
        return "alf_recip(" + Op + ")";
      }
      alf_unreachable("unhandled unary opcode");
    }
    const auto *B = cast<BinaryExpr>(E);
    std::string L = renderExpr(B->getLHS());
    std::string R = renderExpr(B->getRHS());
    switch (B->getOpcode()) {
    case BinaryExpr::Opcode::Add:
      return "(" + L + " + " + R + ")";
    case BinaryExpr::Opcode::Sub:
      return "(" + L + " - " + R + ")";
    case BinaryExpr::Opcode::Mul:
      return "(" + L + " * " + R + ")";
    case BinaryExpr::Opcode::Div:
      return "alf_div(" + L + ", " + R + ")";
    case BinaryExpr::Opcode::Min:
      return "fmin(" + L + ", " + R + ")";
    case BinaryExpr::Opcode::Max:
      return "fmax(" + L + ", " + R + ")";
    }
    alf_unreachable("unhandled expression kind");
  }

  void emitPrelude() {
    OS << "/* generated by ALF from program '" << P.getName() << "' */\n";
    OS << "#include <math.h>\n";
    OS << "#include <stdint.h>\n";
    OS << "#include <stdio.h>\n";
    OS << "#include <stdlib.h>\n\n";
    // Helpers matching the ALF interpreter's guarded arithmetic exactly.
    OS << "static double alf_sqrt(double v) { return sqrt(fabs(v)); }\n";
    OS << "static double alf_exp(double v) { return exp(fmin(v, 40.0)); "
          "}\n";
    OS << "static double alf_log(double v) { return log(fabs(v) + 1e-12); "
          "}\n";
    OS << "static double alf_recip(double v) { return 1.0 / (v + (v >= 0 ? "
          "1e-12 : -1e-12)); }\n";
    OS << "static double alf_div(double l, double r) { return l / (r + (r "
          ">= 0 ? 1e-12 : -1e-12)); }\n\n";
    if (Opts.Vectorize)
      emitVectorPrelude();
  }

  /// GNU vector-extension types and lane helpers. Everything except the
  /// arithmetic operators (+, -, * are IEEE-exact per lane) applies the
  /// guarded scalar helper lane by lane, so elementwise vector code is
  /// bit-identical to the scalar backend; alf_vd_sel is the bitwise
  /// compare+select the ⊕ folds of min/max/or reduce with — it selects
  /// operand bits, matching the scalar ternary spelling exactly.
  void emitVectorPrelude() {
    unsigned W = VectorWidth;
    OS << formatString("typedef double alf_vd __attribute__((vector_size(%u)"
                       ", aligned(8), may_alias));\n",
                       W * 8);
    OS << formatString("typedef long long alf_vm __attribute__((vector_size("
                       "%u), aligned(8), may_alias));\n",
                       W * 8);
    OS << formatString("static alf_vd alf_vd_splat(double v) { alf_vd o; "
                       "int k; for (k = 0; k < %u; ++k) o[k] = v; return o; "
                       "}\n",
                       W);
    OS << "static alf_vd alf_vd_sel(alf_vm m, alf_vd t, alf_vd f) { return "
          "(alf_vd)((m & (alf_vm)t) | (~m & (alf_vm)f)); }\n";
    auto LaneUnary = [&](const char *VName, const char *SExpr) {
      OS << formatString("static alf_vd alf_vd_%s(alf_vd v) { alf_vd o; int "
                         "k; for (k = 0; k < %u; ++k) o[k] = %s; return o; "
                         "}\n",
                         VName, W, SExpr);
    };
    LaneUnary("fabs", "fabs(v[k])");
    LaneUnary("sqrt", "alf_sqrt(v[k])");
    LaneUnary("exp", "alf_exp(v[k])");
    LaneUnary("log", "alf_log(v[k])");
    LaneUnary("sin", "sin(v[k])");
    LaneUnary("cos", "cos(v[k])");
    LaneUnary("recip", "alf_recip(v[k])");
    auto LaneBinary = [&](const char *VName, const char *SExpr) {
      OS << formatString("static alf_vd alf_vd_%s(alf_vd l, alf_vd r) { "
                         "alf_vd o; int k; for (k = 0; k < %u; ++k) o[k] = "
                         "%s; return o; }\n",
                         VName, W, SExpr);
    };
    LaneBinary("div", "alf_div(l[k], r[k])");
    LaneBinary("fmin", "fmin(l[k], r[k])");
    LaneBinary("fmax", "fmax(l[k], r[k])");
    OS << '\n';
  }

  void emitSignature(const std::string &FnName) {
    OS << "void " << FnName << "(";
    bool First = true;
    // In vectorize mode the array parameters are restrict-qualified:
    // every buffer is a distinct allocation (exec::Storage allocates per
    // symbol, the harness mallocs per symbol), so the promise is sound,
    // and it licenses the compiler to schedule the emitted vector loads
    // and stores without aliasing reloads.
    const char *Qual = Opts.Vectorize ? "double *restrict A_" : "double *A_";
    for (const ArraySymbol *A : allocatedArrays()) {
      OS << (First ? "" : ", ") << Qual << A->getName();
      First = false;
    }
    for (const ScalarSymbol *S : programScalars()) {
      OS << (First ? "" : ", ") << "double *S_" << S->getName();
      First = false;
    }
    if (First)
      OS << "void";
    OS << ")";
  }

  unsigned maxRank() const {
    unsigned Rank = 0;
    for (const auto &NodePtr : LP.nodes()) {
      if (const auto *Nest = dyn_cast<LoopNest>(NodePtr.get()))
        Rank = std::max(Rank, Nest->R->rank());
      if (const auto *Op = dyn_cast<OpaqueOp>(NodePtr.get()))
        if (Op->Src->getRegion())
          Rank = std::max(Rank, Op->Src->getRegion()->rank());
    }
    return Rank;
  }

  static std::string doubleLiteral(double V) {
    if (std::isinf(V))
      return V > 0 ? "INFINITY" : "-INFINITY";
    return formatString("%.17g", V);
  }

  /// "(*S_name)" for program scalars (in/out pointer parameters),
  /// "name" for contracted-array locals.
  std::string scalarTargetName(const ScalarSymbol *S) const {
    if (P.findSymbol(S->getName()) == S)
      return "(*S_" + S->getName() + ")";
    return S->getName();
  }

  /// The semiring's ⊕ folding `alf_v` into \p Name, spelled exactly as
  /// semiring::applyOp computes it, so native kernels are bit-identical
  /// to the interpreter (fmin/fmax have different NaN and signed-zero
  /// behavior than the ternary). Shared between the scalar accumulate
  /// path and the vector backend's lane-order horizontal reduction.
  static std::string scalarFoldExpr(const semiring::Semiring *SR,
                                    const std::string &Name) {
    switch (SR->Plus) {
    case semiring::OpKind::Min:
      return "(alf_v < " + Name + " ? alf_v : " + Name + ")";
    case semiring::OpKind::Max:
      return "(alf_v > " + Name + " ? alf_v : " + Name + ")";
    case semiring::OpKind::Or:
      return "((" + Name + " != 0.0 || alf_v != 0.0) ? 1.0 : 0.0)";
    default:
      return Name + " + alf_v";
    }
  }

  /// One body statement in the scalar spelling (used by scalar nests and
  /// by the peeled remainder loop of vectorized nests).
  void emitBodyStmt(const ScalarStmt &S, const std::string &Indent) {
    OS << Indent;
    std::string RHS = renderExpr(S.RHS.get());
    if (S.LHS.isScalar()) {
      std::string Name = scalarTargetName(S.LHS.Scalar);
      if (!S.Accumulate)
        OS << Name << " = " << RHS << ";\n";
      else if (S.SR->Plus == semiring::OpKind::Add)
        OS << Name << " += " << RHS << ";\n";
      else
        // Bind the element value once, then fold with ⊕.
        OS << "{ const double alf_v = " << RHS << "; " << Name << " = "
           << scalarFoldExpr(S.SR, Name) << "; }\n";
      return;
    }
    OS << elemRef(S.LHS.Array, S.LHS.Off) << " = " << RHS << ";\n";
  }

  void emitNestScalar(const LoopNest &Nest) {
    for (const ScalarInit &SI : Nest.ScalarInits)
      OS << "  *S_" << SI.Acc->getName() << " = " << doubleLiteral(SI.Init)
         << ";\n";

    std::string Indent = "  ";
    for (unsigned L = 0; L < Nest.LSV.rank(); ++L) {
      emitLoopHeader(Nest, L, Indent);
      Indent += "  ";
    }
    OS << Indent << "{\n";
    for (const ScalarStmt &S : Nest.Body)
      emitBodyStmt(S, Indent + "  ");
    OS << Indent << "}\n";
  }

  /// One `for (...)` header (no body) for loop level \p L of \p Nest.
  void emitLoopHeader(const LoopNest &Nest, unsigned L,
                      const std::string &Indent) {
    unsigned Dim = Nest.LSV.dimOf(L);
    long long Lo = Nest.R->lo(Dim), Hi = Nest.R->hi(Dim);
    if (Nest.LSV.dirOf(L) > 0)
      OS << Indent
         << formatString("for (i%u = %lld; i%u <= %lld; ++i%u)", Dim + 1, Lo,
                         Dim + 1, Hi, Dim + 1)
         << '\n';
    else
      OS << Indent
         << formatString("for (i%u = %lld; i%u >= %lld; --i%u)", Dim + 1, Hi,
                         Dim + 1, Lo, Dim + 1)
         << '\n';
  }

  /// Why \p Nest cannot be emitted as a SIMD loop over its innermost
  /// FIND-LOOP-STRUCTURE dimension; "" when it can. The certificate has
  /// three parts: (1) the innermost loop iterates increasing and every
  /// referenced array is unit-stride along its dimension (row-major
  /// layout stride 1, no rolling-buffer modulo indexing), with the lane
  /// accesses proved inside the array footprint in the analysis/Intervals
  /// domain; (2) no intra-cluster dependence is carried by the innermost
  /// loop, so lanes are independent; (3) every scalar in the body is
  /// lane-splittable — accumulators fold with a ⊕ the semiring table
  /// declares vectorizable and are not read inside the nest, temporaries
  /// are assigned before they are read.
  std::string vectorizeBlocker(const LoopNest &Nest) const {
    if (TestVectorizeFault == VectorizeFault::CarriedInnermost) {
      TestVectorizeFaultApplied = true;
      return "planted innermost-carried dependence (test fault)";
    }
    unsigned Rank = Nest.LSV.rank();
    if (Rank == 0 || !Nest.R || Nest.R->rank() != Rank)
      return "nest has no usable loop structure";
    unsigned InnerLoop = Rank - 1;
    if (Nest.LSV.dirOf(InnerLoop) < 0)
      return "innermost loop iterates decreasing";
    unsigned Dim = Nest.LSV.dimOf(InnerLoop);

    // (2) Cross-lane hazard: a dependence carried exactly by the
    // innermost loop orders iterations the lanes would run in lockstep.
    for (const Offset &U : Nest.UDVs) {
      if (U.rank() != Rank)
        return "dependence vector rank mismatch";
      Offset D = xform::constrain(U, Nest.LSV);
      bool OuterZero = true;
      for (unsigned L = 0; L + 1 < Rank; ++L)
        OuterZero = OuterZero && D[L] == 0;
      if (OuterZero && D[Rank - 1] != 0)
        return "dependence carried by the innermost loop crosses lanes";
    }

    // (3) Scalar discipline of the body.
    std::set<const ScalarSymbol *> AccTargets, TempTargets;
    for (const ScalarStmt &S : Nest.Body) {
      if (!S.LHS.isScalar())
        continue;
      if (S.Accumulate) {
        if (!S.SR->vectorizablePlus())
          return "reduction ⊕ '" + std::string(S.SR->plusName()) +
                 "' has no lane fold";
        switch (S.SR->Plus) {
        case semiring::OpKind::Add:
        case semiring::OpKind::Min:
        case semiring::OpKind::Max:
        case semiring::OpKind::Or:
          break;
        default:
          return "reduction ⊕ '" + std::string(S.SR->plusName()) +
                 "' has no vector spelling";
        }
        AccTargets.insert(S.LHS.Scalar);
      } else {
        // Plainly-assigned scalars become vector temps whose lanes are
        // never folded back, which is only unobservable for contraction
        // locals (all their reads are confined to this nest). A program
        // scalar assigned elementwise keeps last-iteration-wins
        // semantics the lanes would break.
        if (P.findSymbol(S.LHS.Scalar->getName()) == S.LHS.Scalar)
          return "program scalar '" + S.LHS.Scalar->getName() +
                 "' is assigned elementwise (last-iteration semantics)";
        TempTargets.insert(S.LHS.Scalar);
      }
    }
    for (const ScalarSymbol *S : AccTargets)
      if (TempTargets.count(S))
        return "scalar is both accumulator and temporary in one nest";

    std::set<const ScalarSymbol *> Assigned;
    for (const ScalarStmt &S : Nest.Body) {
      std::vector<const ScalarSymbol *> Reads;
      collectScalarRefs(S.RHS.get(), Reads);
      for (const ScalarSymbol *R : Reads) {
        if (AccTargets.count(R))
          return "reduction accumulator is read inside its own nest";
        if (TempTargets.count(R) && !Assigned.count(R))
          return "scalar temporary read before its lane assignment";
      }
      if (S.LHS.isScalar() && !S.Accumulate)
        Assigned.insert(S.LHS.Scalar);
    }

    // (1) Unit stride + in-footprint lanes for every array reference.
    auto CheckRef = [&](const ArraySymbol *A,
                        const Offset &Off) -> std::string {
      const ArrayLayout &L = layoutOf(A);
      if (const xform::PartialPlan *Plan = LP.partialPlanFor(A))
        if (Plan->isReduced(Dim))
          return "array '" + A->getName() +
                 "' uses rolling-buffer modulo indexing on the vector "
                 "dimension";
      if (L.Strides[Dim] != 1)
        return "array '" + A->getName() +
               "' is not unit-stride along the innermost dimension";
      SymInterval Lanes = SymInterval::ofDim(Nest.R, Dim, Off[Dim]);
      SymInterval Span{AffineBound::lo(&L.Bounds, Dim),
                       AffineBound::hi(&L.Bounds, Dim)};
      if (proveContains(Span, Lanes) == BoundProof::Disproved)
        return "lane accesses of '" + A->getName() +
               "' are not provably inside its footprint";
      return "";
    };
    for (const ScalarStmt &S : Nest.Body) {
      if (!S.LHS.isScalar())
        if (std::string Why = CheckRef(S.LHS.Array, S.LHS.Off); !Why.empty())
          return Why;
      for (const ArrayRefExpr *Ref : collectArrayRefs(S.RHS.get()))
        if (std::string Why = CheckRef(Ref->getSymbol(), Ref->getOffset());
            !Why.empty())
          return Why;
    }
    return "";
  }

  std::string renderExprVec(const Expr *E) {
    if (const auto *C = dyn_cast<ConstExpr>(E))
      return "alf_vd_splat(" + formatString("%.17g", C->getValue()) + ")";
    if (const auto *S = dyn_cast<ScalarRefExpr>(E)) {
      if (VecAssigned.count(S->getSymbol()))
        return "vt_" + S->getSymbol()->getName();
      // Loop-invariant inside the nest (a program scalar or a value left
      // by an earlier nest): broadcast.
      return "alf_vd_splat(" + renderExpr(E) + ")";
    }
    if (const auto *A = dyn_cast<ArrayRefExpr>(E))
      return "(*(const alf_vd *)&" +
             elemRef(A->getSymbol(), A->getOffset()) + ")";
    if (const auto *U = dyn_cast<UnaryExpr>(E)) {
      std::string Op = renderExprVec(U->getOperand());
      switch (U->getOpcode()) {
      case UnaryExpr::Opcode::Neg:
        return "(-(" + Op + "))";
      case UnaryExpr::Opcode::Abs:
        return "alf_vd_fabs(" + Op + ")";
      case UnaryExpr::Opcode::Sqrt:
        return "alf_vd_sqrt(" + Op + ")";
      case UnaryExpr::Opcode::Exp:
        return "alf_vd_exp(" + Op + ")";
      case UnaryExpr::Opcode::Log:
        return "alf_vd_log(" + Op + ")";
      case UnaryExpr::Opcode::Sin:
        return "alf_vd_sin(" + Op + ")";
      case UnaryExpr::Opcode::Cos:
        return "alf_vd_cos(" + Op + ")";
      case UnaryExpr::Opcode::Recip:
        return "alf_vd_recip(" + Op + ")";
      }
      alf_unreachable("unhandled unary opcode");
    }
    const auto *B = cast<BinaryExpr>(E);
    std::string L = renderExprVec(B->getLHS());
    std::string R = renderExprVec(B->getRHS());
    switch (B->getOpcode()) {
    case BinaryExpr::Opcode::Add:
      return "(" + L + " + " + R + ")";
    case BinaryExpr::Opcode::Sub:
      return "(" + L + " - " + R + ")";
    case BinaryExpr::Opcode::Mul:
      return "(" + L + " * " + R + ")";
    case BinaryExpr::Opcode::Div:
      return "alf_vd_div(" + L + ", " + R + ")";
    case BinaryExpr::Opcode::Min:
      return "alf_vd_fmin(" + L + ", " + R + ")";
    case BinaryExpr::Opcode::Max:
      return "alf_vd_fmax(" + L + ", " + R + ")";
    }
    alf_unreachable("unhandled expression kind");
  }

  /// One body statement in the vector spelling.
  void emitBodyStmtVec(const ScalarStmt &S, const std::string &Indent) {
    std::string RHS = renderExprVec(S.RHS.get());
    if (S.LHS.isScalar()) {
      if (!S.Accumulate) {
        OS << Indent << "vt_" << S.LHS.Scalar->getName() << " = " << RHS
           << ";\n";
        VecAssigned.insert(S.LHS.Scalar);
        return;
      }
      std::string Acc = "va_" + S.LHS.Scalar->getName();
      switch (S.SR->Plus) {
      case semiring::OpKind::Add:
        OS << Indent << Acc << " += " << RHS << ";\n";
        break;
      case semiring::OpKind::Min:
        OS << Indent << "{ const alf_vd alf_vv = " << RHS << "; " << Acc
           << " = alf_vd_sel((alf_vm)(alf_vv < " << Acc << "), alf_vv, "
           << Acc << "); }\n";
        break;
      case semiring::OpKind::Max:
        OS << Indent << "{ const alf_vd alf_vv = " << RHS << "; " << Acc
           << " = alf_vd_sel((alf_vm)(alf_vv > " << Acc << "), alf_vv, "
           << Acc << "); }\n";
        break;
      case semiring::OpKind::Or:
        OS << Indent << "{ const alf_vd alf_vv = " << RHS << "; " << Acc
           << " = alf_vd_sel((alf_vm)((" << Acc
           << " != alf_vd_splat(0.0)) | (alf_vv != alf_vd_splat(0.0))), "
              "alf_vd_splat(1.0), alf_vd_splat(0.0)); }\n";
        break;
      default:
        alf_unreachable("vectorizing a ⊕ the legality check rejects");
      }
      return;
    }
    OS << Indent << "*(alf_vd *)&" << elemRef(S.LHS.Array, S.LHS.Off)
       << " = " << RHS << ";\n";
  }

  /// The SIMD spelling: accumulators live in vector lanes seeded with the
  /// ⊕-identity from ScalarInits, the innermost loop steps VectorWidth
  /// lanes with a peeled scalar remainder, and lanes fold back into the
  /// scalar accumulator in lane order at nest exit — the one place a
  /// float + reduction is reassociated.
  void emitNestVectorized(const LoopNest &Nest) {
    unsigned W = VectorWidth;
    unsigned Dim = Nest.LSV.dimOf(Nest.LSV.rank() - 1);
    long long Lo = Nest.R->lo(Dim), Hi = Nest.R->hi(Dim);

    for (const ScalarInit &SI : Nest.ScalarInits)
      OS << "  *S_" << SI.Acc->getName() << " = " << doubleLiteral(SI.Init)
         << ";\n";

    // Accumulators (in first-fold order) and scalar temporaries.
    std::vector<std::pair<const ScalarSymbol *, const semiring::Semiring *>>
        Accs;
    std::vector<const ScalarSymbol *> Temps;
    for (const ScalarStmt &S : Nest.Body) {
      if (!S.LHS.isScalar())
        continue;
      auto Seen = [&](const ScalarSymbol *Sym) {
        for (const auto &[A, SR] : Accs)
          if (A == Sym)
            return true;
        for (const ScalarSymbol *T : Temps)
          if (T == Sym)
            return true;
        return false;
      };
      if (Seen(S.LHS.Scalar))
        continue;
      if (S.Accumulate) {
        Accs.push_back({S.LHS.Scalar, S.SR});
        if (semiring::vecFoldKind(S.SR->Plus) == semiring::VecFold::Arith)
          Reassociated = true;
      } else {
        Temps.push_back(S.LHS.Scalar);
      }
    }

    OS << formatString("  { /* simd: %u lanes over dimension %u */\n", W,
                       Dim + 1);
    for (const auto &[Sym, SR] : Accs)
      OS << "  alf_vd va_" << Sym->getName() << " = alf_vd_splat("
         << doubleLiteral(SR->PlusIdentity) << ");\n";
    for (const ScalarSymbol *Sym : Temps)
      OS << "  alf_vd vt_" << Sym->getName() << ";\n";

    std::string Indent = "  ";
    for (unsigned L = 0; L + 1 < Nest.LSV.rank(); ++L) {
      emitLoopHeader(Nest, L, Indent);
      Indent += "  ";
    }
    OS << Indent << "{\n";
    OS << Indent
       << formatString("  for (i%u = %lld; i%u + %u <= %lld; i%u += %u) {\n",
                       Dim + 1, Lo, Dim + 1, W - 1, Hi, Dim + 1, W);
    VecAssigned.clear();
    for (const ScalarStmt &S : Nest.Body)
      emitBodyStmtVec(S, Indent + "    ");
    OS << Indent << "  }\n";
    // Peeled remainder: the exact scalar spelling continues from where
    // the vector loop stopped (folding straight into the scalar
    // accumulator — ⊕ commutes, and for non-exact + the whole nest is
    // already declared reassociated).
    OS << Indent
       << formatString("  for (; i%u <= %lld; ++i%u)\n", Dim + 1, Hi,
                       Dim + 1);
    OS << Indent << "  {\n";
    for (const ScalarStmt &S : Nest.Body)
      emitBodyStmt(S, Indent + "    ");
    OS << Indent << "  }\n";
    OS << Indent << "}\n";

    // Horizontal reduction, lane order, with the scalar ⊕ spelling.
    for (const auto &[Sym, SR] : Accs) {
      std::string Name = scalarTargetName(Sym);
      for (unsigned K = 0; K < W; ++K)
        OS << "  { const double alf_v = va_" << Sym->getName() << "[" << K
           << "]; " << Name << " = " << scalarFoldExpr(SR, Name) << "; }\n";
    }
    OS << "  }\n";
  }

  void emitNest(const LoopNest &Nest) {
    if (!Opts.Vectorize) {
      emitNestScalar(Nest);
      return;
    }
    std::string Blocker = vectorizeBlocker(Nest);
    if (Blocker.empty()) {
      ++NumVectorized;
      emitNestVectorized(Nest);
      return;
    }
    ++NumFallbacks;
    OS << "  /* simd fallback: " << Blocker << " */\n";
    emitNestScalar(Nest);
  }

  unsigned numVectorizedNests() const { return NumVectorized; }
  unsigned numVectorFallbacks() const { return NumFallbacks; }
  bool reassociated() const { return Reassociated; }

  /// Emits the deterministic opaque-statement semantics (matching
  /// exec::Interpreter's execOpaque).
  void emitOpaque(const OpaqueStmt &O) {
    OS << "  /* opaque: " << O.getDesc() << " */\n";
    const Region *R = O.getRegion();
    if (!R) {
      OS << "  {\n    double v = 1.0;\n";
      for (const ScalarSymbol *S : O.scalarReads())
        OS << "    v += 0.5 * (*S_" << S->getName() << ");\n";
      unsigned Ordinal = 0;
      for (const ScalarSymbol *S : O.scalarWrites())
        OS << "    *S_" << S->getName() << " = v + " << Ordinal++ << ";\n";
      OS << "  }\n";
      return;
    }

    OS << "  {\n    double base = 1.0;\n";
    for (const ScalarSymbol *S : O.scalarReads())
      OS << "    base += 0.5 * (*S_" << S->getName() << ");\n";
    for (size_t I = 0; I < O.scalarWrites().size(); ++I)
      OS << "    double acc" << I << " = 0.0;\n";
    std::string Indent = "    ";
    for (unsigned D = 0; D < R->rank(); ++D) {
      OS << Indent
         << formatString("for (i%u = %lld; i%u <= %lld; ++i%u)", D + 1,
                         static_cast<long long>(R->lo(D)), D + 1,
                         static_cast<long long>(R->hi(D)), D + 1)
         << '\n';
      Indent += "  ";
    }
    OS << Indent << "{\n";
    OS << Indent << "  double v = base;\n";
    Offset Zero = Offset::zero(R->rank());
    for (const ArraySymbol *A : O.arrayReads())
      if (Layout.find(A) && A->getRank() == R->rank())
        OS << Indent << "  v += 0.5 * " << elemRef(A, Zero) << ";\n";
    unsigned Ordinal = 0;
    for (const ArraySymbol *A : O.arrayWrites())
      if (Layout.find(A) && A->getRank() == R->rank())
        OS << Indent << "  " << elemRef(A, Zero) << " = v + " << Ordinal++
           << ";\n";
    for (size_t I = 0; I < O.scalarWrites().size(); ++I)
      OS << Indent << "  acc" << I << " += v;\n";
    OS << Indent << "}\n";
    double Scale = 1.0 / static_cast<double>(R->size());
    for (size_t I = 0; I < O.scalarWrites().size(); ++I)
      OS << formatString("    *S_%s = acc%zu * %.17g;\n",
                         O.scalarWrites()[I]->getName().c_str(), I, Scale);
    OS << "  }\n";
  }

  void emitKernel(const std::string &FnName) {
    emitSignature(FnName);
    OS << " {\n";
    unsigned Rank = maxRank();
    if (Rank > 0) {
      OS << "  long ";
      for (unsigned D = 0; D < Rank; ++D)
        OS << (D ? ", " : "") << "i" << D + 1;
      OS << ";\n";
    }
    // Locals for contracted arrays' scalars.
    for (const ArraySymbol *A : P.arrays())
      if (const ScalarSymbol *S = LP.scalarFor(A))
        OS << "  double " << S->getName() << " = 0.0;\n";

    for (const auto &NodePtr : LP.nodes()) {
      if (const auto *Nest = dyn_cast<LoopNest>(NodePtr.get())) {
        emitNest(*Nest);
        continue;
      }
      if (const auto *C = dyn_cast<CommOp>(NodePtr.get())) {
        OS << "  /* halo exchange " << C->Array->getName() << C->Dir.str()
           << " (single address space: no-op) */\n";
        continue;
      }
      emitOpaque(*cast<OpaqueOp>(NodePtr.get())->Src);
    }
    OS << "}\n";
  }

  /// Emits the fixed-ABI wrapper the native JIT backend dlopens:
  /// `void <FnName>_entry(double **arrays, double *scalars)`, unpacking
  /// the caller-owned buffers into the kernel's positional parameters
  /// (arrays in allocatedArrays() order, scalars in programScalars()
  /// order — the order CModule reports).
  void emitEntry(const std::string &FnName) {
    OS << "\nvoid " << FnName << "_entry(double **arrays, double *scalars)"
       << " {\n";
    OS << "  " << FnName << "(";
    bool First = true;
    size_t ArrayIdx = 0;
    for (const ArraySymbol *A : allocatedArrays()) {
      (void)A;
      OS << (First ? "" : ", ") << "arrays[" << ArrayIdx++ << "]";
      First = false;
    }
    size_t ScalarIdx = 0;
    for (const ScalarSymbol *S : programScalars()) {
      (void)S;
      OS << (First ? "" : ", ") << "&scalars[" << ScalarIdx++ << "]";
      First = false;
    }
    OS << ");\n";
    OS << "}\n";
  }

  void emitHarness(const std::string &FnName, uint64_t Seed) {
    // SplitMix64 + FNV-1a, bit-identical to support/Random.h and
    // exec::hashName.
    OS << R"(
static uint64_t alf_rng_state;
static uint64_t alf_rng_next(void) {
  alf_rng_state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = alf_rng_state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
static double alf_rng_double(void) {
  return (double)(alf_rng_next() >> 11) * 0x1.0p-53;
}
static uint64_t alf_hash(const char *s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (; *s; ++s) { h ^= (unsigned char)*s; h *= 0x100000001b3ULL; }
  return h;
}
)";
    OS << "\nint main(void) {\n";
    OS << formatString("  const uint64_t seed = %lluULL;\n",
                       static_cast<unsigned long long>(Seed));
    OS << "  long i;\n";
    for (const ArraySymbol *A : allocatedArrays()) {
      const ArrayLayout &L = layoutOf(A);
      OS << formatString("  double *A_%s = malloc(%lld * sizeof(double));\n",
                         A->getName().c_str(),
                         static_cast<long long>(L.elements()));
      if (A->isLiveIn()) {
        OS << formatString("  alf_rng_state = seed ^ alf_hash(\"%s\");\n",
                           A->getName().c_str());
        OS << formatString("  for (i = 0; i < %lld; ++i) A_%s[i] = -1.0 + "
                           "2.0 * alf_rng_double();\n",
                           static_cast<long long>(L.elements()),
                           A->getName().c_str());
      } else {
        OS << formatString(
            "  for (i = 0; i < %lld; ++i) A_%s[i] = 0.0;\n",
            static_cast<long long>(L.elements()), A->getName().c_str());
      }
    }
    for (const ScalarSymbol *S : programScalars()) {
      OS << formatString("  alf_rng_state = seed ^ alf_hash(\"%s\");\n",
                         S->getName().c_str());
      OS << formatString("  double v_%s = 0.5 + alf_rng_double();\n",
                         S->getName().c_str());
    }

    OS << "  " << FnName << "(";
    bool First = true;
    for (const ArraySymbol *A : allocatedArrays()) {
      OS << (First ? "" : ", ") << "A_" << A->getName();
      First = false;
    }
    for (const ScalarSymbol *S : programScalars()) {
      OS << (First ? "" : ", ") << "&v_" << S->getName();
      First = false;
    }
    OS << ");\n";

    // Checksums: plain linear sums of live-out arrays, then scalars.
    for (const ArraySymbol *A : allocatedArrays()) {
      if (!A->isLiveOut())
        continue;
      const ArrayLayout &L = layoutOf(A);
      OS << formatString("  { double sum = 0.0; for (i = 0; i < %lld; ++i) "
                         "sum += A_%s[i]; printf(\"%s %%.17g\\n\", sum); }\n",
                         static_cast<long long>(L.elements()),
                         A->getName().c_str(), A->getName().c_str());
    }
    for (const ScalarSymbol *S : programScalars())
      OS << formatString("  printf(\"%s %%.17g\\n\", v_%s);\n",
                         S->getName().c_str(), S->getName().c_str());
    for (const ArraySymbol *A : allocatedArrays())
      OS << "  free(A_" << A->getName() << ");\n";
    OS << "  return 0;\n}\n";
  }

  std::string take() { return OS.str(); }
};

} // namespace

CEmitResult scalarize::emitCChecked(const LoopProgram &LP,
                                    const std::string &FnName) {
  CEmitResult Result;
  Emitter E(LP);
  Result.Error = E.validate();
  if (!Result.ok())
    return Result;
  E.emitPrelude();
  E.emitKernel(FnName);
  Result.Source = E.take();
  return Result;
}

CEmitResult scalarize::emitCWithHarnessChecked(const LoopProgram &LP,
                                               const std::string &FnName,
                                               uint64_t Seed,
                                               const CEmitOptions &Opts) {
  CEmitResult Result;
  Emitter E(LP, Opts);
  Result.Error = E.validate();
  if (!Result.ok())
    return Result;
  E.emitPrelude();
  E.emitKernel(FnName);
  E.emitHarness(FnName, Seed);
  Result.Source = E.take();
  return Result;
}

CModule scalarize::emitCModule(const LoopProgram &LP,
                               const std::string &FnName,
                               const CEmitOptions &Opts) {
  CModule Module;
  Emitter E(LP, Opts);
  Module.Error = E.validate();
  if (!Module.ok())
    return Module;
  E.emitPrelude();
  E.emitKernel(FnName);
  E.emitEntry(FnName);
  Module.Source = E.take();
  Module.EntryName = FnName + "_entry";
  Module.Arrays = E.allocatedArrays();
  Module.Scalars = E.programScalars();
  Module.NumVectorizedNests = E.numVectorizedNests();
  Module.NumVectorFallbacks = E.numVectorFallbacks();
  Module.Reassociated = E.reassociated();
  return Module;
}

support::Tolerance scalarize::simdToleranceFor(const LoopProgram &LP) {
  for (const auto &NodePtr : LP.nodes()) {
    const auto *Nest = dyn_cast<LoopNest>(NodePtr.get());
    if (!Nest)
      continue;
    for (const ScalarStmt &S : Nest->Body)
      if (S.Accumulate &&
          semiring::vecFoldKind(S.SR->Plus) == semiring::VecFold::Arith)
        return support::Tolerance::ReassociatedFloat;
  }
  return support::Tolerance::Exact;
}

void scalarize::setVectorizeFaultForTest(VectorizeFault Mode) {
  TestVectorizeFault = Mode;
  TestVectorizeFaultApplied = false;
}

bool scalarize::vectorizeFaultAppliedForTest() {
  return TestVectorizeFaultApplied;
}

std::string scalarize::emitC(const LoopProgram &LP, const std::string &FnName) {
  CEmitResult Result = emitCChecked(LP, FnName);
  if (!Result.ok())
    reportFatalError(Result.Error.c_str());
  return std::move(Result.Source);
}

std::string scalarize::emitCWithHarness(const LoopProgram &LP,
                                        const std::string &FnName,
                                        uint64_t Seed) {
  CEmitResult Result = emitCWithHarnessChecked(LP, FnName, Seed);
  if (!Result.ok())
    reportFatalError(Result.Error.c_str());
  return std::move(Result.Source);
}

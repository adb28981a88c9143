//===- scalarize/CEmitter.cpp - C code generation -----------------------------===//

#include "scalarize/CEmitter.h"

#include "analysis/Intervals.h"
#include "scalarize/Schedule.h"
#include "support/ErrorHandling.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cmath>
#include <iterator>
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

/// How the backend spells an operator: infix on both tiers (+ - * are
/// IEEE-exact per lane), or a call of its scalar helper and, in
/// vectorized nests, of the lane helper alf_vd_<Lane> that the prelude
/// generates to apply it lane by lane. Def is the body of a guarded
/// helper the prelude defines to match the interpreter's arithmetic.
struct OpSpelling {
  const char *Infix;
  const char *Scalar;
  const char *Lane;
  const char *Def;
};

/// Indexed by UnaryExpr::Opcode; a helper takes `v`.
constexpr OpSpelling UnarySpellings[] = {
    {"-", nullptr, nullptr, nullptr},                           // Neg
    {nullptr, "fabs", "fabs", nullptr},                         // Abs
    {nullptr, "alf_sqrt", "sqrt", "sqrt(fabs(v))"},             // Sqrt
    {nullptr, "alf_exp", "exp", "exp(fmin(v, 40.0))"},          // Exp
    {nullptr, "alf_log", "log", "log(fabs(v) + 1e-12)"},        // Log
    {nullptr, "sin", "sin", nullptr},                           // Sin
    {nullptr, "cos", "cos", nullptr},                           // Cos
    {nullptr, "alf_recip", "recip",
     "1.0 / (v + (v >= 0 ? 1e-12 : -1e-12))"},                  // Recip
};
static_assert(std::size(UnarySpellings) ==
              static_cast<size_t>(UnaryExpr::Opcode::Recip) + 1);

/// Indexed by BinaryExpr::Opcode; a helper takes `l` and `r`.
constexpr OpSpelling BinarySpellings[] = {
    {"+", nullptr, nullptr, nullptr},                           // Add
    {"-", nullptr, nullptr, nullptr},                           // Sub
    {"*", nullptr, nullptr, nullptr},                           // Mul
    {nullptr, "alf_div", "div",
     "l / (r + (r >= 0 ? 1e-12 : -1e-12))"},                    // Div
    {nullptr, "fmin", "fmin", nullptr},                         // Min
    {nullptr, "fmax", "fmax", nullptr},                         // Max
};
static_assert(std::size(BinarySpellings) ==
              static_cast<size_t>(BinaryExpr::Opcode::Max) + 1);

/// The prelude after its first line: the headers and the guarded scalar
/// helpers, then, with \p Vectorize, the GNU vector-extension types and
/// lane helpers. Every helper of the spelling tables gets a lane helper
/// applying it lane by lane, so elementwise vector code is bit-identical
/// to the scalar backend; alf_vd_sel is the bitwise compare+select the ⊕
/// folds of min/max/or reduce with — it selects operand bits, matching
/// the scalar ternary spelling exactly. Each tier's text is generated
/// once.
std::string preludeHelpers(bool Vectorize) {
  std::ostringstream OS;
  OS << "#include <math.h>\n";
  OS << "#include <stdint.h>\n";
  OS << "#include <stdio.h>\n";
  OS << "#include <stdlib.h>\n\n";
  for (const OpSpelling &Op : UnarySpellings)
    if (Op.Def)
      OS << "static double " << Op.Scalar << "(double v) { return " << Op.Def
         << "; }\n";
  for (const OpSpelling &Op : BinarySpellings)
    if (Op.Def)
      OS << "static double " << Op.Scalar << "(double l, double r) { return "
         << Op.Def << "; }\n";
  OS << '\n';
  if (!Vectorize)
    return OS.str();
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
  for (const OpSpelling &Op : UnarySpellings)
    if (Op.Lane)
      OS << formatString("static alf_vd alf_vd_%s(alf_vd v) { alf_vd o; int "
                         "k; for (k = 0; k < %u; ++k) o[k] = %s(v[k]); "
                         "return o; }\n",
                         Op.Lane, W, Op.Scalar);
  for (const OpSpelling &Op : BinarySpellings)
    if (Op.Lane)
      OS << formatString("static alf_vd alf_vd_%s(alf_vd l, alf_vd r) { "
                         "alf_vd o; int k; for (k = 0; k < %u; ++k) o[k] = "
                         "%s(l[k], r[k]); return o; }\n",
                         Op.Lane, W, Op.Scalar);
  OS << '\n';
  return OS.str();
}

/// Fault-injection state for the vectorizer's legality check (see
/// setVectorizeFaultForTest).
VectorizeFault TestVectorizeFault = VectorizeFault::None;
bool TestVectorizeFaultApplied = false;

class Emitter {
  const LoopProgram &LP;
  const Program &P;
  CEmitOptions Opts;
  StorageLayout Layout;
  std::string LayoutError; // why the storage layout overflows, or ""
  // The kernel's parameters: allocated arrays, then program scalars,
  // each in symbol order (the order CModule reports).
  std::vector<const ArraySymbol *> Arrays;
  std::vector<const ScalarSymbol *> Scalars;
  std::ostringstream OS;

  // Vectorization bookkeeping (Opts.Vectorize only).
  unsigned NumVectorized = 0;
  unsigned NumFallbacks = 0;
  bool Reassociated = false;
  /// Scalar temporaries (non-accumulate scalar targets of the nest being
  /// vectorized) that have been assigned their vector value so far; reads
  /// of these render as the vector temp, everything else splats.
  std::set<const ScalarSymbol *> VecAssigned;

  // Thread splitting: the nests emitted as functions over a range of
  // their outer loop (lir::splitSchedule), and whether a nest body is
  // being emitted inside one, where the outer loop runs over the chunk
  // [alf_lo, alf_end) instead of the region.
  ParallelSchedule Split;
  unsigned NumSplit = 0;
  bool Chunked = false;
  bool RuntimeDeclared = false;

public:
  explicit Emitter(const LoopProgram &LP, CEmitOptions Opts = CEmitOptions())
      : LP(LP), P(LP.source()), Opts(Opts), Split(splitSchedule(LP)),
        NumSplit(Split.numParallelNests()) {
    try {
      Layout = LP.storageLayout();
    } catch (const std::length_error &E) {
      LayoutError = E.what();
    }
    for (const ArrayLayout &L : Layout.Arrays)
      Arrays.push_back(L.Array);
    for (const Symbol *S : P.symbols())
      if (const auto *Sc = dyn_cast<ScalarSymbol>(S))
        Scalars.push_back(Sc);
  }

  enum class Tail { None, Entry, Harness };

  /// The one emission path of every entry point: validate, prelude,
  /// kernel, then the tail — the native JIT's entry wrapper, the
  /// self-seeding harness main (seeded with \p Seed), or nothing.
  CEmitResult emit(const std::string &FnName, Tail T, uint64_t Seed = 0) {
    CEmitResult Result;
    Result.Error = validate();
    if (!Result.ok())
      return Result;
    emitPrelude();
    emitKernel(FnName);
    if (T == Tail::Entry)
      emitEntry(FnName);
    else if (T == Tail::Harness)
      emitHarness(FnName, Seed);
    Result.Source = OS.str();
    return Result;
  }

  /// A module's argument order and the outcome of vectorization and
  /// thread splitting.
  void describe(CModule &M) const {
    M.Arrays = Arrays;
    M.Scalars = Scalars;
    M.NumVectorizedNests = NumVectorized;
    M.NumVectorFallbacks = NumFallbacks;
    M.Reassociated = Reassociated;
    M.NumParallelNests = NumSplit;
  }

private:
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

  /// Appends \p E to \p Out: in the scalar spelling, or with \p Vec in
  /// the spelling of a vectorized nest, where array references load
  /// four lanes, constants and loop-invariant scalars splat, and helpers
  /// become lane helpers (OpSpelling).
  void renderExpr(const Expr *E, bool Vec, std::string &Out) const {
    if (const auto *C = dyn_cast<ConstExpr>(E)) {
      Out += Vec ? "alf_vd_splat(" : "";
      Out += formatString("%.17g", C->getValue());
      Out += Vec ? ")" : "";
      return;
    }
    if (const auto *S = dyn_cast<ScalarRefExpr>(E)) {
      if (Vec && VecAssigned.count(S->getSymbol())) {
        (Out += "vt_") += S->getSymbol()->getName();
        return;
      }
      // Loop-invariant inside a vectorized nest (a program scalar or a
      // value left by an earlier nest): broadcast.
      Out += Vec ? "alf_vd_splat(" : "";
      Out += scalarTargetName(S->getSymbol());
      Out += Vec ? ")" : "";
      return;
    }
    if (const auto *A = dyn_cast<ArrayRefExpr>(E)) {
      Out += Vec ? "(*(const alf_vd *)&" : "";
      Out += elemRef(A->getSymbol(), A->getOffset());
      Out += Vec ? ")" : "";
      return;
    }
    const OpSpelling *Op;
    const Expr *L, *R = nullptr;
    if (const auto *U = dyn_cast<UnaryExpr>(E)) {
      Op = &UnarySpellings[static_cast<size_t>(U->getOpcode())];
      L = U->getOperand();
    } else {
      const auto *B = cast<BinaryExpr>(E);
      Op = &BinarySpellings[static_cast<size_t>(B->getOpcode())];
      L = B->getLHS();
      R = B->getRHS();
    }
    if (Op->Infix && R) {
      Out += '(';
      renderExpr(L, Vec, Out);
      ((Out += ' ') += Op->Infix) += ' ';
      renderExpr(R, Vec, Out);
      Out += ')';
      return;
    }
    // A helper call "f(l, r)", or the unary minus as "(-(v))".
    if (Op->Infix)
      (Out += '(') += Op->Infix;
    else if (Vec)
      (Out += "alf_vd_") += Op->Lane;
    else
      Out += Op->Scalar;
    Out += '(';
    renderExpr(L, Vec, Out);
    if (R) {
      Out += ", ";
      renderExpr(R, Vec, Out);
    }
    Out += Op->Infix ? "))" : ")";
  }

  void emitPrelude() {
    static const std::string Scalar = preludeHelpers(false);
    static const std::string Vector = preludeHelpers(true);
    OS << "/* generated by ALF from program '" << P.getName() << "' */\n"
       << (Opts.Vectorize ? Vector : Scalar);
  }

  /// The declaration of an array parameter, less its name. In vectorize
  /// mode array parameters are restrict-qualified: every buffer is a
  /// distinct allocation (exec::Storage allocates per symbol, the harness
  /// mallocs per symbol), so the promise is sound, and it licenses the
  /// compiler to schedule the emitted vector loads and stores without
  /// aliasing reloads.
  const char *arrayParam() const {
    return Opts.Vectorize ? "double *restrict A_" : "double *A_";
  }

  /// Writes the kernel's argument list, joined by ", ": each array, then
  /// each program scalar, as its prefix and its name (or, \p ByIndex,
  /// its index among its kind and "]"), then \p Runtime when the kernel
  /// has split nests. Returns whether the list is nonempty.
  bool emitArgs(const char *ArrayPrefix, const char *ScalarPrefix,
                const char *Runtime, bool ByIndex = false) {
    const char *Sep = "";
    auto Arg = [&](const char *Prefix, const Symbol *S, size_t I) {
      OS << Sep << Prefix;
      if (ByIndex)
        OS << I << ']';
      else
        OS << S->getName();
      Sep = ", ";
    };
    for (size_t I = 0; I < Arrays.size(); ++I)
      Arg(ArrayPrefix, Arrays[I], I);
    for (size_t I = 0; I < Scalars.size(); ++I)
      Arg(ScalarPrefix, Scalars[I], I);
    if (NumSplit) {
      OS << Sep << Runtime;
      Sep = ", ";
    }
    return *Sep;
  }

  void emitSignature(const std::string &FnName) {
    OS << "void " << FnName << "(";
    if (!emitArgs(arrayParam(), "double *S_", "const alf_rt *alf_run"))
      OS << "void";
    OS << ")";
  }

  /// "  long i1, i2;": the loop indices of the deepest nest, if any.
  void emitIndexDecls() {
    unsigned Rank = maxRank();
    if (Rank == 0)
      return;
    OS << "  long ";
    for (unsigned D = 0; D < Rank; ++D)
      OS << (D ? ", " : "") << "i" << D + 1;
    OS << ";\n";
  }

  /// Seeds the accumulators of \p Nest's reductions.
  void emitScalarInits(const LoopNest &Nest) {
    for (const ScalarInit &SI : Nest.ScalarInits)
      OS << "  *S_" << SI.Acc->getName() << " = " << doubleLiteral(SI.Init)
         << ";\n";
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
    if (LP.isProgramScalar(S))
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
    std::string RHS;
    renderExpr(S.RHS.get(), /*Vec=*/false, RHS);
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
    emitScalarInits(Nest);

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

  /// The inclusive bounds of loop level \p L of \p Nest as C
  /// expressions: the region's, except for the outer loop inside a split
  /// nest's function, which runs over the chunk [alf_lo, alf_end).
  std::pair<std::string, std::string> loopBounds(const LoopNest &Nest,
                                                 unsigned L) const {
    if (Chunked && L == 0)
      return {"alf_lo", "alf_end - 1"};
    unsigned Dim = Nest.LSV.dimOf(L);
    return {std::to_string(Nest.R->lo(Dim)), std::to_string(Nest.R->hi(Dim))};
  }

  /// One `for (...)` header (no body) for loop level \p L of \p Nest.
  void emitLoopHeader(const LoopNest &Nest, unsigned L,
                      const std::string &Indent) {
    unsigned Dim = Nest.LSV.dimOf(L);
    auto [Lo, Hi] = loopBounds(Nest, L);
    bool Up = Nest.LSV.dirOf(L) > 0;
    OS << Indent
       << formatString("for (i%u = %s; i%u %s %s; %si%u)\n", Dim + 1,
                       (Up ? Lo : Hi).c_str(), Dim + 1, Up ? "<=" : ">=",
                       (Up ? Hi : Lo).c_str(), Up ? "++" : "--", Dim + 1);
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
        if (LP.isProgramScalar(S.LHS.Scalar))
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
      for (const ScalarSymbol *R : collectScalarRefs(S.RHS.get())) {
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

  /// One body statement in the vector spelling.
  void emitBodyStmtVec(const ScalarStmt &S, const std::string &Indent) {
    std::string RHS;
    renderExpr(S.RHS.get(), /*Vec=*/true, RHS);
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
      case semiring::OpKind::Max:
        OS << Indent << "{ const alf_vd alf_vv = " << RHS << "; " << Acc
           << " = alf_vd_sel((alf_vm)(alf_vv "
           << (S.SR->Plus == semiring::OpKind::Min ? '<' : '>') << " " << Acc
           << "), alf_vv, " << Acc << "); }\n";
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
    auto [Lo, Hi] = loopBounds(Nest, Nest.LSV.rank() - 1);
    emitScalarInits(Nest);

    // Accumulators (in first-fold order) and scalar temporaries.
    std::vector<std::pair<const ScalarSymbol *, const semiring::Semiring *>>
        Accs;
    std::vector<const ScalarSymbol *> Temps;
    std::vector<const ScalarSymbol *> Seen;
    for (const ScalarStmt &S : Nest.Body) {
      if (!S.LHS.isScalar() ||
          std::count(Seen.begin(), Seen.end(), S.LHS.Scalar))
        continue;
      Seen.push_back(S.LHS.Scalar);
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
       << formatString("  for (i%u = %s; i%u + %u <= %s; i%u += %u) {\n",
                       Dim + 1, Lo.c_str(), Dim + 1, W - 1, Hi.c_str(),
                       Dim + 1, W);
    VecAssigned.clear();
    for (const ScalarStmt &S : Nest.Body)
      emitBodyStmtVec(S, Indent + "    ");
    OS << Indent << "  }\n";
    // Peeled remainder: the exact scalar spelling continues from where
    // the vector loop stopped (folding straight into the scalar
    // accumulator — ⊕ commutes, and for non-exact + the whole nest is
    // already declared reassociated).
    OS << Indent
       << formatString("  for (; i%u <= %s; ++i%u)\n", Dim + 1, Hi.c_str(),
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

  /// Emits the deterministic opaque-statement semantics (matching
  /// exec::Interpreter's execOpaque).
  void emitOpaque(const OpaqueStmt &O) {
    OS << "  /* opaque: " << O.getDesc() << " */\n";
    const Region *R = O.getRegion();
    // The value every write derives from: 1 plus half of each scalar read.
    const char *Base = R ? "base" : "v";
    OS << "  {\n    double " << Base << " = 1.0;\n";
    for (const ScalarSymbol *S : O.scalarReads())
      OS << "    " << Base << " += 0.5 * (*S_" << S->getName() << ");\n";
    if (!R) {
      unsigned Ordinal = 0;
      for (const ScalarSymbol *S : O.scalarWrites())
        OS << "    *S_" << S->getName() << " = v + " << Ordinal++ << ";\n";
      OS << "  }\n";
      return;
    }
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

  /// The runtime table a kernel with split nests is called with (see
  /// CModule). Declared once, ahead of its first use.
  void emitRuntimeDecl() {
    if (RuntimeDeclared)
      return;
    RuntimeDeclared = true;
    OS << "/* The host runtime: parallel_for runs body(env, b, e) over "
          "chunks [b, e) that\n   partition [begin, end), on any threads, "
          "and returns when all have run. */\n";
    OS << "typedef struct alf_rt alf_rt;\n";
    OS << "struct alf_rt {\n";
    OS << "  void (*parallel_for)(const alf_rt *rt, long begin, long end,\n";
    OS << "                       void (*body)(void *env, long begin, long "
          "end),\n";
    OS << "                       void *env);\n";
    OS << "};\n\n";
  }

  /// One split nest as a case of the split function: its outer loop runs
  /// over the chunk [alf_lo, alf_end). The contracted scalars it assigns
  /// and its vector temporaries are locals of the case, so concurrent
  /// chunks share nothing they write but disjoint array elements.
  void emitSplitCase(size_t Node, const LoopNest &Nest) {
    OS << "  case " << Node << ": {\n";
    std::set<const ScalarSymbol *> Locals;
    for (const ScalarStmt &S : Nest.Body)
      if (S.LHS.isScalar() && Locals.insert(S.LHS.Scalar).second)
        OS << "  double " << S.LHS.Scalar->getName() << " = 0.0;\n";
    Chunked = true;
    emitNest(Nest);
    Chunked = false;
    OS << "  break;\n  }\n";
  }

  /// The file-scope half of thread splitting: the runtime table, the
  /// environment struct and the split function, which runs split nest
  /// alf_e->nest over one chunk. All split nests share that one function
  /// because the C compiler's cost grows with the number of functions.
  void emitSplitFunction(const std::string &FnName) {
    std::string Fn = FnName + "_split";
    emitRuntimeDecl();
    OS << "typedef struct {\n";
    for (const ArraySymbol *A : Arrays)
      OS << "  double *A_" << A->getName() << ";\n";
    for (const ScalarSymbol *S : Scalars)
      OS << "  double *S_" << S->getName() << ";\n";
    OS << "  int nest;\n";
    OS << "} alf_env;\n\n";
    // noinline: the null-runtime call sites would otherwise get a second,
    // inlined copy of the nests to compile.
    OS << "static __attribute__((noinline)) void " << Fn
       << "(void *alf_envp, long alf_lo, long alf_end) {\n";
    OS << "  const alf_env *alf_e = (const alf_env *)alf_envp;\n";
    // The arrays and program scalars the split nests reference, from the
    // environment the kernel filled.
    std::set<const ArraySymbol *> UsedArrays;
    std::set<const ScalarSymbol *> UsedScalars;
    for (size_t Node = 0; Node < LP.nodes().size(); ++Node) {
      if (!Split.NodePlans[Node].isParallel())
        continue;
      const auto *Nest = cast<LoopNest>(LP.nodes()[Node].get());
      for (const ScalarStmt &S : Nest->Body) {
        if (!S.LHS.isScalar())
          UsedArrays.insert(S.LHS.Array);
        for (const ArrayRefExpr *Ref : collectArrayRefs(S.RHS.get()))
          UsedArrays.insert(Ref->getSymbol());
        for (const ScalarSymbol *Sc : collectScalarRefs(S.RHS.get()))
          UsedScalars.insert(Sc);
      }
    }
    for (const ArraySymbol *A : Arrays)
      if (UsedArrays.count(A))
        OS << "  " << arrayParam() << A->getName() << " = alf_e->A_"
           << A->getName() << ";\n";
    for (const ScalarSymbol *Sc : Scalars)
      if (UsedScalars.count(Sc))
        OS << "  double *S_" << Sc->getName() << " = alf_e->S_"
           << Sc->getName() << ";\n";
    emitIndexDecls();
    OS << "  switch (alf_e->nest) {\n";
    for (size_t Node = 0; Node < LP.nodes().size(); ++Node)
      if (Split.NodePlans[Node].isParallel())
        emitSplitCase(Node, *cast<LoopNest>(LP.nodes()[Node].get()));
    OS << "  }\n";
    OS << "}\n\n";
    // Runs one split nest: through the runtime's parallel_for, or in one
    // call over the whole outer loop when the kernel got no runtime. Not
    // inlined into its call sites, one per split nest, for the same
    // reason.
    OS << "static __attribute__((noinline)) void alf_run_split(const alf_rt "
          "*rt, alf_env *e, int nest, long begin, long end) {\n";
    OS << "  e->nest = nest;\n";
    OS << "  if (rt)\n";
    OS << "    rt->parallel_for(rt, begin, end, " << Fn << ", e);\n";
    OS << "  else\n";
    OS << "    " << Fn << "(e, begin, end);\n";
    OS << "}\n\n";
  }

  /// Runs split nest \p Node over its whole outer loop.
  void emitSplitCall(size_t Node, const LoopNest &Nest) {
    unsigned Dim = Nest.LSV.dimOf(0);
    OS << formatString("  alf_run_split(alf_run, &alf_e, %zu, %lld, %lld);\n",
                       Node, static_cast<long long>(Nest.R->lo(Dim)),
                       static_cast<long long>(Nest.R->hi(Dim)) + 1);
  }

  void emitKernel(const std::string &FnName) {
    if (NumSplit)
      emitSplitFunction(FnName);
    emitSignature(FnName);
    OS << " {\n";
    emitIndexDecls();
    // Locals for contracted arrays' scalars.
    for (const ArraySymbol *A : P.arrays())
      if (const ScalarSymbol *S = LP.scalarFor(A))
        OS << "  double " << S->getName() << " = 0.0;\n";
    if (NumSplit) {
      OS << "  alf_env alf_e = {";
      emitArgs("A_", "S_", "0");
      OS << "};\n";
    }

    for (size_t Node = 0; Node < LP.nodes().size(); ++Node) {
      const LNode *N = LP.nodes()[Node].get();
      if (const auto *Nest = dyn_cast<LoopNest>(N)) {
        if (Split.NodePlans[Node].isParallel())
          emitSplitCall(Node, *Nest);
        else
          emitNest(*Nest);
        continue;
      }
      if (const auto *C = dyn_cast<CommOp>(N)) {
        OS << "  /* halo exchange " << C->Array->getName() << C->Dir.str()
           << " (single address space: no-op) */\n";
        continue;
      }
      emitOpaque(*cast<OpaqueOp>(N)->Src);
    }
    OS << "}\n";
  }

  /// Emits the fixed-ABI wrapper the native JIT backend dlopens:
  /// `void <FnName>_entry(double **arrays, double *scalars, const alf_rt
  /// *rt)`, unpacking the caller-owned buffers into the kernel's
  /// positional parameters (in the order CModule reports) and handing
  /// the runtime on to a kernel with split nests.
  void emitEntry(const std::string &FnName) {
    OS << '\n';
    emitRuntimeDecl();
    OS << "void " << FnName
       << "_entry(double **arrays, double *scalars, const alf_rt *rt) {\n";
    OS << "  " << FnName << "(";
    emitArgs("arrays[", "&scalars[", "rt", /*ByIndex=*/true);
    OS << ");\n}\n";
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
    for (const ArraySymbol *A : Arrays) {
      const char *Name = A->getName().c_str();
      long long N = static_cast<long long>(layoutOf(A).elements());
      OS << formatString("  double *A_%s = malloc(%lld * sizeof(double));\n",
                         Name, N);
      if (A->isLiveIn())
        OS << formatString("  alf_rng_state = seed ^ alf_hash(\"%s\");\n",
                           Name);
      OS << formatString("  for (i = 0; i < %lld; ++i) A_%s[i] = %s;\n", N,
                         Name,
                         A->isLiveIn() ? "-1.0 + 2.0 * alf_rng_double()"
                                       : "0.0");
    }
    for (const ScalarSymbol *S : Scalars) {
      OS << formatString("  alf_rng_state = seed ^ alf_hash(\"%s\");\n",
                         S->getName().c_str());
      OS << formatString("  double v_%s = 0.5 + alf_rng_double();\n",
                         S->getName().c_str());
    }

    // No runtime: each split nest runs in one serial call.
    OS << "  " << FnName << "(";
    emitArgs("A_", "&v_", "(const alf_rt *)0");
    OS << ");\n";

    // Checksums: plain linear sums of live-out arrays, then scalars.
    for (const ArraySymbol *A : Arrays) {
      if (!A->isLiveOut())
        continue;
      const ArrayLayout &L = layoutOf(A);
      OS << formatString("  { double sum = 0.0; for (i = 0; i < %lld; ++i) "
                         "sum += A_%s[i]; printf(\"%s %%.17g\\n\", sum); }\n",
                         static_cast<long long>(L.elements()),
                         A->getName().c_str(), A->getName().c_str());
    }
    for (const ScalarSymbol *S : Scalars)
      OS << formatString("  printf(\"%s %%.17g\\n\", v_%s);\n",
                         S->getName().c_str(), S->getName().c_str());
    for (const ArraySymbol *A : Arrays)
      OS << "  free(A_" << A->getName() << ");\n";
    OS << "  return 0;\n}\n";
  }
};

} // namespace

CEmitResult scalarize::emitC(const LoopProgram &LP,
                             const std::string &FnName) {
  return Emitter(LP).emit(FnName, Emitter::Tail::None);
}

CEmitResult scalarize::emitCWithHarness(const LoopProgram &LP,
                                        const std::string &FnName,
                                        uint64_t Seed,
                                        const CEmitOptions &Opts) {
  return Emitter(LP, Opts).emit(FnName, Emitter::Tail::Harness, Seed);
}

CModule scalarize::emitCModule(const LoopProgram &LP,
                               const std::string &FnName,
                               const CEmitOptions &Opts) {
  CModule Module;
  Emitter E(LP, Opts);
  CEmitResult Result = E.emit(FnName, Emitter::Tail::Entry);
  Module.Error = std::move(Result.Error);
  if (!Module.ok())
    return Module;
  Module.Source = std::move(Result.Source);
  Module.EntryName = FnName + "_entry";
  E.describe(Module);
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

//===- verify/SafetyChecker.cpp - Memory-safety abstract interpreter ------===//
//
// Pass 5 of the verification layer: an abstract interpretation of the
// scalarized loop nests that proves the program memory-safe before it is
// allowed to execute. Three independent obligations, each reported under
// its own pass name:
//
//  * safety-bounds  — every load and store of every loop nest, ranged
//    over the nest's induction-variable intervals (analysis/Intervals),
//    lands inside the array's allocated footprint. The allocation is the
//    union of source-program reference boxes (analysis/Footprint is the
//    single source of truth Storage allocates with), and each access is
//    first proved against a *source box symbolically* — regions are
//    interned, so pointer-equal parameters cancel and the proof holds
//    for every instantiation of the extents — before falling back to the
//    witness bounds. Rolling-buffer (partially contracted) accesses are
//    wrapped modulo the buffer extents exactly as the executors wrap
//    them.
//  * safety-init    — a use-before-definition dataflow: contracted
//    scalars must be written earlier in body order than any read, a
//    semiring accumulation must be dominated by its ⊕-identity init,
//    arrays read anywhere must be live-in or written somewhere in the
//    loop program, and each live-out array's writes must still cover the
//    write footprint the source program promises (a truncated copy-out
//    region fails here).
//  * safety-overlap — two nests from distinct clusters whose write boxes
//    on the same array intersect must be ordered by a dependence path in
//    the ASDG; unordered overlapping writes mean the scalarizer invented
//    an ordering the graph never licensed.
//
// Like every pass in this library the checker re-derives its facts from
// the primary sources (the source program and the scalarized nests
// themselves) and never trusts the phase that produced them.
//
//===----------------------------------------------------------------------===//

#include "analysis/Footprint.h"
#include "analysis/Intervals.h"
#include "support/Casting.h"
#include "obs/Obs.h"
#include "support/StringUtil.h"
#include "verify/Verify.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

using namespace alf;
using namespace alf::analysis;
using namespace alf::ir;
using namespace alf::lir;
using namespace alf::verify;

ALF_COUNTER(NumSafetyChecks, "verify.safety.checks", "Safety-checker runs");
ALF_COUNTER(NumSafetyFindings, "verify.safety.findings",
            "Safety-checker findings");
ALF_COUNTER(NumBoundsProofs, "verify.safety.bounds_proofs",
            "Load/store bounds obligations discharged");
ALF_COUNTER(NumBoundsProofsSymbolic, "verify.safety.bounds_proofs_symbolic",
            "Bounds obligations discharged symbolically (all extents)");
ALF_COUNTER(NumInitObligations, "verify.safety.init_obligations",
            "Use-before-definition obligations discharged");

namespace {

constexpr const char *BoundsPass = "safety-bounds";
constexpr const char *InitPass = "safety-init";
constexpr const char *OverlapPass = "safety-overlap";

/// One rectangular access box of the source program: the statement's
/// region shifted by the constant reference offset.
struct SrcBox {
  const Region *R = nullptr;
  Offset Off;
};

/// All source boxes per array id, split by access kind. These are the
/// primary-source facts the bounds and copy-out proofs compare against;
/// their per-dimension union is exactly what analysis/Footprint computes
/// and Storage allocates.
struct SrcBoxes {
  std::map<unsigned, std::vector<SrcBox>> All;
  std::map<unsigned, std::vector<SrcBox>> Writes;

  static SrcBoxes collect(const Program &P) {
    SrcBoxes Out;
    auto Add = [&](std::map<unsigned, std::vector<SrcBox>> &Into,
                   const ArraySymbol *A, const Region *R, Offset Off) {
      Into[A->getId()].push_back(SrcBox{R, std::move(Off)});
    };
    for (unsigned I = 0; I < P.numStmts(); ++I) {
      const Stmt *S = P.getStmt(I);
      if (const auto *NS = dyn_cast<NormalizedStmt>(S)) {
        Add(Out.All, NS->getLHS(), NS->getRegion(), NS->getLHSOffset());
        Add(Out.Writes, NS->getLHS(), NS->getRegion(), NS->getLHSOffset());
        for (const ArrayRefExpr *Ref : NS->rhsArrayRefs())
          Add(Out.All, Ref->getSymbol(), NS->getRegion(), Ref->getOffset());
        continue;
      }
      if (const auto *RS = dyn_cast<ReduceStmt>(S)) {
        for (const ArrayRefExpr *Ref : RS->bodyArrayRefs())
          Add(Out.All, Ref->getSymbol(), RS->getRegion(), Ref->getOffset());
        continue;
      }
      if (const auto *OS = dyn_cast<OpaqueStmt>(S)) {
        if (!OS->getRegion())
          continue;
        const Region *R = OS->getRegion();
        for (const ArraySymbol *A : OS->arrayReads())
          if (A->getRank() == R->rank())
            Add(Out.All, A, R, Offset::zero(R->rank()));
        for (const ArraySymbol *A : OS->arrayWrites())
          if (A->getRank() == R->rank()) {
            Add(Out.All, A, R, Offset::zero(R->rank()));
            Add(Out.Writes, A, R, Offset::zero(R->rank()));
          }
      }
    }
    return Out;
  }
};

/// Context shared by the sub-passes of one verifySafety run.
struct SafetyContext {
  const LoopProgram &LP;
  const SrcBoxes Boxes;
  const FootprintInfo FI;

  explicit SafetyContext(const LoopProgram &InLP)
      : LP(InLP), Boxes(SrcBoxes::collect(InLP.source())),
        FI(FootprintInfo::compute(InLP.source())) {}
};

std::string accessName(const ArraySymbol *A, const Offset &Off) {
  return A->getName() + Off.str();
}

/// Proves that the access interval \p Access along dimension \p D of
/// array \p A stays inside the allocated footprint. The symbolic route
/// compares against each source box of A: any single box bounds the
/// footprint's union from inside (its low end is >= the union's low end
/// never holds — but the union's low end is <= every box's low end, so
/// proving the access above one box's low end proves it above the
/// union's). The concrete fallback evaluates against the footprint
/// region itself, which is what Storage allocates.
BoundProof proveAccessInBounds(const SafetyContext &Ctx, const ArraySymbol *A,
                               unsigned D, const SymInterval &Access) {
  BoundProof LoProof = BoundProof::Disproved;
  BoundProof HiProof = BoundProof::Disproved;
  auto It = Ctx.Boxes.All.find(A->getId());
  if (It != Ctx.Boxes.All.end()) {
    for (const SrcBox &Box : It->second) {
      if (Box.R->rank() <= D)
        continue;
      SymInterval BoxIv = SymInterval::ofDim(Box.R, D, Box.Off[D]);
      // Box.Lo >= Union.Lo is false in general; Union.Lo <= Box.Lo always
      // holds, so Access.Lo >= Box.Lo implies Access.Lo >= Union.Lo.
      BoundProof P = proveLeq(BoxIv.Lo, Access.Lo);
      if (P == BoundProof::Symbolic ||
          (P == BoundProof::Concrete && LoProof == BoundProof::Disproved))
        LoProof = P;
      P = proveLeq(Access.Hi, BoxIv.Hi);
      if (P == BoundProof::Symbolic ||
          (P == BoundProof::Concrete && HiProof == BoundProof::Disproved))
        HiProof = P;
      if (LoProof == BoundProof::Symbolic && HiProof == BoundProof::Symbolic)
        break;
    }
  }
  BoundProof Best = weakerProof(LoProof, HiProof);
  if (Best != BoundProof::Disproved)
    return Best;

  // Concrete fallback against the allocated bounding box itself.
  const Region *Alloc = Ctx.FI.boundsFor(A);
  if (!Alloc || Alloc->rank() <= D)
    return BoundProof::Disproved;
  SymInterval AllocIv{AffineBound::constant(Alloc->lo(D)),
                      AffineBound::constant(Alloc->hi(D))};
  BoundProof P = proveContains(AllocIv, Access);
  return P == BoundProof::Disproved ? BoundProof::Disproved
                                    : BoundProof::Concrete;
}

/// Checks one array access (load or store) of \p Nest against A's
/// allocation, reporting per-dimension violations.
void checkAccess(const SafetyContext &Ctx, const LoopNest &Nest,
                 const ArraySymbol *A, const Offset &Off, bool IsWrite,
                 VerifyReport &Out) {
  const Region *N = Nest.R;
  if (Off.rank() != N->rank() || A->getRank() != N->rank()) {
    Out.add(BoundsPass,
            formatString("cluster %u: access %s has rank %u but the nest "
                         "iterates rank %u",
                         Nest.ClusterId, accessName(A, Off).c_str(),
                         Off.rank(), N->rank()));
    return;
  }
  const xform::PartialPlan *Plan = Ctx.LP.partialPlanFor(A);
  for (unsigned D = 0; D < N->rank(); ++D) {
    if (Plan && Plan->isReduced(D)) {
      // Rolling-buffer dimension: the executors wrap the coordinate
      // modulo the buffer extent, so the access is in-bounds exactly
      // when the buffer is nonempty.
      if (Plan->BufferExtents[D] < 1)
        Out.add(BoundsPass,
                formatString("cluster %u: %s rolling buffer has empty "
                             "extent along dimension %u",
                             Nest.ClusterId, A->getName().c_str(), D));
      continue;
    }
    SymInterval Access = SymInterval::ofDim(N, D, Off[D]);
    ++NumBoundsProofs;
    BoundProof P;
    if (Plan) {
      // Non-reduced dimensions of a rolling buffer keep the original
      // footprint bounds; the plan's extents are concrete by design.
      Region Buf = Plan->bufferRegion();
      SymInterval BufIv{AffineBound::constant(Buf.lo(D)),
                        AffineBound::constant(Buf.hi(D))};
      P = proveContains(BufIv, Access);
      if (P == BoundProof::Symbolic)
        P = BoundProof::Concrete;
    } else {
      P = proveAccessInBounds(Ctx, A, D, Access);
    }
    if (P == BoundProof::Symbolic)
      ++NumBoundsProofsSymbolic;
    if (P == BoundProof::Disproved) {
      const Region *Alloc = Ctx.FI.boundsFor(A);
      Out.add(
          BoundsPass,
          formatString(
              "cluster %u: %s of %s ranges over %s along dimension %u but "
              "the allocated bounds are %s",
              Nest.ClusterId, IsWrite ? "store" : "load",
              accessName(A, Off).c_str(), Access.str().c_str(), D,
              Alloc ? Alloc->str().c_str() : "(no footprint)"));
    }
  }
}

void checkBounds(const SafetyContext &Ctx, VerifyReport &Out) {
  for (const auto &Node : Ctx.LP.nodes()) {
    const auto *Nest = dyn_cast<LoopNest>(Node.get());
    if (!Nest)
      continue; // Comm/opaque ops replay source accesses footprint covers.
    if (!Nest->R) {
      Out.add(BoundsPass, formatString("cluster %u: loop nest has no region",
                                       Nest->ClusterId));
      continue;
    }
    for (const ScalarStmt &SS : Nest->Body) {
      if (!SS.LHS.isScalar())
        checkAccess(Ctx, *Nest, SS.LHS.Array, SS.LHS.Off, /*IsWrite=*/true,
                    Out);
      for (const ArrayRefExpr *Ref : collectArrayRefs(SS.RHS.get()))
        checkAccess(Ctx, *Nest, Ref->getSymbol(), Ref->getOffset(),
                    /*IsWrite=*/false, Out);
    }
  }
}

/// The use-before-definition dataflow. Definedness is tracked at two
/// granularities: scalars defined for the rest of the program (source
/// scalars, accumulators after their init, scalar writes of earlier
/// nests) and scalars defined so far in the current body's single
/// iteration (contracted temporaries are re-written every iteration, so
/// a body-local write dominates only the reads after it).
void checkInit(const SafetyContext &Ctx, VerifyReport &Out) {
  const Program &P = Ctx.LP.source();

  // A reduction defines its accumulator from the ⊕ identity — the value
  // the scalar held before the nest is never consulted. So accumulation
  // targets are NOT assumed defined by the source program: each one must
  // be dominated by its ScalarInit (or an explicit earlier write).
  std::set<const ScalarSymbol *> AccTargets;
  for (const auto &Node : Ctx.LP.nodes())
    if (const auto *Nest = dyn_cast<LoopNest>(Node.get()))
      for (const ScalarStmt &SS : Nest->Body)
        if (SS.Accumulate && SS.LHS.isScalar())
          AccTargets.insert(SS.LHS.Scalar);

  std::set<const ScalarSymbol *> Persistent;
  for (const Symbol *S : P.symbols())
    if (const auto *SC = dyn_cast<ScalarSymbol>(S))
      if (!AccTargets.count(SC))
        Persistent.insert(SC);

  // Arrays written anywhere in the loop program (any nest store, opaque
  // write, or comm fill counts as producing the array's storage).
  std::set<const ArraySymbol *> WrittenArrays;
  for (const auto &Node : Ctx.LP.nodes()) {
    if (const auto *Nest = dyn_cast<LoopNest>(Node.get())) {
      for (const ScalarStmt &SS : Nest->Body)
        if (!SS.LHS.isScalar())
          WrittenArrays.insert(SS.LHS.Array);
    } else if (const auto *Op = dyn_cast<OpaqueOp>(Node.get())) {
      if (Op->Src)
        for (const ArraySymbol *A : Op->Src->arrayWrites())
          WrittenArrays.insert(A);
    }
  }

  std::set<const ArraySymbol *> ReportedArrays;
  for (const auto &Node : Ctx.LP.nodes()) {
    const auto *Nest = dyn_cast<LoopNest>(Node.get());
    if (!Nest)
      continue;
    std::set<const ScalarSymbol *> Local;
    for (const lir::ScalarInit &SI : Nest->ScalarInits)
      Local.insert(SI.Acc);
    for (const ScalarStmt &SS : Nest->Body) {
      // Reads first: an accumulation reads its own LHS.
      ++NumInitObligations;
      if (SS.Accumulate && SS.LHS.isScalar() && !Persistent.count(SS.LHS.Scalar) &&
          !Local.count(SS.LHS.Scalar))
        Out.add(InitPass,
                formatString("cluster %u: accumulator %s is combined with "
                             "%s before any ⊕-identity initialization",
                             Nest->ClusterId, SS.LHS.Scalar->getName().c_str(),
                             SS.SR->Name.c_str()));
      walkExpr(SS.RHS.get(), [&](const Expr *E) {
        if (const auto *SR = dyn_cast<ScalarRefExpr>(E)) {
          ++NumInitObligations;
          if (!Persistent.count(SR->getSymbol()) &&
              !Local.count(SR->getSymbol()))
            Out.add(InitPass,
                    formatString("cluster %u: scalar %s is read before it "
                                 "is defined",
                                 Nest->ClusterId,
                                 SR->getSymbol()->getName().c_str()));
        } else if (const auto *AR = dyn_cast<ArrayRefExpr>(E)) {
          const ArraySymbol *A = AR->getSymbol();
          ++NumInitObligations;
          if (!A->isLiveIn() && !WrittenArrays.count(A) &&
              ReportedArrays.insert(A).second)
            Out.add(InitPass,
                    formatString("cluster %u: array %s is read but never "
                                 "written and is not live-in",
                                 Nest->ClusterId, A->getName().c_str()));
        }
      });
      // Then the definition this statement makes.
      if (SS.LHS.isScalar())
        Local.insert(SS.LHS.Scalar);
    }
    // Scalar values survive the nest (reduction results feed later
    // nests); per-element contracted temporaries do too in the abstract —
    // a later read through a *different* nest would already be a fusion
    // legality violation, which pass 3 reports in the right vocabulary.
    Persistent.insert(Local.begin(), Local.end());
  }

  // Copy-out coverage: every live-out array must be written over at
  // least the box the source program writes. A scalarizer that shrinks a
  // nest region truncates the copy-out silently — the program still runs
  // sanitizer-clean, which is exactly why this is a static obligation.
  std::map<unsigned, std::vector<std::pair<const LoopNest *, Offset>>>
      LirWrites;
  for (const auto &Node : Ctx.LP.nodes())
    if (const auto *Nest = dyn_cast<LoopNest>(Node.get()))
      for (const ScalarStmt &SS : Nest->Body)
        if (!SS.LHS.isScalar())
          LirWrites[SS.LHS.Array->getId()].push_back({Nest, SS.LHS.Off});
  for (const ArraySymbol *A : P.arrays()) {
    if (!A->isLiveOut() || Ctx.LP.isContracted(A) || Ctx.LP.partialPlanFor(A))
      continue;
    auto SrcIt = Ctx.Boxes.Writes.find(A->getId());
    if (SrcIt == Ctx.Boxes.Writes.end())
      continue;
    bool OpaqueWrite = false;
    for (const auto &Node : Ctx.LP.nodes())
      if (const auto *Op = dyn_cast<OpaqueOp>(Node.get()))
        if (Op->Src && std::count(Op->Src->arrayWrites().begin(),
                                  Op->Src->arrayWrites().end(), A))
          OpaqueWrite = true;
    if (OpaqueWrite)
      continue; // The opaque statement writes whatever the source did.
    const auto &Nests = LirWrites[A->getId()];
    for (const SrcBox &Box : SrcIt->second) {
      bool Covered = false;
      for (const auto &[Nest, Off] : Nests) {
        if (!Nest->R || Nest->R->rank() != Box.R->rank() ||
            Off.rank() != Box.Off.rank())
          continue;
        BoundProof Proof = BoundProof::Symbolic;
        for (unsigned D = 0; D < Box.R->rank(); ++D)
          Proof = weakerProof(
              Proof, proveContains(SymInterval::ofDim(Nest->R, D, Off[D]),
                                   SymInterval::ofDim(Box.R, D, Box.Off[D])));
        if (Proof != BoundProof::Disproved) {
          Covered = true;
          break;
        }
      }
      if (!Covered) {
        Out.add(InitPass,
                formatString("live-out array %s: the source program writes "
                             "%s%s but no scalarized store covers it "
                             "(truncated copy-out)",
                             A->getName().c_str(), Box.R->str().c_str(),
                             Box.Off.str().c_str()));
        break;
      }
    }
  }
}

/// Concrete per-dimension write box of one nest store at the witness
/// extents, for the overlap cross-check.
struct ConcreteBox {
  std::vector<int64_t> Lo, Hi;

  static ConcreteBox of(const Region &R, const Offset &Off) {
    ConcreteBox B;
    for (unsigned D = 0; D < R.rank(); ++D) {
      B.Lo.push_back(R.lo(D) + Off[D]);
      B.Hi.push_back(R.hi(D) + Off[D]);
    }
    return B;
  }

  bool overlaps(const ConcreteBox &O) const {
    if (Lo.size() != O.Lo.size())
      return false;
    for (size_t D = 0; D < Lo.size(); ++D)
      if (Hi[D] < O.Lo[D] || O.Hi[D] < Lo[D])
        return false;
    return true;
  }
};

void checkOverlap(const SafetyContext &Ctx, const analysis::ASDG &G,
                  VerifyReport &Out) {
  // Map each source statement to the nest that carries it, then lift the
  // ASDG's statement edges to nest-level reachability.
  std::vector<const LoopNest *> Nests;
  std::map<unsigned, size_t> StmtToNest;
  for (const auto &Node : Ctx.LP.nodes())
    if (const auto *Nest = dyn_cast<LoopNest>(Node.get())) {
      for (const ScalarStmt &SS : Nest->Body)
        StmtToNest.emplace(SS.SrcStmtId, Nests.size());
      Nests.push_back(Nest);
    }
  size_t N = Nests.size();
  if (N < 2)
    return;
  // Reach[I][J] = a dependence path orders nest I before nest J.
  std::vector<std::vector<bool>> Reach(N, std::vector<bool>(N, false));
  for (const analysis::DepEdge &E : G.edges()) {
    auto SIt = StmtToNest.find(E.Src), TIt = StmtToNest.find(E.Tgt);
    if (SIt != StmtToNest.end() && TIt != StmtToNest.end() &&
        SIt->second != TIt->second)
      Reach[SIt->second][TIt->second] = true;
  }
  for (size_t K = 0; K < N; ++K)
    for (size_t I = 0; I < N; ++I)
      if (Reach[I][K])
        for (size_t J = 0; J < N; ++J)
          if (Reach[K][J])
            Reach[I][J] = true;

  // Write boxes per nest per array.
  for (size_t I = 0; I < N; ++I) {
    if (!Nests[I]->R)
      continue;
    for (size_t J = I + 1; J < N; ++J) {
      if (!Nests[J]->R || Nests[I]->ClusterId == Nests[J]->ClusterId)
        continue;
      if (Reach[I][J] || Reach[J][I])
        continue;
      for (const ScalarStmt &SA : Nests[I]->Body) {
        if (SA.LHS.isScalar())
          continue;
        for (const ScalarStmt &SB : Nests[J]->Body) {
          if (SB.LHS.isScalar() || SA.LHS.Array != SB.LHS.Array)
            continue;
          ConcreteBox BA = ConcreteBox::of(*Nests[I]->R, SA.LHS.Off);
          ConcreteBox BB = ConcreteBox::of(*Nests[J]->R, SB.LHS.Off);
          if (BA.overlaps(BB)) {
            Out.add(OverlapPass,
                    formatString("clusters %u and %u both write %s over "
                                 "overlapping elements but no dependence "
                                 "path orders them",
                                 Nests[I]->ClusterId, Nests[J]->ClusterId,
                                 SA.LHS.Array->getName().c_str()));
            goto nextPair;
          }
        }
      }
    nextPair:;
    }
  }
}

} // namespace

VerifyReport verify::verifySafety(const LoopProgram &LP,
                                  const analysis::ASDG *G) {
  ++NumSafetyChecks;
  VerifyReport Out;
  SafetyContext Ctx(LP);
  checkBounds(Ctx, Out);
  checkInit(Ctx, Out);
  if (G)
    checkOverlap(Ctx, *G, Out);
  NumSafetyFindings += Out.Findings.size();
  return Out;
}

//===- scalarize/LoopIR.h - Scalarized loop nest IR ------------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The target of scalarization: a sequence of loop nests (one per fusible
/// cluster), communication operations and opaque operations. Each loop
/// nest carries the loop structure vector chosen by FIND-LOOP-STRUCTURE
/// and a body of element-wise scalar statements in dependence order.
/// Contracted arrays appear as scalar variables owned by the LoopProgram.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_SCALARIZE_LOOPIR_H
#define ALF_SCALARIZE_LOOPIR_H

#include "analysis/Footprint.h"
#include "ir/Program.h"
#include "xform/LoopStructure.h"
#include "xform/PartialContraction.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <vector>

namespace alf {
namespace lir {

/// The left-hand side of a scalarized statement: either an array element
/// at a constant offset from the loop indices, or a scalar (a contracted
/// array or a plain scalar variable).
struct Target {
  const ir::ArraySymbol *Array = nullptr; // null => scalar target
  ir::Offset Off;
  const ir::ScalarSymbol *Scalar = nullptr;

  bool isScalar() const { return Scalar != nullptr; }

  static Target elem(const ir::ArraySymbol *A, ir::Offset O) {
    Target T;
    T.Array = A;
    T.Off = std::move(O);
    return T;
  }
  static Target scalar(const ir::ScalarSymbol *S) {
    Target T;
    T.Scalar = S;
    return T;
  }
};

/// One element-wise assignment inside a loop nest body. The right-hand
/// side reuses the ir::Expr tree; ArrayRefExpr means "element at loop
/// indices + offset", ScalarRefExpr may name a contracted array's scalar.
/// When `Accumulate` is set the statement folds the value into a scalar
/// accumulator with the ⊕ of `SR` (`LHS = LHS ⊕ RHS`) instead of
/// assigning; the matching ScalarInit seeds the accumulator with SR's 0̄.
struct ScalarStmt {
  Target LHS;
  ir::ExprPtr RHS;
  unsigned SrcStmtId = 0; ///< Provenance: originating array statement.
  bool Accumulate = false;
  const semiring::Semiring *SR = &semiring::plusTimes();
};

/// Base class for the nodes of a LoopProgram.
class LNode {
public:
  enum class LNodeKind { Loop, Comm, Opaque };

private:
  LNodeKind Kind;

protected:
  explicit LNode(LNodeKind Kind) : Kind(Kind) {}

public:
  virtual ~LNode();
  LNodeKind getKind() const { return Kind; }
};

/// Initialization of one reduction accumulator before its nest runs: the
/// ⊕-identity value plus the semiring whose ⊕ will fold into it. The
/// semiring travels with the init so lane-splitting backends (the
/// vectorizing C emitter) know how to seed every vector lane with the
/// identity and fold the lanes back together at loop exit without
/// re-deriving the algebra from the body.
struct ScalarInit {
  const ir::ScalarSymbol *Acc = nullptr;
  double Init = 0.0; ///< 0̄ of SR; splat across all lanes when vectorized
  const semiring::Semiring *SR = &semiring::plusTimes();
};

/// A loop nest implementing one fusible cluster. Accumulators of any
/// reductions in the body are initialized to their identity before the
/// nest runs (ScalarInits).
class LoopNest : public LNode {
public:
  xform::LoopStructureVector LSV;
  const ir::Region *R = nullptr;
  std::vector<ScalarStmt> Body;
  std::vector<ScalarInit> ScalarInits;
  unsigned ClusterId = 0;

  /// The unconstrained distance vectors of all dependences internal to
  /// the cluster (the inputs FIND-LOOP-STRUCTURE ran on). Retained so
  /// downstream consumers — parallelization legality above all — can
  /// reason about which loops carry dependences without re-deriving the
  /// fusion partition.
  std::vector<ir::Offset> UDVs;

  LoopNest() : LNode(LNodeKind::Loop) {}

  static bool classof(const LNode *N) {
    return N->getKind() == LNodeKind::Loop;
  }
};

/// A halo-exchange communication operation. `Dir` has exactly one nonzero
/// component: sign gives the neighbour direction along the distributed
/// dimension, magnitude the halo width in elements. Created either by
/// scalarizing an array-level CommStmt (favor-communication policy) or by
/// loop-level insertion after fusion (favor-fusion policy).
class CommOp : public LNode {
public:
  const ir::ArraySymbol *Array = nullptr;
  ir::Offset Dir;
  ir::CommStmt::CommPhase Phase = ir::CommStmt::CommPhase::Whole;
  int PairId = -1;
  const ir::CommStmt *Src = nullptr; ///< Provenance when array-level.

  CommOp() : LNode(LNodeKind::Comm) {}

  static bool classof(const LNode *N) {
    return N->getKind() == LNodeKind::Comm;
  }
};

/// An opaque operation carried over from the array program.
class OpaqueOp : public LNode {
public:
  const ir::OpaqueStmt *Src = nullptr;

  OpaqueOp() : LNode(LNodeKind::Opaque) {}

  static bool classof(const LNode *N) {
    return N->getKind() == LNodeKind::Opaque;
  }
};

/// Where one allocated array lies: its bounds, row-major element strides
/// (the last dimension has stride 1), the synthetic byte address of its
/// first element and its payload size in bytes.
struct ArrayLayout {
  const ir::ArraySymbol *Array = nullptr;
  ir::Region Bounds;
  std::vector<int64_t> Strides;
  uint64_t BaseAddr = 0;
  uint64_t Bytes = 0;

  /// The row-major layout of \p A over \p Bounds at \p BaseAddr. An
  /// element count that overflows int64_t or a byte size that overflows
  /// uint64_t throws std::length_error, so no stride product ever wraps.
  static ArrayLayout rowMajor(const ir::ArraySymbol *A,
                              const ir::Region &Bounds, uint64_t BaseAddr);

  uint64_t elements() const { return Bytes / Array->getElemSize(); }

  /// Linear element index of the point \p Idx (absolute coordinates).
  int64_t linearIndex(const std::vector<int64_t> &Idx) const {
    assert(Idx.size() == Bounds.rank() && "index rank mismatch");
    int64_t Linear = 0;
    for (unsigned D = 0; D < Bounds.rank(); ++D) {
      assert(Idx[D] >= Bounds.lo(D) && Idx[D] <= Bounds.hi(D) &&
             "index outside allocated bounds");
      Linear += (Idx[D] - Bounds.lo(D)) * Strides[D];
    }
    return Linear;
  }

  /// Synthetic byte address of the element at \p Idx.
  uint64_t addrOf(const std::vector<int64_t> &Idx) const {
    return BaseAddr +
           static_cast<uint64_t>(linearIndex(Idx)) * Array->getElemSize();
  }
};

/// The storage layout of a LoopProgram: every array with storage, in
/// symbol order, laid out back to back from FirstBase.
struct StorageLayout {
  /// The synthetic address of the first array, so address 0 is never used.
  static constexpr uint64_t FirstBase = 4096;

  std::vector<ArrayLayout> Arrays;
  uint64_t TotalBytes = 0; ///< the arrays' bytes summed
  uint64_t SpanBytes = 0;  ///< from FirstBase to the end of the last array

  /// The layout of \p A, or null when A has no storage.
  const ArrayLayout *find(const ir::ArraySymbol *A) const {
    for (const ArrayLayout &L : Arrays)
      if (L.Array == A)
        return &L;
    return nullptr;
  }
};

/// A fully scalarized program: the loop nests of all clusters in
/// topological order, the scalars created by contraction, and the storage
/// layout every backend allocates and addresses arrays by.
class LoopProgram {
  /// Orders arrays by creation, not by where the allocator placed them,
  /// so print() lists the contracted scalars in the same order on every
  /// allocator.
  struct ByCreation {
    bool operator()(const ir::ArraySymbol *A, const ir::ArraySymbol *B) const {
      return A->getId() < B->getId();
    }
  };

  const ir::Program *Src = nullptr;
  std::vector<std::unique_ptr<LNode>> Nodes;
  std::vector<std::unique_ptr<ir::ScalarSymbol>> OwnedScalars;
  std::vector<std::unique_ptr<ir::Region>> OwnedRegions;
  std::map<const ir::ArraySymbol *, const ir::ScalarSymbol *, ByCreation>
      ContractionMap;
  std::map<const ir::ArraySymbol *, xform::PartialPlan> PartialMap;
  analysis::FootprintInfo Footprints;
  std::map<const ir::ArraySymbol *, ir::Region> BufferBounds; ///< partial

public:
  /// Computes the source program's footprints, the storage every array
  /// starts with; addContraction and addPartialPlan then drop or shrink it.
  explicit LoopProgram(const ir::Program &SrcProg)
      : Src(&SrcProg), Footprints(analysis::FootprintInfo::compute(SrcProg)) {}

  const ir::Program &source() const { return *Src; }

  void addNode(std::unique_ptr<LNode> N) { Nodes.push_back(std::move(N)); }

  /// Inserts \p N before position \p Pos (communication insertion).
  void insertNode(size_t Pos, std::unique_ptr<LNode> N) {
    Nodes.insert(Nodes.begin() + static_cast<ptrdiff_t>(Pos), std::move(N));
  }

  const std::vector<std::unique_ptr<LNode>> &nodes() const { return Nodes; }

  /// Mutable access for post-scalarization passes (communication
  /// insertion, ablation experiments that override loop structures).
  std::vector<std::unique_ptr<LNode>> &nodesMutable() { return Nodes; }

  /// Registers \p A as contracted and returns its replacement scalar.
  const ir::ScalarSymbol *addContraction(const ir::ArraySymbol *A);

  /// Takes ownership of \p R and returns a stable pointer with the
  /// LoopProgram's lifetime. Source-program regions are interned by the
  /// Program; nests whose region is synthesized after scalarization
  /// (fault-injection hooks, ablation experiments) park theirs here.
  const ir::Region *ownRegion(ir::Region R) {
    OwnedRegions.push_back(std::make_unique<ir::Region>(std::move(R)));
    return OwnedRegions.back().get();
  }

  /// The scalar replacing \p A, or null when A was not contracted.
  const ir::ScalarSymbol *scalarFor(const ir::ArraySymbol *A) const {
    auto It = ContractionMap.find(A);
    return It == ContractionMap.end() ? nullptr : It->second;
  }

  /// True if \p S is a scalar of the source program (an in/out value),
  /// false for a contracted array's replacement scalar.
  bool isProgramScalar(const ir::ScalarSymbol *S) const {
    return S->getId() < Src->numSymbols() && Src->getSymbol(S->getId()) == S;
  }

  /// True if array \p A was contracted away.
  bool isContracted(const ir::ArraySymbol *A) const {
    return ContractionMap.count(A) != 0;
  }

  /// Registers a rolling-buffer plan for a partially contracted array
  /// (the paper's lower-dimensional contraction extension); the array's
  /// storage shrinks to the plan's buffer region.
  void addPartialPlan(xform::PartialPlan Plan) {
    BufferBounds.emplace(Plan.Array, Plan.bufferRegion());
    PartialMap.emplace(Plan.Array, std::move(Plan));
  }

  /// The rolling-buffer plan for \p A, or null when A has full storage.
  const xform::PartialPlan *partialPlanFor(const ir::ArraySymbol *A) const {
    auto It = PartialMap.find(A);
    return It == PartialMap.end() ? nullptr : &It->second;
  }

  const std::map<const ir::ArraySymbol *, xform::PartialPlan> &
  partialPlans() const {
    return PartialMap;
  }

  /// The bounds \p A is allocated and addressed with: null when A was
  /// contracted or the program never references it, the rolling-buffer
  /// region when A is partially contracted, else A's footprint (statement
  /// regions widened by reference offsets). Storage allocation, the C
  /// emitter, the performance model, the runtime engine and distsim all
  /// read this one answer, so their layouts agree by construction.
  const ir::Region *storageBounds(const ir::ArraySymbol *A) const {
    const ir::Region *Footprint = Footprints.boundsFor(A);
    if (!Footprint || isContracted(A))
      return nullptr;
    auto It = BufferBounds.find(A);
    return It == BufferBounds.end() ? Footprint : &It->second;
  }

  /// The layout of every array with storage, over its storageBounds.
  /// Arrays are line-aligned, and a per-array stagger of ((7k+3) mod 61)
  /// cache lines after the k-th array keeps equal-sized arrays off the
  /// same cache sets, as real allocators and padded commons do. Storage
  /// allocation, the C emitter, the performance model and the runtime
  /// engine all read this one value. Computed on each call (the program
  /// may be run concurrently, so nothing is cached); a size that
  /// overflows throws std::length_error.
  StorageLayout storageLayout() const;

  /// Writes C-like loop nests.
  void print(std::ostream &OS) const;

  /// Returns print() output as a string.
  std::string str() const;
};

} // namespace lir
} // namespace alf

#endif // ALF_SCALARIZE_LOOPIR_H

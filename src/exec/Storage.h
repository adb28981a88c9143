//===- exec/Storage.h - Array storage and address mapping ------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Storage for the arrays of a program during execution. Every array with
/// storage gets a flat row-major buffer laid out by
/// LoopProgram::storageLayout: over its storageBounds (the footprint, or
/// the rolling buffer of a partially contracted array), at a base address
/// in the synthetic address space the performance model charges. A
/// storage whose payloads fill at least one huge page carves them all
/// from one mapping (a Slab), each at its synthetic address, so the real
/// layout is the simulated one.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_EXEC_STORAGE_H
#define ALF_EXEC_STORAGE_H

#include "ir/Program.h"
#include "scalarize/LoopIR.h"
#include "support/Random.h"

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <type_traits>
#include <vector>

namespace alf {
namespace exec {

class Storage;
Storage allocateZeroed(lir::StorageLayout Layout);
Storage allocateStorage(const lir::LoopProgram &LP, uint64_t Seed);

/// One anonymous mapping holding every payload of a large Storage
/// (defined in Storage.cpp).
class Slab;

/// Allocator of array payloads. A default-constructed one allocates from
/// the heap. One made by allocateStorage also holds a share of the
/// storage's Slab and a slot inside it, which it hands out exactly once,
/// to the payload it was made for. Copies of a payload and growth past
/// the slot go to the heap. The allocator travels with its payload on
/// move-assignment and swap, so only the allocator that handed out a
/// slot ever releases it, and releasing the slot drops the share: the
/// mapping goes when the Storage and every payload still in it are gone.
template <typename T> class PayloadAllocator {
  std::shared_ptr<const Slab> Owner; // null when no slot is held
  T *Slot = nullptr;
  size_t SlotLen = 0;
  bool Handed = false;

public:
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  PayloadAllocator() = default;
  PayloadAllocator(std::shared_ptr<const Slab> Owner, T *Slot, size_t Len)
      : Owner(std::move(Owner)), Slot(Slot), SlotLen(Len) {}

  T *allocate(size_t N) {
    if (Owner && !Handed && N == SlotLen) {
      Handed = true;
      return Slot;
    }
    return std::allocator<T>().allocate(N);
  }

  void deallocate(T *P, size_t N) {
    if (Owner && P == Slot) {
      Owner.reset();
      Slot = nullptr;
      return;
    }
    std::allocator<T>().deallocate(P, N);
  }

  /// A copied payload (a copied RunResult) lives on the heap.
  PayloadAllocator select_on_container_copy_construction() const {
    return {};
  }

  bool operator==(const PayloadAllocator &O) const {
    return Owner == O.Owner && Slot == O.Slot;
  }
};

/// The payload of one array: in its storage's Slab or on the heap.
using Payload = std::vector<double, PayloadAllocator<double>>;

/// Row-major storage for one array: its layout and its payload.
class ArrayBuffer {
  lir::ArrayLayout Layout;
  Payload Data;
  bool Taken = false; // payload moved out by take()

  /// The layout only; allocatePayload adds the data.
  explicit ArrayBuffer(lir::ArrayLayout Layout) : Layout(std::move(Layout)) {}
  /// Allocates the zero-filled payload: at baseAddr() - FirstBase inside
  /// \p Mapping, or on the heap when it is null.
  void allocatePayload(const std::shared_ptr<const Slab> &Mapping);
  friend Storage allocateZeroed(lir::StorageLayout Layout);

public:
  /// Allocates a zero-filled heap buffer laid out row-major over
  /// \p Bounds. Throws std::length_error, as std::vector does, when the
  /// element count overflows int64_t or exceeds what a vector can hold.
  ArrayBuffer(const ir::ArraySymbol *Sym, const ir::Region &Bounds,
              uint64_t BaseAddr)
      : ArrayBuffer(lir::ArrayLayout::rowMajor(Sym, Bounds, BaseAddr)) {
    allocatePayload(nullptr);
  }

  const ir::ArraySymbol *symbol() const { return Layout.Array; }
  const ir::Region &bounds() const { return Layout.Bounds; }
  uint64_t baseAddr() const { return Layout.BaseAddr; }
  uint64_t sizeBytes() const { return Layout.Bytes; }

  double load(const std::vector<int64_t> &Idx) const {
    assert(!Taken && "read of a taken array buffer");
    return Data[Layout.linearIndex(Idx)];
  }
  void store(const std::vector<int64_t> &Idx, double V) {
    assert(!Taken && "write to a taken array buffer");
    Data[Layout.linearIndex(Idx)] = V;
  }

  const Payload &raw() const {
    assert(!Taken && "read of a taken array buffer");
    return Data;
  }

  /// Mutable base pointer of the row-major payload. The native JIT backend
  /// hands this to the compiled kernel, which reads and writes the buffer
  /// in place (the C emitter addresses the same storage layout).
  double *data() {
    assert(!Taken && "access to a taken array buffer");
    return Data.data();
  }

  /// Moves the payload out without copying it; collectResults hands
  /// live-out arrays to RunResult this way. The buffer must not be read,
  /// written or taken again (asserted in debug builds).
  Payload take() {
    assert(!Taken && "array buffer taken twice");
    Taken = true;
    return std::move(Data);
  }

  /// Fills the buffer with deterministic pseudo-random values in
  /// [-1, 1), seeded by \p Seed (callers mix in the array name so every
  /// strategy sees identical inputs).
  void fillRandom(uint64_t Seed);
};

/// All array buffers of one program plus the scalar environment.
class Storage {
  std::map<unsigned, ArrayBuffer> Buffers;       // by symbol id
  std::map<unsigned, double> Scalars;            // by symbol id
  uint64_t TotalBytes = 0;

  friend Storage allocateZeroed(lir::StorageLayout Layout);

public:
  ArrayBuffer *buffer(const ir::ArraySymbol *A) {
    auto It = Buffers.find(A->getId());
    return It == Buffers.end() ? nullptr : &It->second;
  }
  const ArrayBuffer *buffer(const ir::ArraySymbol *A) const {
    auto It = Buffers.find(A->getId());
    return It == Buffers.end() ? nullptr : &It->second;
  }

  /// Adds \p Buf as the buffer of its array, which must have none yet
  /// (the distributed simulator builds each processor's storage so).
  ArrayBuffer &addBuffer(ArrayBuffer Buf) {
    TotalBytes += Buf.sizeBytes();
    auto [It, Added] = Buffers.emplace(Buf.symbol()->getId(), std::move(Buf));
    assert(Added && "array already has a buffer");
    (void)Added;
    return It->second;
  }

  double getScalar(const ir::ScalarSymbol *S) const {
    auto It = Scalars.find(S->getId());
    return It == Scalars.end() ? 0.0 : It->second;
  }
  void setScalar(const ir::ScalarSymbol *S, double V) {
    Scalars[S->getId()] = V;
  }

  /// Sets a scalar by raw symbol id (the parallel executor merges
  /// thread-private overlay entries back by id).
  void setScalarById(unsigned Id, double V) { Scalars[Id] = V; }

  /// Total bytes of array storage allocated; unchanged when
  /// collectResults later takes the live-out buffers.
  uint64_t totalBytes() const { return TotalBytes; }
};

/// Allocates zero-filled storage over \p Layout, with no scalars set:
/// one buffer per array, at its synthetic address. When the layout spans
/// at least one 2 MiB huge page the payloads share one Slab, each at
/// baseAddr() - FirstBase inside it (counted by
/// `exec.storage.slab_bytes`); smaller storages use the heap. A failed
/// mapping throws std::bad_alloc. The runtime engine's flush fills this
/// from its handles instead of seeding it.
Storage allocateZeroed(lir::StorageLayout Layout);

/// Allocates and seeds storage for \p LP exactly as every executor must:
/// allocateZeroed over LP.storageLayout() (contracted and unreferenced
/// arrays get no buffer, partially contracted arrays their rolling
/// buffer), then live-in arrays and program scalars are seeded from
/// \p Seed by name; everything else stays zero. A layout whose bytes
/// overflow throws std::length_error.
Storage allocateStorage(const lir::LoopProgram &LP, uint64_t Seed);

/// Adds \p Bytes to the always-on `exec.storage.bytes_copied` counter:
/// bytes copied between an ArrayBuffer and a RunResult or a runtime
/// handle. The run(Seed) paths move live-outs and count nothing; the
/// runtime engine's flush still copies its slots in and out.
void countCopiedBytes(uint64_t Bytes);

/// Deterministic 64-bit hash of a string (FNV-1a); used to derive
/// per-array initialization seeds that are stable across strategies.
uint64_t hashName(const std::string &Name);

} // namespace exec
} // namespace alf

#endif // ALF_EXEC_STORAGE_H

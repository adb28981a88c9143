//===- exec/Storage.h - Array storage and address mapping ------*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Storage for the arrays of a program during interpretation and
/// performance simulation. Every array with storage gets a flat row-major
/// buffer over its LoopProgram::storageBounds (the footprint, or the
/// rolling buffer of a partially contracted array) plus a base address
/// in a synthetic address space, so the cache simulator sees realistic
/// conflict and capacity behaviour.
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
#include <vector>

namespace alf {
namespace exec {

class Storage;
Storage allocateStorage(const lir::LoopProgram &LP, uint64_t Seed);

/// Row-major storage for one array.
class ArrayBuffer {
  const ir::ArraySymbol *Sym = nullptr;
  ir::Region Bounds;
  std::vector<int64_t> Strides; // row-major element strides
  std::vector<double> Data;
  uint64_t BaseAddr = 0;
  bool Taken = false; // payload moved out by take()

  /// Bounds and strides only; allocatePayload adds the data.
  ArrayBuffer(const ir::ArraySymbol *Sym, const ir::Region &Bounds);
  void allocatePayload(uint64_t Base);
  friend Storage allocateStorage(const lir::LoopProgram &LP, uint64_t Seed);

public:
  ArrayBuffer() = default;
  /// Allocates a zero-filled buffer over \p Bounds. Throws
  /// std::length_error, as std::vector does, when the element count
  /// overflows int64_t or exceeds what a vector can hold.
  ArrayBuffer(const ir::ArraySymbol *Sym, const ir::Region &Bounds,
              uint64_t BaseAddr)
      : ArrayBuffer(Sym, Bounds) {
    allocatePayload(BaseAddr);
  }

  const ir::ArraySymbol *symbol() const { return Sym; }
  const ir::Region &bounds() const { return Bounds; }
  uint64_t baseAddr() const { return BaseAddr; }
  uint64_t sizeBytes() const { return Data.size() * Sym->getElemSize(); }

  /// Linear element index of the point \p Idx (absolute coordinates).
  int64_t linearIndex(const std::vector<int64_t> &Idx) const;

  /// Synthetic byte address of the element at \p Idx.
  uint64_t addrOf(const std::vector<int64_t> &Idx) const {
    return BaseAddr +
           static_cast<uint64_t>(linearIndex(Idx)) * Sym->getElemSize();
  }

  double load(const std::vector<int64_t> &Idx) const {
    assert(!Taken && "read of a taken array buffer");
    return Data[linearIndex(Idx)];
  }
  void store(const std::vector<int64_t> &Idx, double V) {
    assert(!Taken && "write to a taken array buffer");
    Data[linearIndex(Idx)] = V;
  }

  const std::vector<double> &raw() const {
    assert(!Taken && "read of a taken array buffer");
    return Data;
  }

  /// Mutable base pointer of the row-major payload. The native JIT backend
  /// hands this to the compiled kernel, which reads and writes the buffer
  /// in place (the C emitter addresses the same storageBounds row-major).
  double *data() {
    assert(!Taken && "access to a taken array buffer");
    return Data.data();
  }

  /// Moves the payload out without copying it; collectResults hands
  /// live-out arrays to RunResult this way. The buffer must not be read,
  /// written or taken again (asserted in debug builds).
  std::vector<double> take() {
    assert(!Taken && "array buffer taken twice");
    Taken = true;
    return std::move(Data);
  }

  /// Fills the buffer with deterministic pseudo-random values in
  /// [-1, 1), seeded by \p Seed (callers mix in the array name so every
  /// strategy sees identical inputs).
  void fillRandom(uint64_t Seed);

  /// Zero-fills the buffer.
  void fillZero();
};

/// All array buffers of one program plus the scalar environment.
class Storage {
  std::map<unsigned, ArrayBuffer> Buffers;       // by symbol id
  std::map<unsigned, double> Scalars;            // by symbol id
  uint64_t TotalBytes = 0;

  friend Storage allocateStorage(const lir::LoopProgram &LP, uint64_t Seed);

public:
  ArrayBuffer *buffer(const ir::ArraySymbol *A) {
    auto It = Buffers.find(A->getId());
    return It == Buffers.end() ? nullptr : &It->second;
  }
  const ArrayBuffer *buffer(const ir::ArraySymbol *A) const {
    auto It = Buffers.find(A->getId());
    return It == Buffers.end() ? nullptr : &It->second;
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

/// Allocates and seeds storage for \p LP exactly as every executor must:
/// each array gets a buffer over its storageBounds (contracted and
/// unreferenced arrays get none, partially contracted arrays their
/// rolling buffer), live-in arrays and program scalars are seeded from
/// \p Seed by name, everything else is zero (the buffer constructor's
/// fill; nothing is zeroed twice).
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

//===- exec/Storage.cpp - Array storage and address mapping ----------------===//

#include "exec/Storage.h"

#include "obs/Obs.h"

#include <stdexcept>

using namespace alf;
using namespace alf::exec;
using namespace alf::ir;

ALF_COUNTER(NumBytesCopied, "exec.storage.bytes_copied",
            "Bytes copied between array storage and results or handles");

void exec::countCopiedBytes(uint64_t Bytes) { NumBytesCopied += Bytes; }

/// Element count of \p Bounds. A wrapped product would allocate a short
/// buffer that every kernel then writes past, so overflow throws the
/// std::length_error an oversized vector would.
static size_t checkedElementCount(const Region &Bounds) {
  int64_t N = 1;
  for (unsigned D = 0; D < Bounds.rank(); ++D) {
    int64_t Extent;
    if (__builtin_sub_overflow(Bounds.hi(D), Bounds.lo(D), &Extent) ||
        __builtin_add_overflow(Extent, 1, &Extent) ||
        __builtin_mul_overflow(N, Extent, &N))
      throw std::length_error("array element count overflows int64_t");
  }
  return static_cast<size_t>(N);
}

ArrayBuffer::ArrayBuffer(const ArraySymbol *Sym, const Region &Bounds)
    : Sym(Sym), Bounds(Bounds) {
  checkedElementCount(Bounds); // throws before a stride product overflows
  unsigned Rank = Bounds.rank();
  Strides.assign(Rank, 1);
  for (int D = static_cast<int>(Rank) - 2; D >= 0; --D)
    Strides[D] = Strides[D + 1] * Bounds.extent(D + 1);
}

void ArrayBuffer::allocatePayload(uint64_t Base) {
  BaseAddr = Base;
  Data.assign(checkedElementCount(Bounds), 0.0);
}

int64_t ArrayBuffer::linearIndex(const std::vector<int64_t> &Idx) const {
  assert(Idx.size() == Bounds.rank() && "index rank mismatch");
  int64_t Linear = 0;
  for (unsigned D = 0; D < Bounds.rank(); ++D) {
    assert(Idx[D] >= Bounds.lo(D) && Idx[D] <= Bounds.hi(D) &&
           "index outside allocated bounds");
    Linear += (Idx[D] - Bounds.lo(D)) * Strides[D];
  }
  return Linear;
}

void ArrayBuffer::fillRandom(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  for (double &V : Data)
    V = Rng.nextDouble(-1.0, 1.0);
}

void ArrayBuffer::fillZero() {
  for (double &V : Data)
    V = 0.0;
}

uint64_t exec::hashName(const std::string &Name) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : Name) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ULL;
  }
  return H;
}

Storage exec::allocateStorage(const lir::LoopProgram &LP, uint64_t Seed) {
  const Program &P = LP.source();
  Storage S;
  // Scalars named by the program (parameters) get deterministic values in
  // [0.5, 1.5) so divisions stay well conditioned.
  for (const Symbol *Sym : P.symbols()) {
    if (const auto *Sc = dyn_cast<ScalarSymbol>(Sym)) {
      SplitMix64 Rng(Seed ^ hashName(Sc->getName()));
      S.Scalars[Sc->getId()] = 0.5 + Rng.nextDouble();
    }
  }
  // Every small allocation comes before the first payload, so the
  // payloads sit next to each other and the heap can hand them back to
  // the system together once the storage dies; a small block left
  // between two payloads would pin the freed memory around it.
  for (const ArraySymbol *A : P.arrays())
    if (const Region *Bounds = LP.storageBounds(A))
      S.Buffers.emplace(A->getId(), ArrayBuffer(A, *Bounds));
  // Lay arrays out back to back, line-aligned, starting at a nonzero base
  // so address 0 is never used. A per-array stagger (a varying odd number
  // of cache lines) breaks the pathological case where equal-sized arrays
  // all map to the same cache sets — real allocators and padded commons
  // stagger the same way.
  uint64_t NextBase = 4096;
  unsigned Placed = 0;
  for (const ArraySymbol *A : P.arrays()) {
    ArrayBuffer *Buf = S.buffer(A);
    if (!Buf)
      continue;
    Buf->allocatePayload(NextBase);
    NextBase += (Buf->sizeBytes() + 63) / 64 * 64;
    NextBase += ((Placed * 7 + 3) % 61) * 64;
    ++Placed;
    if (A->isLiveIn())
      Buf->fillRandom(Seed ^ hashName(A->getName()));
    S.TotalBytes += Buf->sizeBytes();
  }
  return S;
}

//===- exec/Storage.cpp - Array storage and address mapping ----------------===//

#include "exec/Storage.h"

#include "obs/Obs.h"

#include <new>
#include <stdexcept>

#include <sys/mman.h>
#include <unistd.h>

using namespace alf;
using namespace alf::exec;
using namespace alf::ir;

ALF_COUNTER(NumBytesCopied, "exec.storage.bytes_copied",
            "Bytes copied between array storage and results or handles");

ALF_COUNTER(NumSlabBytes, "exec.storage.slab_bytes",
            "Bytes mapped as storage slabs");

void exec::countCopiedBytes(uint64_t Bytes) { NumBytesCopied += Bytes; }

/// The x86-64 transparent huge page size: storages smaller than one stay
/// on the heap, and a slab starts on one.
static constexpr uint64_t HugePageBytes = uint64_t(2) << 20;

/// The synthetic address of the first payload; payload k lies at
/// baseAddr() - FirstBase inside its slab.
static constexpr uint64_t FirstBase = 4096;

/// \p A + \p B, or std::length_error when the byte arithmetic wraps.
static uint64_t checkedAdd(uint64_t A, uint64_t B) {
  uint64_t Sum;
  if (__builtin_add_overflow(A, B, &Sum))
    throw std::length_error("array storage bytes overflow uint64_t");
  return Sum;
}

namespace alf {
namespace exec {

/// An anonymous private mapping aligned to a huge page and advised
/// MADV_HUGEPAGE, so first touch faults 2 MiB at a time instead of 4 KiB.
/// Its length is rounded to a base page only: a tail shorter than a huge
/// page keeps small pages, so it adds no resident memory the payloads do
/// not touch. Unmapped when the last share goes.
class Slab {
  char *Base = nullptr;
  size_t Len = 0;

public:
  /// Maps at least \p Bytes; throws std::bad_alloc when the kernel
  /// refuses.
  explicit Slab(uint64_t Bytes) {
    const uint64_t Page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
    Len = checkedAdd(Bytes, Page - 1) / Page * Page;
    // Over-map by one huge page, then trim both ends to the aligned run.
    void *Raw = ::mmap(nullptr, checkedAdd(Len, HugePageBytes),
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1,
                       0);
    if (Raw == MAP_FAILED)
      throw std::bad_alloc();
    char *Lo = static_cast<char *>(Raw);
    uintptr_t Misalign = reinterpret_cast<uintptr_t>(Lo) % HugePageBytes;
    size_t Head = Misalign ? HugePageBytes - Misalign : 0;
    Base = Lo + Head;
    if (Head)
      ::munmap(Lo, Head);
    ::munmap(Base + Len, HugePageBytes - Head);
    // Advice only: without THP the slab still works with small pages.
    ::madvise(Base, Len, MADV_HUGEPAGE);
    NumSlabBytes += Len;
  }
  ~Slab() { ::munmap(Base, Len); }
  Slab(const Slab &) = delete;
  Slab &operator=(const Slab &) = delete;

  /// The payload slot at byte \p Offset.
  double *slot(uint64_t Offset) const {
    return reinterpret_cast<double *>(Base + Offset);
  }
};

} // namespace exec
} // namespace alf

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

void ArrayBuffer::allocatePayload(const std::shared_ptr<const Slab> &Mapping) {
  size_t N = checkedElementCount(Bounds);
  PayloadAllocator<double> Alloc;
  if (Mapping)
    Alloc = {Mapping, Mapping->slot(BaseAddr - FirstBase), N};
  Data = Payload(N, 0.0, std::move(Alloc));
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
  // Lay arrays out back to back, line-aligned, starting at a nonzero base
  // so address 0 is never used. A per-array stagger (a varying odd number
  // of cache lines) breaks the pathological case where equal-sized arrays
  // all map to the same cache sets — real allocators and padded commons
  // stagger the same way. The same walk sizes the slab that holds the
  // layout for real. Every small allocation (the buffers' bounds, strides
  // and map nodes) comes before the first payload, so heap payloads sit
  // next to each other and the heap can hand them back to the system
  // together once the storage dies; a small block left between two
  // payloads would pin the freed memory around it.
  uint64_t NextBase = FirstBase;
  uint64_t SlabBytes = 0;
  unsigned Placed = 0;
  for (const ArraySymbol *A : P.arrays()) {
    const Region *Bounds = LP.storageBounds(A);
    if (!Bounds)
      continue;
    assert(A->getElemSize() == sizeof(double) && "payloads are doubles");
    ArrayBuffer &Buf =
        S.Buffers.emplace(A->getId(), ArrayBuffer(A, *Bounds)).first->second;
    uint64_t Bytes;
    if (__builtin_mul_overflow(uint64_t(checkedElementCount(*Bounds)),
                               uint64_t(A->getElemSize()), &Bytes))
      throw std::length_error("array storage bytes overflow uint64_t");
    Buf.BaseAddr = NextBase;
    SlabBytes = checkedAdd(NextBase - FirstBase, Bytes);
    S.TotalBytes = checkedAdd(S.TotalBytes, Bytes);
    NextBase = checkedAdd(NextBase, checkedAdd(Bytes, 63) / 64 * 64);
    NextBase = checkedAdd(NextBase, ((Placed * 7 + 3) % 61) * 64);
    ++Placed;
  }
  std::shared_ptr<const Slab> Mapping;
  if (SlabBytes >= HugePageBytes)
    Mapping = std::make_shared<const Slab>(SlabBytes);
  for (auto &[Id, Buf] : S.Buffers) {
    Buf.allocatePayload(Mapping);
    if (Buf.Sym->isLiveIn())
      Buf.fillRandom(Seed ^ hashName(Buf.Sym->getName()));
  }
  return S;
}

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

void ArrayBuffer::allocatePayload(const std::shared_ptr<const Slab> &Mapping) {
  size_t N = static_cast<size_t>(Layout.elements());
  PayloadAllocator<double> Alloc;
  if (Mapping)
    Alloc = {Mapping,
             Mapping->slot(Layout.BaseAddr - lir::StorageLayout::FirstBase),
             N};
  Data = Payload(N, 0.0, std::move(Alloc));
}

void ArrayBuffer::fillRandom(uint64_t Seed) {
  SplitMix64 Rng(Seed);
  for (double &V : Data)
    V = Rng.nextDouble(-1.0, 1.0);
}

uint64_t exec::hashName(const std::string &Name) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char C : Name) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ULL;
  }
  return H;
}

Storage exec::allocateZeroed(lir::StorageLayout Layout) {
  Storage S;
  S.TotalBytes = Layout.TotalBytes;
  // Every small allocation (the buffers' bounds, strides and map nodes)
  // comes before the first payload, so heap payloads sit next to each
  // other and the heap can hand them back to the system together once
  // the storage dies; a small block left between two payloads would pin
  // the freed memory around it.
  for (lir::ArrayLayout &L : Layout.Arrays) {
    assert(L.Array->getElemSize() == sizeof(double) && "payloads are doubles");
    unsigned Id = L.Array->getId();
    S.Buffers.emplace(Id, ArrayBuffer(std::move(L)));
  }
  std::shared_ptr<const Slab> Mapping;
  if (Layout.SpanBytes >= HugePageBytes)
    Mapping = std::make_shared<const Slab>(Layout.SpanBytes);
  for (auto &[Id, Buf] : S.Buffers)
    Buf.allocatePayload(Mapping);
  return S;
}

Storage exec::allocateStorage(const lir::LoopProgram &LP, uint64_t Seed) {
  Storage S = allocateZeroed(LP.storageLayout());
  // Scalars named by the program (parameters) get deterministic values in
  // [0.5, 1.5) so divisions stay well conditioned.
  for (const Symbol *Sym : LP.source().symbols()) {
    if (const auto *Sc = dyn_cast<ScalarSymbol>(Sym)) {
      SplitMix64 Rng(Seed ^ hashName(Sc->getName()));
      S.setScalar(Sc, 0.5 + Rng.nextDouble());
    }
  }
  for (const ArraySymbol *A : LP.source().arrays())
    if (ArrayBuffer *Buf = S.buffer(A); Buf && A->isLiveIn())
      Buf->fillRandom(Seed ^ hashName(A->getName()));
  return S;
}

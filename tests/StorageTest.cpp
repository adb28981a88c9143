//===- tests/StorageTest.cpp - Storage and generator unit tests --------------===//

#include "exec/Storage.h"

#include "analysis/ASDG.h"
#include "benchprogs/Benchmarks.h"
#include "exec/Eval.h"
#include "ir/Generator.h"
#include "ir/Normalize.h"
#include "ir/Verifier.h"
#include "obs/Obs.h"
#include "scalarize/Scalarize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

using namespace alf;
using namespace alf::exec;
using namespace alf::ir;

namespace {

TEST(ArrayBufferTest, RowMajorIndexing) {
  Program P("t");
  ArraySymbol *A = P.makeArray("A", 2);
  lir::ArrayLayout L = lir::ArrayLayout::rowMajor(A, Region({0, 1}, {3, 8}),
                                                  4096);
  // 4 x 8 elements; strides (8, 1).
  EXPECT_EQ(L.Strides, (std::vector<int64_t>{8, 1}));
  EXPECT_EQ(L.linearIndex({0, 1}), 0);
  EXPECT_EQ(L.linearIndex({0, 8}), 7);
  EXPECT_EQ(L.linearIndex({1, 1}), 8);
  EXPECT_EQ(L.linearIndex({3, 8}), 31);
  EXPECT_EQ(L.Bytes, 32u * 8u);
  EXPECT_EQ(L.addrOf({0, 1}), 4096u);
  EXPECT_EQ(L.addrOf({1, 1}), 4096u + 64u);
  ArrayBuffer Buf(A, Region({0, 1}, {3, 8}), 4096);
  EXPECT_EQ(Buf.sizeBytes(), 32u * 8u);
  EXPECT_EQ(Buf.baseAddr(), 4096u);
}

TEST(ArrayBufferTest, LoadStoreRoundTrip) {
  Program P("t");
  ArraySymbol *A = P.makeArray("A", 1);
  ArrayBuffer Buf(A, Region({1}, {10}), 0);
  Buf.store({3}, 2.5);
  EXPECT_DOUBLE_EQ(Buf.load({3}), 2.5);
  EXPECT_DOUBLE_EQ(Buf.load({4}), 0.0);
}

TEST(ArrayBufferTest, FillRandomDeterministic) {
  Program P("t");
  ArraySymbol *A = P.makeArray("A", 1);
  ArrayBuffer B1(A, Region({1}, {64}), 0);
  ArrayBuffer B2(A, Region({1}, {64}), 0);
  B1.fillRandom(5);
  B2.fillRandom(5);
  for (int64_t I = 1; I <= 64; ++I)
    EXPECT_EQ(B1.load({I}), B2.load({I}));
  B2.fillRandom(6);
  bool AnyDiff = false;
  for (int64_t I = 1; I <= 64; ++I)
    AnyDiff |= B1.load({I}) != B2.load({I});
  EXPECT_TRUE(AnyDiff);
}

TEST(ArrayBufferTest, TakeMovesThePayloadOut) {
  Program P("t");
  ArraySymbol *A = P.makeArray("A", 1);
  ArrayBuffer Buf(A, Region({1}, {10}), 0);
  Buf.fillRandom(5);
  Payload Expected = Buf.raw();
  EXPECT_EQ(Buf.take(), Expected);
  // Without assertions a load from the emptied payload is undefined
  // behaviour (the sanitizer build aborts on it), so only debug builds
  // run it.
#ifndef NDEBUG
  EXPECT_DEATH(Buf.load({1}), "taken array buffer");
#endif
  EXPECT_DEBUG_DEATH(Buf.take(), "taken twice");
}

TEST(ArrayBufferTest, OverflowingElementCountThrows) {
  // 2^32 x 2^32 wraps int64_t to 0; a wrapped count must never size a
  // buffer.
  Program P("t");
  ArraySymbol *A = P.makeArray("A", 2);
  const int64_t Big = int64_t(1) << 32;
  EXPECT_THROW(ArrayBuffer(A, Region({1, 1}, {Big, Big}), 0),
               std::length_error);
  ArraySymbol *B = P.makeArray("B", 1);
  EXPECT_THROW(ArrayBuffer(B, Region({INT64_MIN}, {INT64_MAX}), 0),
               std::length_error);
}

TEST(StorageTest, AllocatesByFilterAndSeedsLiveIn) {
  Program P("t");
  const Region *R = P.regionFromExtents({8});
  ArraySymbol *A = P.makeArray("A", 1);       // live-in
  ArraySymbol *T = P.makeUserTemp("T", 1);    // zero-initialized
  ScalarSymbol *S = P.makeScalar("alpha");
  P.assign(R, T, add(aref(A), sref(S)));

  lir::LoopProgram LP(P);
  Storage St = allocateStorage(LP, 11);
  ASSERT_NE(St.buffer(A), nullptr);
  ASSERT_NE(St.buffer(T), nullptr);
  // Live-in array seeded, temp zeroed.
  bool AnyNonZero = false;
  for (double V : St.buffer(A)->raw())
    AnyNonZero |= V != 0.0;
  EXPECT_TRUE(AnyNonZero);
  for (double V : St.buffer(T)->raw())
    EXPECT_EQ(V, 0.0);
  // Scalars in [0.5, 1.5).
  double Alpha = St.getScalar(S);
  EXPECT_GE(Alpha, 0.5);
  EXPECT_LT(Alpha, 1.5);

  // Contracted arrays get no storage at all.
  lir::LoopProgram Contracted(P);
  Contracted.addContraction(A);
  Contracted.addContraction(T);
  Storage None = allocateStorage(Contracted, 11);
  EXPECT_EQ(None.buffer(A), nullptr);
  EXPECT_EQ(None.buffer(T), nullptr);
  EXPECT_EQ(None.totalBytes(), 0u);
}

TEST(StorageTest, SeedsAreNameKeyed) {
  // The same array name gets the same contents regardless of the rest of
  // the program — the property that makes cross-strategy runs comparable.
  Program P1("p1"), P2("p2");
  const Region *R1 = P1.regionFromExtents({16});
  const Region *R2 = P2.regionFromExtents({16});
  ArraySymbol *A1 = P1.makeArray("A", 1);
  ArraySymbol *Z = P2.makeArray("Z", 1); // extra symbol shifts ids
  (void)Z;
  ArraySymbol *A2 = P2.makeArray("A", 1);
  ArraySymbol *B1 = P1.makeArray("B1", 1);
  ArraySymbol *B2 = P2.makeArray("B2", 1);
  P1.assign(R1, B1, aref(A1));
  P2.assign(R2, B2, aref(A2));
  lir::LoopProgram LP1(P1), LP2(P2);
  Storage S1 = allocateStorage(LP1, 99);
  Storage S2 = allocateStorage(LP2, 99);
  EXPECT_EQ(S1.buffer(A1)->raw(), S2.buffer(A2)->raw());
}

TEST(StorageTest, BoundsOverride) {
  // A partially contracted array is allocated over its plan's rolling
  // buffer instead of its footprint.
  Program P("t");
  const Region *R = P.regionFromExtents({8, 8});
  ArraySymbol *A = P.makeArray("A", 2);
  ArraySymbol *B = P.makeArray("B", 2);
  P.assign(R, B, aref(A));
  lir::LoopProgram LP(P);
  xform::PartialPlan Plan;
  Plan.Array = A;
  Plan.OrigLo = {1, 1};
  Plan.FullExtents = {8, 8};
  Plan.BufferExtents = {2, 8}; // 2 x 8 rolling buffer
  LP.addPartialPlan(Plan);
  Storage St = allocateStorage(LP, 1);
  EXPECT_EQ(St.buffer(A)->bounds(), Region({0, 1}, {1, 8}));
  EXPECT_EQ(St.buffer(A)->sizeBytes(), 2u * 8u * 8u);
  EXPECT_EQ(St.buffer(B)->sizeBytes(), 64u * 8u);
}

TEST(StorageTest, WrappingByteTotalThrowsLengthError) {
  // Each 2^59-element array fits int64_t and vector::max_size, but four
  // 2^62-byte payloads sum to 2^64 bytes: the byte total must not wrap
  // into a small slab that the payloads then overrun.
  Program P("t");
  const Region *R = P.regionFromExtents({int64_t(1) << 29, int64_t(1) << 30});
  ArraySymbol *A = P.makeArray("a", 2);
  ArraySymbol *B = P.makeArray("b", 2);
  ArraySymbol *C = P.makeArray("c", 2);
  ArraySymbol *D = P.makeArray("d", 2);
  P.assign(R, D, add(add(aref(A), aref(B)), aref(C)));
  lir::LoopProgram LP(P);
  EXPECT_THROW(allocateStorage(LP, 1), std::length_error);
}

/// A benchmark compiled at c2+f3 or \p Strat; the program outlives its
/// loop program.
struct Compiled {
  std::unique_ptr<Program> P;
  lir::LoopProgram LP;
  Compiled(std::unique_ptr<Program> Prog,
           xform::Strategy Strat = xform::Strategy::C2F3)
      : P(std::move(Prog)), LP(scalarize(*P, Strat)) {}
  static lir::LoopProgram scalarize(Program &P, xform::Strategy Strat) {
    normalizeProgram(P);
    analysis::ASDG G = analysis::ASDG::build(P);
    return scalarize::scalarize(G, xform::applyStrategy(G, Strat));
  }
};

/// Fibro as the kernels benchmark runs it: 54 MiB of storage.
Compiled fibro() { return Compiled(benchprogs::buildFibro(512)); }

uint64_t slabBytes() { return obs::counterValue("exec.storage.slab_bytes"); }

constexpr uint64_t HugePage = uint64_t(2) << 20;

/// The buffers of \p S in synthetic-address order.
std::vector<ArrayBuffer *> buffersOf(const lir::LoopProgram &LP, Storage &S) {
  std::vector<ArrayBuffer *> Bufs;
  for (const ArraySymbol *A : LP.source().arrays())
    if (ArrayBuffer *Buf = S.buffer(A))
      Bufs.push_back(Buf);
  std::sort(Bufs.begin(), Bufs.end(), [](auto *X, auto *Y) {
    return X->baseAddr() < Y->baseAddr();
  });
  return Bufs;
}

uintptr_t addressOf(ArrayBuffer *Buf) {
  return reinterpret_cast<uintptr_t>(Buf->data());
}

TEST(SlabTest, LargeStorageIsOneStaggeredMapping) {
  Compiled F = fibro();
  uint64_t Before = slabBytes();
  Storage S = allocateStorage(F.LP, 1);
  std::vector<ArrayBuffer *> Bufs = buffersOf(F.LP, S);
  ASSERT_GE(Bufs.size(), 2u);
  const ArrayBuffer *Last = Bufs.back();
  uint64_t Span = Last->baseAddr() - 4096 + Last->sizeBytes();
  ASSERT_GE(Span, HugePage);
  // One mapping, of the layout's span rounded to a page.
  EXPECT_EQ(slabBytes() - Before, (Span + 4095) / 4096 * 4096);

  // Payload k lies at baseAddr() - 4096 inside a huge-page-aligned slab.
  uintptr_t Base = addressOf(Bufs.front()) - (Bufs.front()->baseAddr() - 4096);
  EXPECT_EQ(Base % HugePage, 0u);
  for (ArrayBuffer *Buf : Bufs) {
    EXPECT_EQ(addressOf(Buf) - Base, Buf->baseAddr() - 4096)
        << Buf->symbol()->getName();
    EXPECT_EQ(addressOf(Buf) % 64, 0u) << Buf->symbol()->getName();
  }
  // The stagger keeps consecutive payloads off the same 4 KiB offset,
  // which would make their streams alias in the load/store unit. Payload
  // k is followed by (7k+3) mod 61 lines of stagger, which is 0 for
  // k = 17: fibro's 18th and 19th payloads (whole 4 KiB pages each)
  // share an offset in the simulated layout, and so in the real one.
  for (size_t I = 1; I < Bufs.size(); ++I) {
    if (((I - 1) * 7 + 3) % 61 == 0)
      continue;
    EXPECT_NE(addressOf(Bufs[I]) % 4096, addressOf(Bufs[I - 1]) % 4096)
        << Bufs[I - 1]->symbol()->getName() << " and "
        << Bufs[I]->symbol()->getName();
  }
}

TEST(SlabTest, SmallStorageMapsNothing) {
  Compiled F(benchprogs::buildFibro(64));
  uint64_t Before = slabBytes();
  Storage S = allocateStorage(F.LP, 1);
  ASSERT_GT(S.totalBytes(), 0u);
  ASSERT_LT(S.totalBytes(), HugePage);
  EXPECT_EQ(slabBytes(), Before);
}

/// Heap copies of every live-out payload of \p R.
std::map<std::string, std::vector<double>> heapCopy(const RunResult &R) {
  std::map<std::string, std::vector<double>> Copy;
  for (const auto &[Name, Data] : R.LiveOut)
    Copy[Name].assign(Data.begin(), Data.end());
  return Copy;
}

void expectValues(const RunResult &R,
                  const std::map<std::string, std::vector<double>> &Want) {
  ASSERT_EQ(R.LiveOut.size(), Want.size());
  for (const auto &[Name, Data] : R.LiveOut)
    EXPECT_TRUE(std::equal(Data.begin(), Data.end(), Want.at(Name).begin(),
                           Want.at(Name).end()))
        << Name;
}

TEST(SlabTest, TakenLiveOutOutlivesItsStorage) {
  Compiled F = fibro();
  RunResult R;
  std::map<std::string, std::vector<double>> Want;
  {
    Storage S = allocateStorage(F.LP, 7);
    R = collectResults(F.LP, S);
    Want = heapCopy(R);
  }
  ASSERT_FALSE(R.LiveOut.empty());
  for (const auto &[Name, Data] : R.LiveOut)
    EXPECT_NE(Data.get_allocator(), PayloadAllocator<double>())
        << Name << " was not taken from the slab";
  // Reading every value after the Storage is gone: an early unmap faults
  // here.
  expectValues(R, Want);
}

TEST(SlabTest, CopiedRunResultIsHeapBackedAndOutlivesTheOriginal) {
  Compiled F = fibro();
  std::optional<Storage> S = allocateStorage(F.LP, 3);
  std::optional<RunResult> Original = collectResults(F.LP, *S);
  std::map<std::string, std::vector<double>> Want = heapCopy(*Original);
  RunResult Copy = *Original;
  for (const auto &[Name, Data] : Copy.LiveOut)
    EXPECT_EQ(Data.get_allocator(), PayloadAllocator<double>()) << Name;
  S.reset();
  Original.reset(); // the last share of the slab goes here
  expectValues(Copy, Want);
}

TEST(SlabTest, GrowingASlabLiveOutMovesItToTheHeap) {
  Compiled F = fibro();
  Storage S = allocateStorage(F.LP, 5);
  RunResult R = collectResults(F.LP, S);
  ASSERT_FALSE(R.LiveOut.empty());
  Payload &Data = R.LiveOut.begin()->second;
  std::vector<double> Want(Data.begin(), Data.end());
  ASSERT_NE(Data.get_allocator(), PayloadAllocator<double>());
  const double *InSlab = Data.data();
  Data.push_back(42.0); // past capacity: the slot cannot grow
  EXPECT_NE(Data.data(), InSlab);
  EXPECT_EQ(Data.get_allocator(), PayloadAllocator<double>());
  Want.push_back(42.0);
  EXPECT_TRUE(std::equal(Data.begin(), Data.end(), Want.begin(), Want.end()));
}

uint64_t touchChunks() {
  return obs::counterValue("exec.storage.touch_chunks");
}

/// Huge pages the slab of \p LP's storage spans.
uint64_t slabPages(const lir::LoopProgram &LP) {
  return (LP.storageLayout().SpanBytes + HugePage - 1) / HugePage;
}

/// Payloads of \p S that start inside a huge page rather than on one.
struct MidPageCounts {
  unsigned LiveIn = 0, Zero = 0;
};

/// Checks every payload of \p S element by element: a live-in one holds
/// the serial SplitMix64 stream of its name's seed, any other is zero.
/// Returns how many of each start in the middle of a huge page.
MidPageCounts expectSerialSeeding(const lir::LoopProgram &LP, Storage &S,
                                  uint64_t Seed) {
  MidPageCounts Mid;
  for (ArrayBuffer *Buf : buffersOf(LP, S)) {
    const ArraySymbol *A = Buf->symbol();
    bool MidPage = (Buf->baseAddr() - 4096) % HugePage != 0;
    size_t Mismatches = 0;
    if (A->isLiveIn()) {
      SplitMix64 Rng(Seed ^ hashName(A->getName()));
      for (double V : Buf->raw())
        Mismatches += V != Rng.nextDouble(-1.0, 1.0);
      Mid.LiveIn += MidPage;
    } else {
      for (double V : Buf->raw())
        Mismatches += V != 0.0;
      Mid.Zero += MidPage;
    }
    EXPECT_EQ(Mismatches, 0u) << A->getName() << " of "
                              << Buf->raw().size() << " elements";
  }
  return Mid;
}

TEST(StorageTest, SlabFirstTouchMatchesTheSerialStream) {
  // At c2+f3 every fibro temporary is contracted, so every payload is
  // seeded; the baseline strategy keeps the temporaries, whose payloads
  // stay zero.
  unsigned LiveInMidPage = 0, ZeroMidPage = 0;
  for (xform::Strategy Strat :
       {xform::Strategy::C2F3, xform::Strategy::Baseline}) {
    Compiled F(benchprogs::buildFibro(512), Strat);
    uint64_t Before = touchChunks();
    Storage S = allocateStorage(F.LP, 3);
    // One first-touch chunk per huge page of the span.
    EXPECT_EQ(touchChunks() - Before, slabPages(F.LP));
    MidPageCounts Mid = expectSerialSeeding(F.LP, S, 3);
    LiveInMidPage += Mid.LiveIn;
    ZeroMidPage += Mid.Zero;
  }
  // Chunks split payloads at page boundaries, seeded ones and zero ones.
  EXPECT_GT(LiveInMidPage, 0u);
  EXPECT_GT(ZeroMidPage, 0u);
}

TEST(StorageTest, ConcurrentAllocationsMatchTheSerialStream) {
  // Four threads allocate at once: one first touch gets the pool, the
  // others run their chunks on their own threads; all match.
  Compiled F = fibro();
  uint64_t Before = touchChunks();
  std::vector<std::thread> Threads;
  for (uint64_t Seed = 20; Seed < 24; ++Seed)
    Threads.emplace_back([&F, Seed] {
      Storage S = allocateStorage(F.LP, Seed);
      expectSerialSeeding(F.LP, S, Seed);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(touchChunks() - Before, 4 * slabPages(F.LP));
}

TEST(StorageTest, HashNameStable) {
  EXPECT_EQ(hashName("A"), hashName("A"));
  EXPECT_NE(hashName("A"), hashName("B"));
  // FNV-1a of "A" — pinned because the emitted C replicates it.
  EXPECT_EQ(hashName("A"), 0xaf63fc4c860222ecULL);
}

TEST(GeneratorTest, DeterministicInSeed) {
  GeneratorConfig Cfg;
  Cfg.Seed = 123;
  auto P1 = generateRandomProgram(Cfg);
  auto P2 = generateRandomProgram(Cfg);
  EXPECT_EQ(P1->str(), P2->str());
  Cfg.Seed = 124;
  auto P3 = generateRandomProgram(Cfg);
  EXPECT_NE(P1->str(), P3->str());
}

TEST(GeneratorTest, RespectsConfig) {
  GeneratorConfig Cfg;
  Cfg.Seed = 5;
  Cfg.NumStmts = 12;
  Cfg.NumPersistent = 2;
  Cfg.NumTemps = 4;
  Cfg.AddOpaque = true;
  auto P = generateRandomProgram(Cfg);
  EXPECT_EQ(P->numStmts(), 13u); // 12 + opaque
  EXPECT_EQ(P->arrays().size(), 6u);
  normalizeProgram(*P);
  EXPECT_TRUE(isWellFormed(*P));
}

TEST(GeneratorTest, NoSelfRefWhenDisabled) {
  GeneratorConfig Cfg;
  Cfg.Seed = 31;
  Cfg.AllowSelfRef = false;
  Cfg.NumStmts = 20;
  auto P = generateRandomProgram(Cfg);
  // Without self references the program is already in normal form.
  EXPECT_EQ(normalizeProgram(*P), 0u);
}

} // namespace

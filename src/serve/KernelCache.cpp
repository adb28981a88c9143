//===- serve/KernelCache.cpp - Sharded single-flight compile cache ----------===//

#include "serve/KernelCache.h"

#include "obs/Obs.h"

#include <algorithm>

using namespace alf;
using namespace alf::serve;

namespace {

ALF_COUNTER(NumCacheHits, "serve.cache.hit",
            "Requests served by a ready cache entry");
ALF_COUNTER(NumCacheMisses, "serve.cache.miss",
            "Requests whose cache miss ran the compile");
ALF_COUNTER(NumCacheCoalesced, "serve.cache.coalesced",
            "Requests that waited on another request's compile");

} // namespace

const char *serve::getCacheOutcomeName(CacheOutcome O) {
  switch (O) {
  case CacheOutcome::Hit:
    return "hit";
  case CacheOutcome::Miss:
    return "miss";
  case CacheOutcome::Coalesced:
    return "coalesced";
  }
  return "?";
}

KernelCache::KernelCache(unsigned NumShards, TaskQueue *InDispatch)
    : Dispatch(InDispatch) {
  NumShards = std::max(1u, NumShards);
  Shards.reserve(NumShards);
  for (unsigned I = 0; I < NumShards; ++I)
    Shards.push_back(std::make_unique<Shard>());
}

KernelCache::Shard &KernelCache::shardFor(const CompileKey &Key) {
  // Mix the secondary key fields in so one hot program compiled under
  // several strategies still spreads across shards.
  uint64_t H = Key.ProgramHash;
  H ^= (static_cast<uint64_t>(Key.Strat) << 8) ^
       (static_cast<uint64_t>(Key.Mode) << 16) ^
       (static_cast<uint64_t>(Key.Verify) << 24);
  H ^= H >> 33;
  return *Shards[H % Shards.size()];
}

const KernelCache::Shard &KernelCache::shardFor(const CompileKey &Key) const {
  return const_cast<KernelCache *>(this)->shardFor(Key);
}

std::shared_ptr<const CompiledEntry>
KernelCache::get(const CompileKey &Key, const CompileFn &Compile,
                 CacheOutcome *Outcome) {
  Shard &S = shardFor(Key);
  std::shared_ptr<Slot> Sl;
  bool Owner = false;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto It = S.Slots.find(Key);
    if (It != S.Slots.end()) {
      Sl = It->second;
    } else {
      Sl = std::make_shared<Slot>();
      S.Slots.emplace(Key, Sl);
      Owner = true;
    }
  }

  if (!Owner) {
    std::unique_lock<std::mutex> Lock(Sl->Mu);
    bool Waited = !Sl->Done;
    Sl->Ready.wait(Lock, [&] { return Sl->Done; });
    obs::instant(Waited ? NumCacheCoalesced : NumCacheHits);
    if (Outcome)
      *Outcome = Waited ? CacheOutcome::Coalesced : CacheOutcome::Hit;
    return Sl->Entry;
  }

  obs::instant(NumCacheMisses);
  if (Outcome)
    *Outcome = CacheOutcome::Miss;

  auto RunAndPublish = [Sl, &Compile] {
    auto Entry = std::make_shared<const CompiledEntry>(Compile());
    std::lock_guard<std::mutex> Lock(Sl->Mu);
    Sl->Entry = std::move(Entry);
    Sl->Done = true;
    Sl->Ready.notify_all();
  };

  if (Dispatch) {
    // Run on the compile queue so pipeline work is bounded to its thread
    // budget; this caller (a connection thread) blocks like a coalesced
    // waiter, but later requests for other keys proceed unimpeded.
    Dispatch->submit(RunAndPublish);
    std::unique_lock<std::mutex> Lock(Sl->Mu);
    Sl->Ready.wait(Lock, [&] { return Sl->Done; });
    return Sl->Entry;
  }

  RunAndPublish();
  std::lock_guard<std::mutex> Lock(Sl->Mu);
  return Sl->Entry;
}

size_t KernelCache::size() const {
  size_t N = 0;
  for (const auto &S : Shards) {
    std::lock_guard<std::mutex> Lock(S->Mu);
    N += S->Slots.size();
  }
  return N;
}


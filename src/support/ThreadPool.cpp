//===- support/ThreadPool.cpp - Static-partition thread pool ----------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>

using namespace alf;

namespace {

/// How long a worker looks for the next job, and a caller for its job's
/// end, before sleeping on a condition variable (see the class comment).
/// SP's kernel has gaps of over 100 us between split nests: on a 4-vCPU
/// virtual machine its pooled call read 5-8 ms with a 100 us spin and
/// 4.5-4.8 ms with this one.
constexpr std::chrono::microseconds SpinFor{1000};

/// Spins until \p Done holds or SpinFor has passed; returns Done().
template <typename Pred> bool spinUntil(Pred Done) {
  auto Deadline = std::chrono::steady_clock::now() + SpinFor;
  for (unsigned I = 1;; ++I) {
    if (Done())
      return true;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
    if (I % 64 == 0 && std::chrono::steady_clock::now() >= Deadline)
      return Done();
  }
}

} // namespace

ThreadPool::ThreadPool(unsigned NumThreads) {
  if (NumThreads == 0)
    NumThreads = std::max(1u, std::thread::hardware_concurrency());
  NumWorkers = NumThreads;
  Workers.reserve(NumWorkers - 1);
  for (unsigned W = 1; W < NumWorkers; ++W)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  JobReady.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

ThreadPool &ThreadPool::shared() {
  static ThreadPool Pool;
  return Pool;
}

bool ThreadPool::chunkBounds(int64_t Begin, int64_t End, unsigned NumChunks,
                             unsigned Chunk, int64_t &Lo, int64_t &Hi) {
  int64_t Size = End - Begin;
  if (Size <= 0 || Chunk >= NumChunks)
    return false;
  // Block partition: chunk i covers [Begin + i*Size/n, Begin + (i+1)*Size/n).
  Lo = Begin + Size * static_cast<int64_t>(Chunk) /
                   static_cast<int64_t>(NumChunks);
  int64_t Next = Begin + Size * (static_cast<int64_t>(Chunk) + 1) /
                     static_cast<int64_t>(NumChunks);
  Hi = Next - 1;
  return Lo <= Hi;
}

void ThreadPool::runClaimedChunks(int64_t Begin, int64_t End,
                                  unsigned NumChunks, const ChunkBody &Body) {
  for (unsigned C; (C = NextChunk++) < NumChunks;) {
    int64_t Lo, Hi;
    if (chunkBounds(Begin, End, NumChunks, C, Lo, Hi))
      Body(Lo, Hi + 1, C);
  }
}

void ThreadPool::workerLoop() {
  uint64_t SeenGeneration = 0;
  for (;;) {
    int64_t Begin, End;
    unsigned Chunks;
    const ChunkBody *Body;
    spinUntil([&] { return Generation.load() != SeenGeneration; });
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      JobReady.wait(Lock, [&] { return Stopping || Generation != SeenGeneration; });
      if (Stopping)
        return;
      SeenGeneration = Generation;
      // A worker that wakes after the caller ran every chunk itself finds
      // the job closed and goes back to sleep.
      if (!JobOpen)
        continue;
      ++Active;
      Begin = JobBegin;
      End = JobEnd;
      Chunks = JobChunks;
      Body = JobBody;
    }
    std::exception_ptr Error;
    try {
      runClaimedChunks(Begin, End, Chunks, *Body);
    } catch (...) {
      Error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      if (Error && !JobError)
        JobError = Error;
      if (--Active == 0)
        JobDone.notify_all();
    }
  }
}

void ThreadPool::parallelFor(int64_t Begin, int64_t End, unsigned NumChunks,
                             const ChunkBody &Body) {
  if (Begin >= End || NumChunks == 0)
    return;
  bool Idle = false;
  if (NumWorkers == 1 || NumChunks == 1 ||
      !Busy.compare_exchange_strong(Idle, true)) {
    for (unsigned C = 0; C < NumChunks; ++C) {
      int64_t Lo, Hi;
      if (chunkBounds(Begin, End, NumChunks, C, Lo, Hi))
        Body(Lo, Hi + 1, C);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    JobBegin = Begin;
    JobEnd = End;
    JobChunks = NumChunks;
    JobBody = &Body;
    NextChunk = 0;
    JobOpen = true;
    ++Generation;
  }
  JobReady.notify_all();
  std::exception_ptr Error;
  try {
    runClaimedChunks(Begin, End, NumChunks, Body);
  } catch (...) {
    Error = std::current_exception();
  }
  // No worker may still hold Body once parallelFor returns, so the job
  // closes before any chunk's exception goes on to the caller.
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    JobOpen = false;
  }
  spinUntil([&] { return Active.load() == 0; });
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    JobDone.wait(Lock, [&] { return Active == 0; });
    JobBody = nullptr;
    if (!Error)
      Error = JobError;
    JobError = nullptr;
  }
  Busy = false;
  if (Error)
    std::rethrow_exception(Error);
}

TaskQueue::TaskQueue(unsigned NumThreads) {
  NumThreads = std::max(1u, NumThreads);
  Workers.reserve(NumThreads);
  for (unsigned W = 0; W < NumThreads; ++W)
    Workers.emplace_back([this] { workerLoop(); });
}

TaskQueue::~TaskQueue() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Stopping = true;
  }
  JobReady.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

void TaskQueue::submit(std::function<void()> Job) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Jobs.push_back(std::move(Job));
  }
  JobReady.notify_one();
}

size_t TaskQueue::pending() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Jobs.size();
}

void TaskQueue::workerLoop() {
  for (;;) {
    std::function<void()> Job;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      // Workers only exit once the queue is empty, so destruction drains
      // every job already submitted (waiters on a queued compile would
      // otherwise hang forever).
      JobReady.wait(Lock, [&] { return Stopping || !Jobs.empty(); });
      if (Jobs.empty())
        return;
      Job = std::move(Jobs.front());
      Jobs.pop_front();
    }
    Job();
  }
}

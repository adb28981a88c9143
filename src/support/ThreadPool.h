//===- support/ThreadPool.h - Static-partition thread pool -----*- C++ -*-===//
//
// Part of the ALF project: array-level fusion and contraction.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, work-stealing-free thread pool built around one primitive:
/// `parallelFor`, which splits a half-open index range into contiguous
/// chunks and blocks until every chunk has run. The block partition
/// depends only on the range and the chunk count, never on which thread
/// runs a chunk, so a caller that keeps per-chunk state (the parallel
/// executor's thread-private contracted scalars) gets bit-identical
/// results whoever ran what. `ThreadPool::shared()` is the one pool of
/// the process, sized to the cores; the parallel executor and the first
/// touch of large storages both run on it.
///
//===----------------------------------------------------------------------===//

#ifndef ALF_SUPPORT_THREADPOOL_H
#define ALF_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace alf {

/// A persistent pool of `numThreads() - 1` background workers plus the
/// calling thread. Jobs are dispatched by `parallelFor`; the pool is
/// reused across calls so tile-with-barriers execution (one dispatch per
/// sequential outer iteration) does not pay thread creation per barrier.
///
/// Thread-safety contract: any number of threads may call `parallelFor`
/// at once, and a chunk body may call it again. One job runs on the pool
/// at a time. A call that finds the pool busy (another caller's job, or
/// the job whose body is calling) runs every chunk itself, in chunk
/// order, so there is no oversubscription and no deadlock.
///
/// Waiting: an idle worker spins for about a millisecond for the next job
/// before it sleeps, and a caller spins as long for the workers of its
/// job to finish. A native kernel dispatches its split nests back to
/// back, and waking a sleeping thread (a futex wake, on a virtual machine
/// a halted vCPU) costs more than a short nest's chunk.
class ThreadPool {
public:
  /// A chunk body: [ChunkBegin, ChunkEnd) and the index of that chunk in
  /// the block partition (0 holds the lowest indices).
  using ChunkBody = std::function<void(int64_t ChunkBegin, int64_t ChunkEnd,
                                       unsigned Chunk)>;

  /// Creates a pool of \p NumThreads workers; 0 means
  /// std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(unsigned NumThreads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// The process-wide pool, one worker per core, started on first use.
  static ThreadPool &shared();

  unsigned numThreads() const { return NumWorkers; }

  /// Splits [Begin, End) into \p NumChunks contiguous chunks (chunk i is
  /// the i-th in index order; trailing chunks may be empty when the range
  /// is short) and runs each once, on whichever threads of the pool are
  /// free. Blocks until all chunks complete, then rethrows the first
  /// exception a chunk threw, if any. Runs them inline, in chunk order,
  /// when the pool has a single worker or is busy.
  void parallelFor(int64_t Begin, int64_t End, unsigned NumChunks,
                   const ChunkBody &Body);

  /// The inclusive sub-range [Lo..Hi] of chunk \p Chunk when [Begin, End)
  /// is block-partitioned into \p NumChunks pieces; returns false when the
  /// chunk is empty. Exposed so callers can reason about chunk ownership
  /// (e.g. which chunk runs the last iteration) without duplicating the
  /// partition arithmetic.
  static bool chunkBounds(int64_t Begin, int64_t End, unsigned NumChunks,
                          unsigned Chunk, int64_t &Lo, int64_t &Hi);

private:
  void workerLoop();
  /// Claims and runs chunks of the open job until none is left.
  void runClaimedChunks(int64_t Begin, int64_t End, unsigned NumChunks,
                        const ChunkBody &Body);

  unsigned NumWorkers = 1;

  /// Set while a job owns the pool; a caller that cannot set it runs
  /// inline.
  std::atomic<bool> Busy{false};
  /// The next unclaimed chunk of the open job.
  std::atomic<unsigned> NextChunk{0};

  std::mutex Mutex;
  std::condition_variable JobReady;
  std::condition_variable JobDone;
  /// Bumped per dispatch; workers wait on it. Written under Mutex, read
  /// without it by workers spinning for the next job.
  std::atomic<uint64_t> Generation{0};
  bool JobOpen = false; ///< background workers may still join the job
  /// Background workers inside the job. Written under Mutex, read
  /// without it by a caller spinning for the job's end.
  std::atomic<unsigned> Active{0};
  bool Stopping = false;

  // The open job (valid while JobOpen or Active > 0).
  int64_t JobBegin = 0;
  int64_t JobEnd = 0;
  unsigned JobChunks = 0;
  const ChunkBody *JobBody = nullptr;
  std::exception_ptr JobError; ///< first exception a worker's chunk threw

  std::vector<std::thread> Workers; // last: they use every member above
};

/// A FIFO job queue drained by a fixed set of dedicated workers — the
/// asynchronous counterpart of ThreadPool (which is a fork/join
/// primitive and unsuitable for fire-and-forget work). The serving
/// layer uses one as its compile queue: expensive kernel compiles are
/// submitted here so they are bounded to NumThreads at a time and never
/// run on (or block) the threads answering warm execution requests.
///
/// Thread-safety contract: submit() may be called from any thread,
/// including from inside a running job. Jobs run in submission order
/// when NumThreads == 1; with more workers only the dequeue order is
/// FIFO. The destructor drains the queue: every job submitted before
/// destruction begins is run to completion, then the workers join — so
/// a job's captured state may safely outlive the submitting thread but
/// must outlive the queue.
class TaskQueue {
public:
  /// Spawns \p NumThreads dedicated workers (at least one).
  explicit TaskQueue(unsigned NumThreads = 1);

  /// Drains every queued job, then joins the workers.
  ~TaskQueue();

  TaskQueue(const TaskQueue &) = delete;
  TaskQueue &operator=(const TaskQueue &) = delete;

  /// Enqueues \p Job to run on some worker. Never blocks on job
  /// execution (only on the queue mutex).
  void submit(std::function<void()> Job);

  /// Jobs enqueued but not yet started (a snapshot; racy by nature).
  size_t pending() const;

  unsigned numThreads() const { return static_cast<unsigned>(Workers.size()); }

private:
  void workerLoop();

  mutable std::mutex Mutex;
  std::condition_variable JobReady;
  std::deque<std::function<void()>> Jobs;
  std::vector<std::thread> Workers;
  bool Stopping = false;
};

} // namespace alf

#endif // ALF_SUPPORT_THREADPOOL_H

#ifndef ALID_COMMON_THREAD_POOL_H_
#define ALID_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace alid {

/// A fixed-size work-stealing worker pool. PALID's "executors" (Table 2)
/// map onto these workers: every map task (one ALID run per seed chunk) is a
/// job, and the reduce stage runs after Wait(). Every worker owns a deque;
/// external submissions are spread round-robin, and a worker's own
/// submissions go to its own deque, popped LIFO while still cache-hot. A
/// worker out of local work steals the *oldest* job of a peer (oldest jobs
/// are the largest remaining chunks under ParallelFor's splitting, so steals
/// amortize well). Jobs may be posted from any thread.
class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a fire-and-forget job. Safe from any thread.
  void Post(std::function<void()> job);

  /// Splits [begin, end) into chunks of `grain` >= 1 iterations (the last
  /// may be shorter) and runs body(chunk_begin, chunk_end) across the pool.
  /// The calling thread participates, so the pool being saturated never
  /// deadlocks the caller. Chunks are claimed from a shared counter —
  /// results must not depend on claim order. Must not be called from inside
  /// one of this pool's workers.
  void ParallelFor(int64_t begin, int64_t end,
                   const std::function<void(int64_t, int64_t)>& body,
                   int64_t grain);

  /// Blocks until every job posted so far has finished.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// True iff the calling thread is one of this pool's workers. Shared
  /// helpers (ParallelChunks) use it to degrade to serial execution instead
  /// of tripping ParallelFor's re-entrancy check when a pool task itself
  /// reaches a parallelized loop (e.g. a PALID map task calling a baseline
  /// that shares the same pool).
  bool CalledFromWorker() const;

  /// Jobs executed by a worker other than the one they were queued on.
  int64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }
  /// Total jobs executed since construction.
  int64_t tasks_executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  /// Jobs posted but not yet popped by any worker — the instantaneous
  /// backlog (a saturation gauge, not a throughput counter).
  int64_t queue_depth() const {
    return unclaimed_.load(std::memory_order_relaxed);
  }

  /// Registers `<prefix>_steals` / `<prefix>_tasks_executed` /
  /// `<prefix>_queue_depth` callback gauges on `registry`. The pool must
  /// outlive every Snapshot()/export of that registry — in practice pools
  /// are declared before (so destroyed after) the stream/server whose
  /// per-instance registry reads them.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const;

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> jobs;
  };

  void WorkerLoop(int index);
  /// Pops and runs one job (own deque first, then steal). False if none.
  bool TryRunOne(int self);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex sleep_mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::atomic<int64_t> pending_{0};    // posted, not yet finished
  std::atomic<int64_t> unclaimed_{0};  // posted, not yet popped
  std::atomic<int64_t> steals_{0};
  std::atomic<int64_t> executed_{0};
  std::atomic<uint64_t> next_queue_{0};
  std::atomic<bool> shutdown_{false};
};

}  // namespace alid

#endif  // ALID_COMMON_THREAD_POOL_H_

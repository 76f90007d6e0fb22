#ifndef ALID_COMMON_THREAD_POOL_H_
#define ALID_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace alid {

/// A fixed-size worker pool over one FIFO job queue. PALID's "executors"
/// (Table 2) map onto these workers: every map task (one detection) is a
/// job, and the reduce stage runs after Wait(). Jobs are coarse (whole
/// detections, whole shards, chunks of query points) and no job posts
/// subtasks on the hot path, so the workers take them from one
/// mutex-guarded deque in posting order. Jobs may be posted from any thread.
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

  /// Always 0: read by the repository benchmark; removed at its next revision.
  int64_t steal_count() const { return 0; }
  /// Total jobs executed since construction.
  int64_t tasks_executed() const;
  /// Jobs posted but not yet taken by any worker — the instantaneous
  /// backlog (a saturation gauge, not a throughput counter).
  int64_t queue_depth() const;

  /// Registers `<prefix>_tasks_executed` / `<prefix>_queue_depth` callback
  /// gauges on `registry`. The pool must outlive every Snapshot()/export of
  /// that registry — in practice pools are declared before (so destroyed
  /// after) the server whose per-instance registry reads them.
  void RegisterMetrics(obs::MetricsRegistry* registry,
                       const std::string& prefix) const;

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> jobs_;  // guarded by mu_
  int64_t pending_ = 0;    // posted, not yet finished; guarded by mu_
  int64_t executed_ = 0;   // guarded by mu_
  bool shutdown_ = false;  // guarded by mu_
  // Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace alid

#endif  // ALID_COMMON_THREAD_POOL_H_

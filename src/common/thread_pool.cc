#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace alid {

namespace {

// Identity of the current thread within a pool, so Post() can route a
// worker's own submissions to its own deque and ParallelFor can reject
// re-entrant calls that would deadlock.
thread_local const ThreadPool* tls_pool = nullptr;
thread_local int tls_worker_index = -1;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  ALID_CHECK(num_threads > 0);
  queues_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    shutdown_.store(true);
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::CalledFromWorker() const { return tls_pool == this; }

void ThreadPool::Post(std::function<void()> job) {
  ALID_CHECK_MSG(!shutdown_.load(), "Post after shutdown");
  pending_.fetch_add(1, std::memory_order_relaxed);
  const size_t q = (tls_pool == this && tls_worker_index >= 0)
                       ? static_cast<size_t>(tls_worker_index)
                       : next_queue_.fetch_add(1, std::memory_order_relaxed) %
                             queues_.size();
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mu);
    queues_[q]->jobs.push_back(std::move(job));
  }
  // unclaimed_ rises only after the job is findable in a deque, so a worker
  // whose wait predicate sees it > 0 never busy-spins over empty queues.
  unclaimed_.fetch_add(1, std::memory_order_release);
  // Empty critical section pairs with the sleep predicate: a worker that read
  // unclaimed_ == 0 has either not yet blocked (it will re-read under the
  // lock) or is blocked and will receive the notify.
  { std::lock_guard<std::mutex> lock(sleep_mu_); }
  work_available_.notify_one();
}

bool ThreadPool::TryRunOne(int self) {
  std::function<void()> job;
  bool stolen = false;
  const int nq = static_cast<int>(queues_.size());
  {
    // Own deque first, newest job (cache-hot LIFO).
    WorkerQueue& own = *queues_[self];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.jobs.empty()) {
      job = std::move(own.jobs.back());
      own.jobs.pop_back();
    }
  }
  if (!job) {
    for (int off = 1; off < nq && !job; ++off) {
      WorkerQueue& victim = *queues_[(self + off) % nq];
      std::lock_guard<std::mutex> lock(victim.mu);
      if (!victim.jobs.empty()) {
        job = std::move(victim.jobs.front());
        victim.jobs.pop_front();
        stolen = true;
      }
    }
  }
  if (!job) return false;

  unclaimed_.fetch_sub(1, std::memory_order_acquire);
  if (stolen) steals_.fetch_add(1, std::memory_order_relaxed);
  job();
  executed_.fetch_add(1, std::memory_order_relaxed);
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    all_done_.notify_all();
  }
  return true;
}

void ThreadPool::WorkerLoop(int index) {
  tls_pool = this;
  tls_worker_index = index;
  for (;;) {
    if (TryRunOne(index)) continue;
    std::unique_lock<std::mutex> lock(sleep_mu_);
    work_available_.wait(lock, [this] {
      return shutdown_.load() || unclaimed_.load(std::memory_order_acquire) > 0;
    });
    if (shutdown_.load() && unclaimed_.load() == 0) return;
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(sleep_mu_);
  all_done_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::ParallelFor(
    int64_t begin, int64_t end,
    const std::function<void(int64_t, int64_t)>& body, int64_t grain) {
  if (begin >= end) return;
  ALID_CHECK_MSG(tls_pool != this,
                 "ParallelFor must not be called from a pool worker");
  ALID_CHECK(grain >= 1);
  const int64_t num_chunks = (end - begin + grain - 1) / grain;
  if (num_chunks == 1) {
    body(begin, end);
    return;
  }

  struct State {
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<State>();
  // `body` is captured by pointer: a straggler helper scheduled after
  // completion claims no chunk and never dereferences it, and every claimed
  // chunk finishes before the wait below returns.
  auto run_chunks = [state, begin, end, grain, num_chunks, body_ptr = &body] {
    for (;;) {
      const int64_t chunk =
          state->next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) return;
      const int64_t lo = begin + chunk * grain;
      const int64_t hi = std::min(end, lo + grain);
      (*body_ptr)(lo, hi);
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          num_chunks) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    }
  };
  const int helpers = static_cast<int>(
      std::min<int64_t>(num_threads(), num_chunks - 1));
  for (int i = 0; i < helpers; ++i) Post(run_chunks);
  run_chunks();  // the caller participates
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == num_chunks;
  });
}

void ThreadPool::RegisterMetrics(obs::MetricsRegistry* registry,
                                 const std::string& prefix) const {
  ALID_CHECK(registry != nullptr);
  registry->AddCallbackGauge(prefix + "_steals",
                             [this] { return steal_count(); });
  registry->AddCallbackGauge(prefix + "_tasks_executed",
                             [this] { return tasks_executed(); });
  registry->AddCallbackGauge(prefix + "_queue_depth",
                             [this] { return queue_depth(); });
}

}  // namespace alid

#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/check.h"

namespace alid {

namespace {

// The pool the current thread works for, so ParallelFor can reject
// re-entrant calls that would deadlock.
thread_local const ThreadPool* tls_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  ALID_CHECK(num_threads > 0);
  workers_.reserve(num_threads);
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::CalledFromWorker() const { return tls_pool == this; }

int64_t ThreadPool::tasks_executed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return executed_;
}

int64_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(jobs_.size());
}

void ThreadPool::Post(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ALID_CHECK_MSG(!shutdown_, "Post after shutdown");
    jobs_.push_back(std::move(job));
    ++pending_;
  }
  work_available_.notify_one();
}

void ThreadPool::WorkerLoop() {
  tls_pool = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_available_.wait(lock, [this] { return shutdown_ || !jobs_.empty(); });
    // Shutdown drains the queue first.
    if (jobs_.empty()) return;
    {
      std::function<void()> job = std::move(jobs_.front());
      jobs_.pop_front();
      lock.unlock();
      job();
    }  // the job's captures are released outside the lock
    lock.lock();
    ++executed_;
    if (--pending_ == 0) all_done_.notify_all();
  }
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return pending_ == 0; });
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
  registry->AddCallbackGauge(prefix + "_tasks_executed",
                             [this] { return tasks_executed(); });
  registry->AddCallbackGauge(prefix + "_queue_depth",
                             [this] { return queue_depth(); });
}

}  // namespace alid

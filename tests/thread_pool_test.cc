// Tests of the FIFO executor pool: ParallelFor coverage, Wait semantics,
// posting order, progress of the other workers while one is held, and
// nested posting from inside workers.
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"

namespace alid {
namespace {

TEST(ThreadPoolTest, WaitDrainsAllPostedJobs) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    pool.Post([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 200);
  EXPECT_GE(pool.tasks_executed(), 200);
  pool.Wait();  // idempotent on an idle pool
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 10'000;
  std::vector<std::atomic<int>> visits(kN);
  pool.ParallelFor(
      0, kN,
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) visits[i].fetch_add(1);
      },
      /*grain=*/125);
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForRespectsGrainAndEmptyRange) {
  ThreadPool pool(2);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(
      5, 105,
      [&](int64_t lo, int64_t hi) {
        EXPECT_LE(hi - lo, 7);
        for (int64_t i = lo; i < hi; ++i) sum.fetch_add(i);
      },
      /*grain=*/7);
  EXPECT_EQ(sum.load(), (104 + 5) * 100 / 2);
  // Empty and reversed ranges are no-ops.
  pool.ParallelFor(3, 3, [&](int64_t, int64_t) { FAIL(); }, /*grain=*/1);
  pool.ParallelFor(4, 1, [&](int64_t, int64_t) { FAIL(); }, /*grain=*/1);
}

TEST(ThreadPoolTest, OneWorkerRunsJobsInPostingOrder) {
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  pool.Post([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  constexpr int kJobs = 16;
  std::mutex mu;
  std::vector<int> order;
  for (int i = 0; i < kJobs; ++i) {
    pool.Post([&mu, &order, i] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(i);
    });
  }
  release.store(true);
  pool.Wait();
  ASSERT_EQ(order.size(), static_cast<size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(order[i], i) << "position " << i;
}

TEST(ThreadPoolTest, OtherWorkersDrainTheQueueWhileOneIsHeld) {
  // One long job holds its worker until the 400 short jobs posted behind it
  // have finished, so they must all run on the other three workers. The
  // long job gives up after a bounded deadline, so a pool that parks the
  // short jobs behind it fails the test instead of hanging it.
  ThreadPool pool(4);
  constexpr int kShort = 400;
  std::atomic<int> short_done{0};
  std::atomic<bool> held_until_drained{false};
  pool.Post([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (short_done.load() < kShort &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    held_until_drained.store(short_done.load() == kShort);
  });
  for (int i = 0; i < kShort; ++i) {
    pool.Post([&short_done] { short_done.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_TRUE(held_until_drained.load());
  EXPECT_EQ(short_done.load(), kShort);
}

TEST(ThreadPoolTest, NestedPostFromWorkerCompletesBeforeWait) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    pool.Post([&pool, &count] {
      // A worker posting follow-up work onto the shared queue.
      pool.Post([&count] { count.fetch_add(1); });
      count.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 40);
}

}  // namespace
}  // namespace alid

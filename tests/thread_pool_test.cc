// Tests of the work-stealing executor pool: ParallelFor coverage, Wait
// semantics, stealing under imbalance, and nested posting from inside
// workers.
#include <atomic>
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

TEST(ThreadPoolTest, WorkStealingExecutesEverythingUnderImbalance) {
  // One long job pins a worker; the stampede of short jobs behind it on the
  // same deque must get stolen by the other workers.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  std::atomic<bool> release{false};
  pool.Post([&] {
    while (!release.load()) std::this_thread::yield();
    done.fetch_add(1);
  });
  for (int i = 0; i < 400; ++i) {
    pool.Post([&done] { done.fetch_add(1); });
  }
  release.store(true);
  pool.Wait();
  EXPECT_EQ(done.load(), 401);
}

TEST(ThreadPoolTest, NestedPostFromWorkerCompletesBeforeWait) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 20; ++i) {
    pool.Post([&pool, &count] {
      // A worker posting follow-up work (goes to its own deque).
      pool.Post([&count] { count.fetch_add(1); });
      count.fetch_add(1);
    });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 40);
}

}  // namespace
}  // namespace alid

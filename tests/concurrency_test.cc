// Concurrency tests: the substrates PALID shares across executors must be
// safe under concurrent use, and the atomic counters must not lose updates.
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/memory_tracker.h"
#include "common/thread_pool.h"
#include "core/alid.h"
#include "core/palid.h"
#include "data/synthetic.h"
#include "eval/metrics.h"

namespace alid {
namespace {

LabeledData Workload(Index n = 400) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 10;
  cfg.num_clusters = 4;
  cfg.omega = 0.6;
  cfg.mean_box = 300.0;
  cfg.overlap_clusters = false;
  cfg.seed = 55;
  return MakeSynthetic(cfg);
}

TEST(ConcurrencyTest, ParallelDetectOneMatchesSequential) {
  LabeledData data = Workload();
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  LazyAffinityOracle oracle(data.data, affinity);
  LshParams lp;
  lp.segment_length = data.suggested_lsh_r;
  LshIndex lsh(data.data, lp);
  AlidDetector detector(oracle, lsh, {});

  // One seed per true cluster; run all four detections sequentially ...
  std::vector<Index> seeds;
  for (const auto& c : data.true_clusters) seeds.push_back(c[0]);
  std::vector<Cluster> sequential;
  for (Index s : seeds) sequential.push_back(detector.DetectOne(s));

  // ... and concurrently from four threads against the same detector.
  std::vector<Cluster> parallel(seeds.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < seeds.size(); ++t) {
    threads.emplace_back(
        [&, t] { parallel[t] = detector.DetectOne(seeds[t]); });
  }
  for (auto& th : threads) th.join();

  for (size_t t = 0; t < seeds.size(); ++t) {
    EXPECT_EQ(sequential[t].members, parallel[t].members) << "seed " << t;
    EXPECT_NEAR(sequential[t].density, parallel[t].density, 1e-12);
  }
}

TEST(ConcurrencyTest, OracleCountersAreExactUnderContention) {
  LabeledData data = Workload(100);
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  LazyAffinityOracle oracle(data.data, affinity);
  // The stateless oracle: every request is a kernel eval, so the counter
  // must equal the exact request count under contention.
  oracle.ResetCounters();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Post([&] {
        for (int i = 0; i < kPerThread; ++i) {
          oracle.Entry(i % 100, (i + 1) % 100);
        }
      });
    }
    pool.Wait();
  }
  EXPECT_EQ(oracle.entries_computed(), kThreads * kPerThread);
}

TEST(ConcurrencyTest, CachedOracleCountersPartitionRequestsExactly) {
  // Every request is either a cache hit or true kernel work. The oracle has
  // no cache, so under contention — single entries and column fragments
  // mixed on one shared oracle — the hits stay 0 and the computed count is
  // exactly the number of entries requested.
  LabeledData data = Workload(100);
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  LazyAffinityOracle oracle(data.data, affinity);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  constexpr int kColumnRows = 10;
  IndexList rows;
  for (Index i = 0; i < kColumnRows; ++i) rows.push_back(i);
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Post([&] {
        for (int i = 0; i < kPerThread; ++i) {
          if (i % 2 == 0) {
            oracle.Entry(i % 100, (i + 1) % 100);
          } else {
            oracle.Column(rows, i % 100);
          }
        }
      });
    }
    pool.Wait();
  }
  constexpr int64_t kRequested =
      kThreads * (kPerThread / 2) * int64_t{1 + kColumnRows};
  EXPECT_EQ(oracle.cache_hits(), 0);
  EXPECT_EQ(oracle.cache_hits() + oracle.entries_computed(), kRequested);
}

TEST(ConcurrencyTest, MemoryTrackerBalancedUnderContention) {
  MemoryTracker::Global().Reset();
  {
    ThreadPool pool(4);
    for (int t = 0; t < 200; ++t) {
      pool.Post([] { ScopedMemoryCharge charge(64); });
    }
    pool.Wait();
  }
  EXPECT_EQ(MemoryTracker::Global().current_bytes(), 0);
  EXPECT_GE(MemoryTracker::Global().peak_bytes(), 64);
}

TEST(ConcurrencyTest, PalidDeterministicAcrossExecutorCounts) {
  LabeledData data = Workload();
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  LazyAffinityOracle oracle(data.data, affinity);
  LshParams lp;
  lp.segment_length = data.suggested_lsh_r;
  LshIndex lsh(data.data, lp);

  auto detect_members = [&](int executors) {
    PalidOptions opts;
    opts.num_executors = executors;
    Palid palid(oracle, lsh, opts);
    DetectionResult r = palid.Detect().Filtered(0.75);
    std::set<IndexList> members;
    for (const Cluster& c : r.clusters) members.insert(c.members);
    return members;
  };
  // Map tasks are independent and the reduce is order-insensitive, so the
  // surviving member sets must not depend on the executor count.
  EXPECT_EQ(detect_members(1), detect_members(3));
}

TEST(ConcurrencyTest, LshQueriesThreadSafe) {
  LabeledData data = Workload();
  LshParams lp;
  lp.segment_length = data.suggested_lsh_r;
  LshIndex lsh(data.data, lp);
  std::vector<std::vector<Index>> sequential(20);
  for (Index i = 0; i < 20; ++i) {
    sequential[i] = lsh.QueryByIndex(i);
    std::sort(sequential[i].begin(), sequential[i].end());
  }
  std::atomic<bool> mismatch{false};
  {
    ThreadPool pool(4);
    for (int rep = 0; rep < 50; ++rep) {
      pool.Post([&, rep] {
        const Index i = rep % 20;
        auto res = lsh.QueryByIndex(i);
        std::sort(res.begin(), res.end());
        if (res != sequential[i]) mismatch.store(true);
      });
    }
    pool.Wait();
  }
  EXPECT_FALSE(mismatch.load());
}

}  // namespace
}  // namespace alid

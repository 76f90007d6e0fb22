// Tests of the streaming runtime (windowed, batch-parallel OnlineAlid):
// bit-identical stream state across executor counts and scheduling
// disciplines, an executor-independent kernel-evaluation count, and the
// streaming edge cases (empty window, duplicate inserts, remove-then-
// reinsert, refresh-interval boundaries).
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/online_alid.h"
#include "data/synthetic.h"
#include "test_util.h"

namespace alid {
namespace {

LabeledData Workload(Index n = 420, uint64_t seed = 91) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 10;
  cfg.num_clusters = 4;
  cfg.omega = 0.6;
  cfg.mean_box = 300.0;
  cfg.overlap_clusters = false;
  cfg.seed = seed;
  return MakeSynthetic(cfg);
}

OnlineAlidOptions Options(const LabeledData& data) {
  OnlineAlidOptions opts;
  opts.affinity = {.k = data.suggested_k, .p = 2.0};
  opts.lsh.segment_length = data.suggested_lsh_r;
  opts.refresh_interval = 96;
  return opts;
}

// Streams `data` in a fixed shuffled order as batches of `batch`, returning
// the finished stream for state comparison.
std::unique_ptr<OnlineAlid> RunStream(const LabeledData& data,
                                      OnlineAlidOptions opts, Index batch) {
  auto online = std::make_unique<OnlineAlid>(data.data.dim(), opts);
  Rng rng(5);
  const auto order = rng.Permutation(data.size());
  std::vector<Scalar> flat;
  for (Index pos = 0; pos < data.size(); ++pos) {
    const auto row = data.data[order[pos]];
    if (static_cast<Index>(flat.size()) / data.data.dim() == batch) {
      online->InsertBatch(flat);
      flat.clear();
    }
    flat.insert(flat.end(), row.begin(), row.end());
  }
  if (!flat.empty()) online->InsertBatch(flat);
  online->Refresh();
  return online;
}

// Full structural equality of two streams: clusters (order included),
// per-slot assignment/liveness, and every state-derived counter.
void ExpectIdenticalStreams(const OnlineAlid& a, const OnlineAlid& b) {
  DetectionResult da, db;
  da.clusters = a.clusters();
  db.clusters = b.clusters();
  ExpectIdenticalDetections(da, db);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.alive(), b.alive());
  const StreamStats& sa = a.stats();
  const StreamStats& sb = b.stats();
  EXPECT_EQ(sa.arrivals, sb.arrivals);
  EXPECT_EQ(sa.absorbed, sb.absorbed);
  EXPECT_EQ(sa.pooled, sb.pooled);
  EXPECT_EQ(sa.evicted, sb.evicted);
  EXPECT_EQ(sa.redetections, sb.redetections);
  EXPECT_EQ(sa.refreshes, sb.refreshes);
  EXPECT_EQ(sa.clusters_born, sb.clusters_born);
  EXPECT_EQ(sa.clusters_dissolved, sb.clusters_dissolved);
  // The sketch filter and the refresh frontier schedule are deterministic
  // too: their counters are part of the bit-identity contract.
  EXPECT_EQ(sa.sketch_prunes, sb.sketch_prunes);
  EXPECT_EQ(sa.sketch_exact, sb.sketch_exact);
  EXPECT_EQ(sa.refresh_rounds, sb.refresh_rounds);
  EXPECT_EQ(sa.refresh_speculations, sb.refresh_speculations);
  EXPECT_EQ(sa.refresh_conflicts, sb.refresh_conflicts);
  // The oracle is stateless, so its kernel-evaluation count is exact: a
  // deterministic function of the stream like the state it paid for.
  EXPECT_EQ(a.oracle().entries_computed(), b.oracle().entries_computed());
}

// Per-slot equality needs the slot universe; compare over the high-water
// slot count implied by assignments.
void ExpectIdenticalSlots(const OnlineAlid& a, const OnlineAlid& b,
                          Index slots) {
  for (Index i = 0; i < slots; ++i) {
    EXPECT_EQ(a.IsAlive(i), b.IsAlive(i)) << "slot " << i;
    EXPECT_EQ(a.ClusterOf(i), b.ClusterOf(i)) << "slot " << i;
  }
}

TEST(StreamTest, BitIdenticalAcrossExecutorCountsAndScheduling) {
  LabeledData data = Workload();
  OnlineAlidOptions opts = Options(data);
  opts.window = 260;  // evictions + repairs happen mid-stream
  const Index batch = 37;

  std::unique_ptr<OnlineAlid> serial = RunStream(data, opts, batch);
  ASSERT_GT(serial->clusters().size(), 0u);
  ASSERT_GT(serial->stats().evicted, 0);

  for (int executors : {1, 2, 4, 8}) {
    for (bool stealing : {true, false}) {
      ThreadPool pool(executors, {.work_stealing = stealing});
      OnlineAlidOptions parallel = opts;
      parallel.pool = &pool;
      std::unique_ptr<OnlineAlid> streamed = RunStream(data, parallel, batch);
      SCOPED_TRACE(testing::Message() << "executors=" << executors
                                      << " stealing=" << stealing);
      ExpectIdenticalStreams(*serial, *streamed);
      ExpectIdenticalSlots(*serial, *streamed, opts.window + batch);
    }
  }
}

TEST(StreamTest, BitIdenticalAcrossGrains) {
  LabeledData data = Workload(360);
  OnlineAlidOptions opts = Options(data);
  opts.window = 220;
  ThreadPool pool(4);
  opts.pool = &pool;
  std::unique_ptr<OnlineAlid> automatic = RunStream(data, opts, 41);
  for (int64_t grain : {1, 7, 64}) {
    OnlineAlidOptions g = opts;
    g.grain = grain;
    std::unique_ptr<OnlineAlid> streamed = RunStream(data, g, 41);
    SCOPED_TRACE(testing::Message() << "grain=" << grain);
    ExpectIdenticalStreams(*automatic, *streamed);
  }
}

// Named after the shared column cache the stream once invalidated on
// expiry; with the stateless oracle there is nothing to invalidate. After
// interleaved insert/expiry with slot re-use, every affinity the stream's
// oracle serves is the kernel on the slot's current point — never a value
// against an evicted one — and each request is counted as kernel work.
TEST(StreamTest, CacheOnEqualsCacheOffAfterInterleavedInsertRemove) {
  LabeledData data = Workload(380, 17);
  OnlineAlidOptions opts = Options(data);
  opts.window = 200;  // expiry interleaves with absorption and refreshes
  ThreadPool pool(4);
  opts.pool = &pool;

  std::unique_ptr<OnlineAlid> pooled = RunStream(data, opts, 29);
  OnlineAlidOptions serial = opts;
  serial.pool = nullptr;
  std::unique_ptr<OnlineAlid> reference = RunStream(data, serial, 29);
  // Slots were expired and re-used — otherwise this test proves nothing
  // about stale-value hygiene.
  const LazyAffinityOracle& oracle = pooled->oracle();
  const Index slots = oracle.data().size();
  ASSERT_GT(pooled->stats().evicted, 0);
  ASSERT_LT(slots, pooled->size());
  ExpectIdenticalStreams(*pooled, *reference);
  ExpectIdenticalSlots(*pooled, *reference, opts.window + 29);

  AffinityFunction kernel(opts.affinity);
  IndexList live;
  for (Index i = 0; i < slots; ++i) {
    if (pooled->IsAlive(i)) live.push_back(i);
  }
  ASSERT_EQ(static_cast<Index>(live.size()), pooled->alive());
  const int64_t before = oracle.entries_computed();
  for (Index col : {live.front(), live[live.size() / 2], live.back()}) {
    const std::vector<Scalar> column = oracle.Column(live, col);
    for (size_t r = 0; r < live.size(); ++r) {
      EXPECT_EQ(column[r], kernel(oracle.data(), live[r], col)) << col;
    }
  }
  EXPECT_EQ(oracle.entries_computed() - before,
            3 * static_cast<int64_t>(live.size()));
  EXPECT_EQ(oracle.cache_hits(), 0);
}

TEST(StreamTest, SlidingWindowBoundsAliveAndReleasesExpired) {
  LabeledData data = Workload(300);
  OnlineAlidOptions opts = Options(data);
  opts.window = 120;
  std::unique_ptr<OnlineAlid> online = RunStream(data, opts, 25);
  EXPECT_EQ(online->alive(), 120);
  EXPECT_EQ(online->stats().evicted, online->size() - online->alive());
  // Every cluster member is alive and consistently assigned.
  for (size_t c = 0; c < online->clusters().size(); ++c) {
    for (Index m : online->clusters()[c].members) {
      EXPECT_TRUE(online->IsAlive(m));
      EXPECT_EQ(online->ClusterOf(m), static_cast<int>(c));
    }
  }
}

TEST(StreamTest, EmptyWindowEdges) {
  LabeledData data = Workload(60);
  // A window smaller than one batch: almost everything expires immediately.
  OnlineAlidOptions opts = Options(data);
  opts.window = 4;
  OnlineAlid online(data.data.dim(), opts);
  std::vector<Scalar> flat;
  for (Index i = 0; i < 16; ++i) {
    const auto row = data.data[i];
    flat.insert(flat.end(), row.begin(), row.end());
  }
  online.InsertBatch(flat);
  EXPECT_EQ(online.alive(), 4);
  EXPECT_EQ(online.stats().evicted, 12);
  online.Refresh();  // refresh over a nearly empty window is fine
  // An empty batch is a no-op.
  EXPECT_TRUE(online.InsertBatch({}).empty());
  EXPECT_EQ(online.size(), 16);
}

TEST(StreamTest, DuplicateInsertsShareACluster) {
  LabeledData data = Workload(240);
  OnlineAlidOptions opts = Options(data);
  OnlineAlid online(data.data.dim(), opts);
  for (Index i = 0; i < data.size(); ++i) online.Insert(data.data[i]);
  online.Refresh();
  ASSERT_GT(online.clusters().size(), 0u);
  // Feed an exact duplicate of an already-clustered item: it must land in
  // the same cluster as its twin (it sits exactly at the density).
  Index clustered = -1;
  for (Index i = 0; i < data.size(); ++i) {
    if (online.ClusterOf(i) >= 0) {
      clustered = i;
      break;
    }
  }
  ASSERT_GE(clustered, 0);
  const int twin_cluster = online.ClusterOf(clustered);
  const Index dup = online.Insert(data.data[clustered]);
  EXPECT_GE(online.ClusterOf(dup), 0) << "duplicate not absorbed";
  EXPECT_EQ(online.ClusterOf(dup), online.ClusterOf(clustered));
  EXPECT_EQ(online.ClusterOf(clustered), twin_cluster);
}

TEST(StreamTest, MidBatchAbsorptionClaimsLaterArrivals) {
  // A batch of near-identical points next to an existing cluster: the first
  // arrival's local re-detection absorbs the still-unassigned later ones,
  // so their own apply step must notice the slot is already claimed instead
  // of re-detecting from a seed another cluster owns.
  LabeledData data = Workload(240);
  OnlineAlidOptions opts = Options(data);
  OnlineAlid online(data.data.dim(), opts);
  for (Index i = 0; i < data.size(); ++i) online.Insert(data.data[i]);
  online.Refresh();
  ASSERT_GT(online.clusters().size(), 0u);
  Index member = -1;
  for (Index i = 0; i < data.size(); ++i) {
    if (online.ClusterOf(i) >= 0) {
      member = i;
      break;
    }
  }
  ASSERT_GE(member, 0);
  const int64_t before = online.stats().absorbed;
  std::vector<Scalar> batch;
  for (int copy = 0; copy < 6; ++copy) {
    const auto row = data.data[member];
    batch.insert(batch.end(), row.begin(), row.end());
  }
  const std::vector<Index> slots = online.InsertBatch(batch);
  for (Index slot : slots) {
    EXPECT_GE(online.ClusterOf(slot), 0) << "duplicate not absorbed";
    EXPECT_EQ(online.ClusterOf(slot), online.ClusterOf(member));
  }
  EXPECT_EQ(online.stats().absorbed, before + 6);
  // Out-of-universe slots answer -1 instead of reading past the arrays.
  EXPECT_EQ(online.ClusterOf(online.size() + 1000), -1);
  EXPECT_FALSE(online.IsAlive(online.size() + 1000));
}

TEST(StreamTest, RemoveThenReinsertReusesTheSlot) {
  LabeledData data = Workload(150);
  OnlineAlidOptions opts = Options(data);
  opts.window = 50;
  opts.refresh_interval = 40;
  OnlineAlid online(data.data.dim(), opts);
  for (Index i = 0; i < 60; ++i) online.Insert(data.data[i]);
  // Ten arrivals expired, and each expiry freed a slot the next arrival
  // re-used — so the slot universe is bounded at window + 1 even though the
  // stream saw 60 items.
  EXPECT_EQ(online.alive(), 50);
  EXPECT_EQ(online.stats().evicted, 10);
  Index free_slot = -1;
  for (Index s = 0; s < 51; ++s) {
    if (!online.IsAlive(s)) {
      free_slot = s;
      break;
    }
  }
  ASSERT_GE(free_slot, 0) << "one expired slot should be free";
  // The next arrival — a *different* point — re-uses that slot, and queries
  // against it are fresh (no stale identity, no stale cached affinities).
  const Index slot = online.Insert(data.data[100]);
  EXPECT_EQ(slot, free_slot);
  EXPECT_TRUE(online.IsAlive(slot));
  // Re-inserting an evicted point itself also works: it is a new arrival in
  // whatever slot expiry just freed.
  const Index again = online.Insert(data.data[1]);
  EXPECT_TRUE(online.IsAlive(again));
  EXPECT_LE(again, 51);
  EXPECT_EQ(online.size(), 62);
}

TEST(StreamTest, RefreshIntervalBoundary) {
  LabeledData data = Workload(200);
  OnlineAlidOptions opts = Options(data);
  opts.refresh_interval = 32;
  {
    OnlineAlid online(data.data.dim(), opts);
    for (Index i = 0; i < 31; ++i) online.Insert(data.data[i]);
    EXPECT_EQ(online.stats().refreshes, 0);
    online.Insert(data.data[31]);  // the 32nd arrival crosses the boundary
    EXPECT_EQ(online.stats().refreshes, 1);
  }
  {
    // The boundary also fires *inside* a batch: one batch of 40 arrivals
    // refreshes exactly once, after its 32nd item.
    OnlineAlid online(data.data.dim(), opts);
    std::vector<Scalar> flat;
    for (Index i = 0; i < 40; ++i) {
      const auto row = data.data[i];
      flat.insert(flat.end(), row.begin(), row.end());
    }
    online.InsertBatch(flat);
    EXPECT_EQ(online.stats().refreshes, 1);
    // 24 more arrivals complete the second interval.
    flat.clear();
    for (Index i = 40; i < 64; ++i) {
      const auto row = data.data[i];
      flat.insert(flat.end(), row.begin(), row.end());
    }
    online.InsertBatch(flat);
    EXPECT_EQ(online.stats().refreshes, 2);
  }
}

TEST(StreamTest, BatchInsertMatchesSingleInsertStats) {
  // Batches of one are the single-arrival path: the whole stream fed one
  // item at a time must equal the same stream fed as InsertBatch of 1.
  LabeledData data = Workload(260);
  OnlineAlidOptions opts = Options(data);
  opts.window = 150;
  std::unique_ptr<OnlineAlid> batched = RunStream(data, opts, 1);
  auto single = std::make_unique<OnlineAlid>(data.data.dim(), opts);
  Rng rng(5);
  for (Index i : rng.Permutation(data.size())) {
    single->Insert(data.data[i]);
  }
  single->Refresh();
  ExpectIdenticalStreams(*batched, *single);
}

TEST(StreamTest, StatsCountersAddUp) {
  LabeledData data = Workload(300);
  OnlineAlidOptions opts = Options(data);
  opts.window = 180;
  std::unique_ptr<OnlineAlid> online = RunStream(data, opts, 50);
  const StreamStats& s = online->stats();
  EXPECT_EQ(s.arrivals, 300);
  EXPECT_EQ(s.absorbed + s.pooled, s.arrivals);
  EXPECT_EQ(s.alive, online->alive());
  EXPECT_EQ(s.clusters_alive, static_cast<int>(online->clusters().size()));
  EXPECT_EQ(s.batch_seconds.size(), 6u);  // 300 arrivals / batches of 50
  const std::vector<int> histogram = online->stats().LatencyHistogram(4);
  int total = 0;
  for (int bin : histogram) total += bin;
  EXPECT_EQ(total, 6);
}

}  // namespace
}  // namespace alid

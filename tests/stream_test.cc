// Tests of the streaming runtime (windowed OnlineAlid): bit-identical
// stream state whatever pool the stream is handed (it posts no job to it),
// an executor-independent kernel-evaluation count, and the streaming edge
// cases (empty window, duplicate inserts, remove-then-reinsert,
// refresh-interval boundaries).
#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/online_alid.h"
#include "data/synthetic.h"
#include "shard/sharded_stream.h"
#include "test_util.h"

namespace alid {
namespace {

LabeledData Workload(Index n = 420, uint64_t seed = 91,
                     bool overlap = false) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 10;
  cfg.num_clusters = 4;
  cfg.omega = 0.6;
  cfg.mean_box = 300.0;
  cfg.overlap_clusters = overlap;
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
    ThreadPool pool(executors);
    OnlineAlidOptions parallel = opts;
    parallel.pool = &pool;
    std::unique_ptr<OnlineAlid> streamed = RunStream(data, parallel, batch);
    SCOPED_TRACE(testing::Message() << "executors=" << executors);
    ExpectIdenticalStreams(*serial, *streamed);
    ExpectIdenticalSlots(*serial, *streamed, opts.window + batch);
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
  // A batch of near-identical points next to an existing cluster: every
  // arrival targets the same cluster, so the batch coalesces into ONE warm
  // re-detection that absorbs all six newcomers at once.
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
  const int64_t redetections_before = online.stats().redetections;
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
  EXPECT_EQ(online.stats().redetections, redetections_before + 1);
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
    // A batch that crosses the boundary refreshes at batch end: one batch
    // of 40 arrivals refreshes exactly once and carries 8 arrivals over.
    OnlineAlid online(data.data.dim(), opts);
    std::vector<Scalar> flat;
    for (Index i = 0; i < 40; ++i) {
      const auto row = data.data[i];
      flat.insert(flat.end(), row.begin(), row.end());
    }
    online.InsertBatch(flat);
    EXPECT_EQ(online.stats().refreshes, 1);
    // 24 more arrivals complete the second interval (8 + 24 = 32).
    flat.clear();
    for (Index i = 40; i < 64; ++i) {
      const auto row = data.data[i];
      flat.insert(flat.end(), row.begin(), row.end());
    }
    online.InsertBatch(flat);
    EXPECT_EQ(online.stats().refreshes, 2);
  }
}

int64_t RegistryValue(const OnlineAlid& online, const std::string& name) {
  for (const obs::MetricSample& sample : online.metrics().Snapshot()) {
    if (sample.name == name) return sample.value;
  }
  ADD_FAILURE() << "no registry metric " << name;
  return -1;
}

TEST(StreamTest, PhaseEntryCountersAreExactAcrossExecutors) {
  // redetect_entries / refresh_entries attribute the oracle's kernel
  // evaluations to the warm re-detections and the refresh passes. Each is
  // an exact delta, so it is a deterministic function of the stream, and
  // together they never exceed the oracle's total.
  LabeledData data = Workload();
  OnlineAlidOptions opts = Options(data);
  opts.window = 260;
  std::unique_ptr<OnlineAlid> serial = RunStream(data, opts, 37);
  const int64_t redetect = RegistryValue(*serial, "redetect_entries");
  const int64_t refresh = RegistryValue(*serial, "refresh_entries");
  EXPECT_GT(redetect, 0);
  EXPECT_GT(refresh, 0);
  EXPECT_LE(redetect + refresh, serial->oracle().entries_computed());
  ThreadPool pool(4);
  opts.pool = &pool;
  std::unique_ptr<OnlineAlid> parallel = RunStream(data, opts, 37);
  EXPECT_EQ(RegistryValue(*parallel, "redetect_entries"), redetect);
  EXPECT_EQ(RegistryValue(*parallel, "refresh_entries"), refresh);
}

// Outside reference for a refresh pass: the paper's serial peel (Section
// 4.4) driven through AlidDetector on the stream's own oracle and LSH index,
// starting from the stream's current clusters. Two explicit masks carry the
// pass: `expired` marks the slots outside the window, `peeled` every item no
// seed may start from (expired or owned when the pass starts, or in a
// support detected during it). Seeds go in ascending slot order; each
// support is peeled before the next seed; a kept cluster whose cross density
// pi(x_new, x_e) with an earlier one (the stream's or one of this pass)
// reaches the threshold is re-detected from its seed over everything the
// other clusters do not own, and replaces that one on success. The members
// of the replaced cluster that the merged support drops stay peeled.
// `merges` (optional) counts the successful merges into the stream's own
// clusters.
std::vector<Cluster> ReferencePeel(const OnlineAlid& online,
                                   int* merges = nullptr) {
  const AlidOptions& alid = online.options().alid;
  const LazyAffinityOracle& oracle = online.oracle();
  const AlidDetector detector(oracle, online.lsh(), alid);
  const auto kept = [&](const Cluster& c) {
    return c.density >= alid.density_threshold &&
           static_cast<int>(c.members.size()) >= kMinClusterSize;
  };
  const Index slots = oracle.size();
  std::vector<bool> expired(slots, false);
  std::vector<bool> peeled(slots, false);
  for (Index i = 0; i < slots; ++i) {
    expired[i] = !online.IsAlive(i);
    peeled[i] = expired[i] || online.ClusterOf(i) >= 0;
  }
  std::vector<Cluster> clusters = online.clusters();
  for (Index seed = 0; seed < slots; ++seed) {
    if (peeled[seed]) continue;
    Cluster c = detector.DetectOne(seed, &peeled);
    for (Index i : c.members) peeled[i] = true;
    if (!kept(c)) continue;
    bool merged = false;
    for (size_t e = 0; e < clusters.size() && !merged; ++e) {
      const Cluster& old = clusters[e];
      // The stream's fixed-grain pair sum, so the threshold test sees the
      // same bits.
      const Scalar cross = ParallelSum(
          nullptr, 0, static_cast<int64_t>(c.members.size()), 0,
          [&](int64_t lo, int64_t hi) {
            Scalar partial = 0.0;
            for (int64_t a = lo; a < hi; ++a) {
              for (size_t b = 0; b < old.members.size(); ++b) {
                partial += c.weights[a] * old.weights[b] *
                           oracle.Entry(c.members[a], old.members[b]);
              }
            }
            return partial;
          });
      if (cross < alid.density_threshold) continue;
      std::vector<bool> owned_elsewhere = expired;
      for (size_t o = 0; o < clusters.size(); ++o) {
        if (o == e) continue;
        for (Index i : clusters[o].members) owned_elsewhere[i] = true;
      }
      Cluster both = detector.DetectOne(c.seed, &owned_elsewhere);
      if (kept(both)) {
        for (Index i : both.members) peeled[i] = true;
        clusters[e] = std::move(both);
        merged = true;
        if (merges != nullptr && e < online.clusters().size()) ++*merges;
      }
      break;  // a failed merge installs the new cluster as-is
    }
    if (!merged) clusters.push_back(std::move(c));
  }
  return clusters;
}

TEST(StreamTest, RefreshIsTheSerialPeel) {
  // With no clusters yet and the refresh interval out of reach, every
  // arrival is pooled; the forced Refresh() must then install exactly the
  // reference peel's clusters and spend exactly its kernel evaluations.
  for (uint64_t seed : {91u, 17u, 53u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    LabeledData data = Workload(420, seed);
    OnlineAlidOptions opts = Options(data);
    opts.refresh_interval = data.size() + 1;
    OnlineAlid online(data.data.dim(), opts);
    Rng rng(5);
    const auto order = rng.Permutation(data.size());
    for (Index pos = 0; pos < data.size(); pos += 64) {
      std::vector<Scalar> flat;
      for (Index k = pos; k < std::min<Index>(pos + 64, data.size()); ++k) {
        const auto row = data.data[order[k]];
        flat.insert(flat.end(), row.begin(), row.end());
      }
      online.InsertBatch(flat);
    }
    ASSERT_TRUE(online.clusters().empty());
    ASSERT_EQ(online.stats().pooled, data.size());

    const int64_t before = online.oracle().entries_computed();
    DetectionResult expected;
    expected.clusters = ReferencePeel(online);
    const int64_t reference_entries =
        online.oracle().entries_computed() - before;
    ASSERT_FALSE(expected.clusters.empty());

    const int64_t refresh_before = online.oracle().entries_computed();
    online.Refresh();
    DetectionResult actual;
    actual.clusters = online.clusters();
    ExpectIdenticalDetections(expected, actual);
    EXPECT_EQ(online.oracle().entries_computed() - refresh_before,
              reference_entries);
    EXPECT_EQ(RegistryValue(online, "refresh_entries"), reference_entries);
  }
}

// Streams the rows `order` of `data` into `online` in batches of 24.
void InsertInBatches(OnlineAlid& online, const LabeledData& data,
                     std::span<const Index> order) {
  for (size_t pos = 0; pos < order.size(); pos += 24) {
    std::vector<Scalar> flat;
    for (size_t k = pos; k < std::min(pos + 24, order.size()); ++k) {
      const auto row = data.data[order[k]];
      flat.insert(flat.end(), row.begin(), row.end());
    }
    online.InsertBatch(flat);
  }
}

TEST(StreamTest, RefreshOverExistingClustersIsTheSerialPeel) {
  // A windowed stream over overlapping planted clusters, with a forced
  // Refresh() after every 72 arrivals and the refresh interval out of reach:
  // each pass starts from the stream's clusters and must install exactly
  // the reference peel's clusters and spend exactly its kernel evaluations.
  // Overlapping pairs make pool clusters merge into existing ones, and a
  // merged support can drop members of the cluster it replaces.
  int merges = 0;
  for (uint64_t seed : {91u, 17u, 53u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    LabeledData data = Workload(600, seed, /*overlap=*/true);
    OnlineAlidOptions opts = Options(data);
    opts.refresh_interval = data.size() + 1;
    opts.window = 240;
    OnlineAlid online(data.data.dim(), opts);
    Rng rng(7);
    const auto order = rng.Permutation(data.size());
    for (size_t pos = 0; pos < order.size(); pos += 72) {
      const size_t count = std::min<size_t>(72, order.size() - pos);
      InsertInBatches(online, data,
                      std::span<const Index>(order).subspan(pos, count));
      const int64_t before = online.oracle().entries_computed();
      DetectionResult expected;
      expected.clusters = ReferencePeel(online, &merges);
      const int64_t reference_entries =
          online.oracle().entries_computed() - before;
      const int64_t refresh_before = RegistryValue(online, "refresh_entries");
      online.Refresh();
      DetectionResult actual;
      actual.clusters = online.clusters();
      ExpectIdenticalDetections(expected, actual);
      EXPECT_EQ(RegistryValue(online, "refresh_entries") - refresh_before,
                reference_entries);
    }
  }
  // Not vacuous: some pass merged into a cluster that predates it.
  EXPECT_GT(merges, 0);
}

TEST(StreamTest, SingleStreamPostsNoPoolJobs) {
  // ThreadPool work is whole detections, whole shards and query points: a
  // stream batch runs on its calling thread, so a stream handed a pool
  // posts no job to it through absorbs, expiry and forced refreshes that
  // merge. A 2-shard ShardedStream on the same pool still runs its shards
  // there.
  ThreadPool pool(4);
  LabeledData data = Workload(600, 91, /*overlap=*/true);
  OnlineAlidOptions opts = Options(data);
  opts.refresh_interval = data.size() + 1;
  opts.window = 240;
  opts.pool = &pool;
  OnlineAlid online(data.data.dim(), opts);
  pool.Wait();
  const int64_t before = pool.tasks_executed();
  int merges = 0;
  Rng rng(7);
  const auto order = rng.Permutation(data.size());
  for (size_t pos = 0; pos < order.size(); pos += 72) {
    const size_t count = std::min<size_t>(72, order.size() - pos);
    InsertInBatches(online, data,
                    std::span<const Index>(order).subspan(pos, count));
    ReferencePeel(online, &merges);  // counts the merges Refresh() makes
    online.Refresh();
  }
  pool.Wait();
  EXPECT_EQ(pool.tasks_executed(), before);
  EXPECT_GT(online.stats().absorbed, 0);
  EXPECT_GT(online.stats().evicted, 0);
  EXPECT_GT(merges, 0);

  ShardedStreamOptions sharded_opts;
  sharded_opts.base = opts;
  sharded_opts.num_shards = 2;
  ShardedStream sharded(data.data.dim(), sharded_opts);
  std::vector<Scalar> flat;
  for (Index i = 0; i < 48; ++i) {
    const auto row = data.data[order[static_cast<size_t>(i)]];
    flat.insert(flat.end(), row.begin(), row.end());
  }
  sharded.InsertBatch(flat);
  pool.Wait();
  EXPECT_GT(pool.tasks_executed(), before);
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
  const std::vector<obs::MetricSample> samples = online->metrics().Snapshot();
  const auto ingest = std::find_if(
      samples.begin(), samples.end(),
      [](const obs::MetricSample& m) { return m.name == "ingest_seconds"; });
  ASSERT_NE(ingest, samples.end());
  EXPECT_EQ(ingest->count, 6);  // 300 arrivals / batches of 50
}

TEST(OnlineAlidDeathTest, ConstructorRejectsNonPositiveDim) {
  // The dim contract is checked at construction, not first use: a stream
  // wired to the wrong config dies here instead of at its first Insert.
  EXPECT_DEATH(OnlineAlid(0, {}), "dim > 0");
  EXPECT_DEATH(OnlineAlid(-1, {}), "dim > 0");
}

}  // namespace
}  // namespace alid

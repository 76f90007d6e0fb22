// Contracts of the sharded runtime (src/shard/): S == 1 is bit-identical to
// a plain OnlineAlid, a fixed shard count is bit-identical across executor
// counts and schedules (the partition is a pure function of the
// stream, never of the schedule), the router's fan-out merge equals the
// serial per-shard merge with the ascending-(shard, cluster) tie-break over
// the generation's one cluster-id space, a hot publisher never tears a
// response across generations (the TSan claim), the empty-shard / hot-spot
// / offline / stale-generation edges, as-of queries and GenerationDiff
// across shards, and the boundary-cluster report (cross-shard LSH
// collisions with exact cross densities, checked against keys re-hashed
// from the block rows), the fan-out that hashes a point once for every
// shard, and Publish's refusal of shards that hash differently.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/online_alid.h"
#include "affinity/affinity_function.h"
#include "data/synthetic.h"
#include "lsh/lsh_index.h"
#include "serve/cluster_snapshot.h"
#include "shard/shard_router.h"
#include "shard/sharded_stream.h"
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

OnlineAlidOptions BaseOptions(const LabeledData& data) {
  OnlineAlidOptions opts;
  opts.affinity = {.k = data.suggested_k, .p = 2.0};
  opts.lsh.segment_length = data.suggested_lsh_r;
  opts.refresh_interval = 96;
  return opts;
}

// Streams `data` in a fixed shuffled order as batches of `batch`; the
// returned slot log is the concatenated InsertBatch answers.
std::unique_ptr<OnlineAlid> RunPlain(const LabeledData& data,
                                     OnlineAlidOptions opts, Index batch,
                                     std::vector<Index>* slot_log = nullptr) {
  auto online = std::make_unique<OnlineAlid>(data.data.dim(), opts);
  Rng rng(5);
  const auto order = rng.Permutation(data.size());
  std::vector<Scalar> flat;
  const auto flush = [&] {
    if (flat.empty()) return;
    const std::vector<Index> slots = online->InsertBatch(flat);
    if (slot_log != nullptr) {
      slot_log->insert(slot_log->end(), slots.begin(), slots.end());
    }
    flat.clear();
  };
  for (Index pos = 0; pos < data.size(); ++pos) {
    const auto row = data.data[order[pos]];
    if (static_cast<Index>(flat.size()) / data.data.dim() == batch) flush();
    flat.insert(flat.end(), row.begin(), row.end());
  }
  flush();
  online->Refresh();
  return online;
}

// The sharded twin of RunPlain: identical arrival order and batch splits.
std::unique_ptr<ShardedStream> RunSharded(
    const LabeledData& data, ShardedStreamOptions opts, Index batch,
    std::vector<ShardSlot>* slot_log = nullptr) {
  auto stream = std::make_unique<ShardedStream>(data.data.dim(), opts);
  Rng rng(5);
  const auto order = rng.Permutation(data.size());
  std::vector<Scalar> flat;
  const auto flush = [&] {
    if (flat.empty()) return;
    const std::vector<ShardSlot> slots = stream->InsertBatch(flat);
    if (slot_log != nullptr) {
      slot_log->insert(slot_log->end(), slots.begin(), slots.end());
    }
    flat.clear();
  };
  for (Index pos = 0; pos < data.size(); ++pos) {
    const auto row = data.data[order[pos]];
    if (static_cast<Index>(flat.size()) / data.data.dim() == batch) flush();
    flat.insert(flat.end(), row.begin(), row.end());
  }
  flush();
  stream->Refresh();
  return stream;
}

// Full structural equality of two OnlineAlid states (the stream_test
// contract: clusters in order, counters, liveness).
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
}

// The smallest key routing to `shard` — explicit-key ingest for the tests
// that force placements.
uint64_t KeyForShard(const ShardedStream& stream, int shard) {
  for (uint64_t k = 0;; ++k) {
    if (stream.ShardOf(k) == shard) return k;
  }
}

// First generation-wide cluster id of shard `s`: shard s's clusters take
// the ids that follow shard s-1's.
int ClusterOffset(const ServedGeneration& gen, int s) {
  int offset = 0;
  for (int t = 0; t < s; ++t) offset += gen.shards[t]->num_clusters();
  return offset;
}

// A Gaussian blob around `center`, flattened row-major.
std::vector<Scalar> Blob(const std::vector<Scalar>& center, Index n,
                         double spread, uint64_t seed) {
  Rng rng(seed);
  std::vector<Scalar> flat;
  flat.reserve(static_cast<size_t>(n) * center.size());
  for (Index i = 0; i < n; ++i) {
    for (const Scalar c : center) flat.push_back(c + rng.Gaussian() * spread);
  }
  return flat;
}

OnlineAlidOptions BlobOptions(int dim, double spread) {
  const double intra = std::sqrt(2.0 * static_cast<double>(dim)) * spread;
  OnlineAlidOptions opts;
  opts.affinity = {.k = -std::log(0.9) / intra, .p = 2.0};
  opts.lsh.segment_length = 3.0 * intra;
  return opts;
}

TEST(ShardTest, SingleShardIsBitIdenticalToPlainStream) {
  LabeledData data = Workload();
  OnlineAlidOptions base = BaseOptions(data);
  base.window = 260;  // evictions + repairs happen mid-stream
  const Index batch = 37;

  std::vector<Index> plain_slots;
  std::unique_ptr<OnlineAlid> plain =
      RunPlain(data, base, batch, &plain_slots);
  ASSERT_GT(plain->clusters().size(), 0u);
  ASSERT_GT(plain->stats().evicted, 0);

  // Serial and pooled sharded runs both reduce to the plain stream, slots
  // included (S == 1 bypasses hashing and gather/scatter entirely).
  for (int executors : {0, 8}) {
    std::unique_ptr<ThreadPool> pool;
    if (executors > 0) pool = std::make_unique<ThreadPool>(executors);
    ShardedStreamOptions opts;
    opts.base = base;
    opts.base.pool = pool.get();
    opts.num_shards = 1;
    std::vector<ShardSlot> slots;
    std::unique_ptr<ShardedStream> sharded =
        RunSharded(data, opts, batch, &slots);
    SCOPED_TRACE(testing::Message() << "executors=" << executors);
    ExpectIdenticalStreams(*plain, sharded->shard(0));
    ASSERT_EQ(slots.size(), plain_slots.size());
    for (size_t i = 0; i < slots.size(); ++i) {
      EXPECT_EQ(slots[i], (ShardSlot{0, plain_slots[i]})) << "arrival " << i;
    }
    EXPECT_EQ(sharded->size(), plain->size());
    EXPECT_EQ(sharded->alive(), plain->alive());
  }
}

TEST(ShardTest, SingleShardRouterMatchesDirectSnapshot) {
  LabeledData data = Workload(360, 17);
  ShardedStreamOptions opts;
  opts.base = BaseOptions(data);
  opts.num_shards = 1;
  std::unique_ptr<ShardedStream> stream = RunSharded(data, opts, 45);

  ShardRouter router(data.data.dim(), 1);
  const uint64_t gen = router.PublishFromStream(*stream);
  EXPECT_EQ(gen, static_cast<uint64_t>(stream->size()));

  const auto direct = ClusterSnapshot::FromStream(stream->shard(0));
  std::vector<Scalar> queries;
  for (Index i = 0; i < 60; ++i) {
    const auto row = data.data[i];
    queries.insert(queries.end(), row.begin(), row.end());
  }
  const QueryResponse response = router.Query({.points = queries});
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.assignments.size(), 60u);
  const int shard0_clusters = router.snapshot()->shards[0]->num_clusters();
  for (Index i = 0; i < 60; ++i) {
    const QueryOutcome expected = direct->Assign(data.data[i]);
    const QueryOutcome& got = response.assignments[static_cast<size_t>(i)];
    EXPECT_EQ(got.cluster, expected.cluster) << "point " << i;
    EXPECT_EQ(got.affinity, expected.affinity) << "point " << i;
    EXPECT_EQ(got.margin, expected.margin) << "point " << i;
    EXPECT_EQ(got.generation, gen);
    if (got.cluster >= 0) {
      // Shard 0's id range is [0, its cluster count): offset 0.
      EXPECT_LT(got.cluster, shard0_clusters) << "point " << i;
    }
  }
}

TEST(ShardTest, FixedShardCountIsBitIdenticalAcrossSchedules) {
  LabeledData data = Workload();
  OnlineAlidOptions base = BaseOptions(data);
  base.window = 260;
  const Index batch = 37;
  const int num_shards = 4;

  ShardedStreamOptions serial;
  serial.base = base;
  serial.num_shards = num_shards;
  std::vector<ShardSlot> baseline_slots;
  std::unique_ptr<ShardedStream> baseline =
      RunSharded(data, serial, batch, &baseline_slots);
  // The partition actually spread the stream (otherwise this test collapses
  // to the S == 1 one).
  int populated = 0;
  for (int s = 0; s < num_shards; ++s) {
    populated += baseline->shard(s).size() > 0 ? 1 : 0;
  }
  ASSERT_EQ(populated, num_shards);

  for (int executors : {1, 8}) {
    ThreadPool pool(executors);
    ShardedStreamOptions opts = serial;
    opts.base.pool = &pool;
    std::vector<ShardSlot> slots;
    std::unique_ptr<ShardedStream> streamed =
        RunSharded(data, opts, batch, &slots);
    SCOPED_TRACE(testing::Message() << "executors=" << executors);
    EXPECT_EQ(slots, baseline_slots);
    for (int s = 0; s < num_shards; ++s) {
      SCOPED_TRACE(testing::Message() << "shard=" << s);
      ExpectIdenticalStreams(baseline->shard(s), streamed->shard(s));
    }
  }
}

TEST(ShardTest, RouterMergeMatchesSerialPerShardMerge) {
  LabeledData data = Workload(400, 7);
  ShardedStreamOptions opts;
  opts.base = BaseOptions(data);
  opts.num_shards = 3;
  std::unique_ptr<ShardedStream> stream = RunSharded(data, opts, 50);

  ThreadPool pool(4);
  ShardRouter router(data.data.dim(), 3, {.pool = &pool});
  const uint64_t gen = router.PublishFromStream(*stream);
  const auto pinned = router.snapshot();
  ASSERT_NE(pinned, nullptr);

  const Index num_queries = 80;
  std::vector<Scalar> queries;
  for (Index i = 0; i < num_queries; ++i) {
    const auto row = data.data[i];
    queries.insert(queries.end(), row.begin(), row.end());
  }

  // Shard s's clusters take the generation-wide ids [offset[s],
  // offset[s + 1]).
  std::vector<int> offset{0};
  for (int s = 0; s < 3; ++s) {
    offset.push_back(offset.back() + pinned->shards[s]->num_clusters());
  }

  const QueryResponse response = router.Query({.points = queries});
  ASSERT_TRUE(response.ok());
  for (Index i = 0; i < num_queries; ++i) {
    // The reference merge: serial per-shard Assign, strictly-greater margin
    // replacement (equal margins keep the earliest shard).
    QueryOutcome expected;
    int expected_shard = -1;
    for (int s = 0; s < 3; ++s) {
      const QueryOutcome outcome = pinned->shards[s]->Assign(data.data[i]);
      if (outcome.cluster < 0) continue;
      if (expected.cluster < 0 || outcome.margin > expected.margin) {
        expected = outcome;
        expected_shard = s;
      }
    }
    const QueryOutcome& got = response.assignments[static_cast<size_t>(i)];
    EXPECT_EQ(got.generation, gen) << "point " << i;
    if (expected_shard < 0) {
      EXPECT_EQ(got, (QueryOutcome{.generation = gen})) << "point " << i;
      continue;
    }
    // The id lies in the winning shard's range, and the local id, affinity
    // and margin are that shard's answer.
    EXPECT_GE(got.cluster, offset[expected_shard]) << "point " << i;
    EXPECT_LT(got.cluster, offset[expected_shard + 1]) << "point " << i;
    EXPECT_EQ(got.cluster - offset[expected_shard], expected.cluster)
        << "point " << i;
    EXPECT_EQ(got.affinity, expected.affinity) << "point " << i;
    EXPECT_EQ(got.margin, expected.margin) << "point " << i;
  }

  // Ranked fan-out: concatenation of the per-shard rankings under the
  // (affinity desc, shard asc, cluster asc) total order, truncated, then
  // named by offset ids.
  const int top_k = 3;
  const QueryResponse ranked =
      router.Query({.points = queries, .top_k = top_k});
  ASSERT_TRUE(ranked.ok());
  struct Tagged {
    ScoredCluster scored;
    int shard;
  };
  for (Index i = 0; i < num_queries; ++i) {
    std::vector<Tagged> tagged;
    for (int s = 0; s < 3; ++s) {
      for (const ScoredCluster& sc :
           pinned->shards[s]->TopKClusters(data.data[i], top_k)) {
        tagged.push_back({sc, s});
      }
    }
    std::sort(tagged.begin(), tagged.end(),
              [](const Tagged& a, const Tagged& b) {
                if (a.scored.affinity != b.scored.affinity) {
                  return a.scored.affinity > b.scored.affinity;
                }
                if (a.shard != b.shard) return a.shard < b.shard;
                return a.scored.cluster < b.scored.cluster;
              });
    if (static_cast<int>(tagged.size()) > top_k) {
      tagged.resize(static_cast<size_t>(top_k));
    }
    std::vector<ScoredCluster> expected;
    for (Tagged& t : tagged) {
      t.scored.cluster += offset[t.shard];
      t.scored.generation = gen;
      expected.push_back(t.scored);
    }
    EXPECT_EQ(ranked.ranked[static_cast<size_t>(i)], expected)
        << "point " << i;
  }

  // The fan-out counter counts count x shards sub-queries per request.
  bool fanout_seen = false;
  for (const obs::MetricSample& sample : router.metrics().Snapshot()) {
    if (sample.name == "shard_fanout_queries") {
      fanout_seen = true;
      EXPECT_EQ(sample.value, static_cast<int64_t>(2 * num_queries * 3));
    }
  }
  EXPECT_TRUE(fanout_seen);
}

TEST(ShardTest, MergePrefersLowestShardOnExactTies) {
  const int dim = 6;
  const double spread = 1.0;
  ShardedStreamOptions opts;
  opts.base = BlobOptions(dim, spread);
  opts.num_shards = 2;
  ShardedStream stream(dim, opts);

  // The SAME blob into both shards (explicit keys): two bit-identical
  // clusters, so a center query ties exactly — the merge must keep shard 0.
  const std::vector<Scalar> center(dim, 10.0);
  const std::vector<Scalar> blob = Blob(center, 80, spread, 77);
  const std::vector<uint64_t> to0(80, KeyForShard(stream, 0));
  const std::vector<uint64_t> to1(80, KeyForShard(stream, 1));
  stream.InsertBatch(blob, to0);
  stream.InsertBatch(blob, to1);
  stream.Refresh();
  ASSERT_GT(stream.shard(0).clusters().size(), 0u);
  ASSERT_EQ(stream.shard(0).clusters().size(),
            stream.shard(1).clusters().size());

  ShardRouter router(dim, 2);
  router.PublishFromStream(stream);
  const QueryResponse response = router.Query({.points = center});
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.assignments.size(), 1u);
  const QueryOutcome& best = response.assignments[0];
  ASSERT_GE(best.cluster, 0);
  // The tie-break of the merge contract: shard 0's id range wins.
  const int shard1_offset = ClusterOffset(*router.snapshot(), 1);
  EXPECT_LT(best.cluster, shard1_offset);

  // Both tied candidates surface in the ranking, shard 0 first, and they
  // are the same local cluster of their shards.
  const QueryResponse ranked = router.Query({.points = center, .top_k = 2});
  ASSERT_EQ(ranked.ranked[0].size(), 2u);
  EXPECT_EQ(ranked.ranked[0][0].affinity, ranked.ranked[0][1].affinity);
  EXPECT_EQ(ranked.ranked[0][0].margin, ranked.ranked[0][1].margin);
  EXPECT_LT(ranked.ranked[0][0].cluster, shard1_offset);
  EXPECT_GE(ranked.ranked[0][1].cluster, shard1_offset);
  EXPECT_EQ(ranked.ranked[0][0].cluster,
            ranked.ranked[0][1].cluster - shard1_offset);
}

// The TSan claim: while one publisher hot-swaps sharded generations, every
// reader answers each whole request — every point, every shard — from
// exactly one published generation, and observes generations monotonically.
TEST(ShardTest, HotPublisherKeepsResponsesGenerationConsistent) {
  LabeledData data = Workload(480, 11);
  ShardedStreamOptions opts;
  opts.base = BaseOptions(data);
  opts.num_shards = 2;
  ShardedStream stream(data.data.dim(), opts);
  ShardRouter router(data.data.dim(), 2);

  const int dim = data.data.dim();
  std::vector<Scalar> queries;
  for (Index i = 0; i < 40; ++i) {
    const auto row = data.data[i];
    queries.insert(queries.end(), row.begin(), row.end());
  }

  // Seed one generation so readers never start offline.
  std::vector<Scalar> first;
  for (Index i = 0; i < 80; ++i) {
    const auto row = data.data[i];
    first.insert(first.end(), row.begin(), row.end());
  }
  stream.InsertBatch(first);
  std::vector<uint64_t> published{router.PublishFromStream(stream)};

  std::atomic<bool> torn{false};
  std::atomic<bool> non_monotonic{false};
  std::atomic<bool> bad_status{false};
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      uint64_t last_seen = 0;
      while (!done.load(std::memory_order_acquire)) {
        const QueryResponse r = router.Query({.points = queries});
        if (!r.ok()) {
          bad_status.store(true);
          continue;
        }
        for (const QueryOutcome& a : r.assignments) {
          if (a.generation != r.generation) torn.store(true);
        }
        if (r.generation < last_seen) non_monotonic.store(true);
        last_seen = r.generation;
      }
    });
  }
  // The single writer: ingest a batch, publish, repeat — generations climb
  // while the readers run.
  std::vector<Scalar> flat;
  for (Index pos = 80; pos < data.size(); ++pos) {
    const auto row = data.data[pos];
    flat.insert(flat.end(), row.begin(), row.end());
    if (flat.size() == static_cast<size_t>(40 * dim)) {
      stream.InsertBatch(flat);
      flat.clear();
      published.push_back(router.PublishFromStream(stream));
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  EXPECT_FALSE(torn.load());
  EXPECT_FALSE(non_monotonic.load());
  EXPECT_FALSE(bad_status.load());
  ASSERT_GE(published.size(), 4u);
  EXPECT_TRUE(std::is_sorted(published.begin(), published.end()));
  EXPECT_EQ(router.generation(), published.back());
}

TEST(ShardTest, EmptyShardsHotSpotAndStatusEdges) {
  const int dim = 6;
  ShardedStreamOptions opts;
  opts.base = BlobOptions(dim, 1.0);
  opts.num_shards = 4;
  ShardedStream stream(dim, opts);

  // Empty-batch ingest is a no-op.
  EXPECT_TRUE(stream.InsertBatch(std::span<const Scalar>{}).empty());

  // Hot spot: every arrival forced onto one shard, the rest stay empty.
  const int hot = 2;
  const std::vector<Scalar> center(dim, 5.0);
  const std::vector<Scalar> blob = Blob(center, 120, 1.0, 13);
  const std::vector<uint64_t> keys(120, KeyForShard(stream, hot));
  const std::vector<ShardSlot> slots = stream.InsertBatch(blob, keys);
  stream.Refresh();
  ASSERT_EQ(slots.size(), 120u);
  for (const ShardSlot& slot : slots) EXPECT_EQ(slot.shard, hot);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(stream.shard(s).size(), s == hot ? 120 : 0) << "shard " << s;
  }
  EXPECT_EQ(stream.size(), 120);
  EXPECT_EQ(stream.stats().arrivals, 120);

  ShardRouter router(dim, 4);
  // Offline before the first publish.
  const QueryResponse offline = router.Query({.points = center});
  EXPECT_EQ(offline.status, QueryStatus::kOffline);
  EXPECT_EQ(router.generation(), 0u);
  ExpectInvalidRequestsRejected(router, center);

  // Queries fan out over empty shards without harm; answers come from the
  // hot one.
  const uint64_t gen = router.PublishFromStream(stream);
  EXPECT_EQ(gen, 120u);
  const QueryResponse response = router.Query({.points = center});
  ASSERT_TRUE(response.ok());
  // The answer lies in the hot shard's id range (the empty shards before it
  // take no ids).
  const auto published = router.snapshot();
  const int cluster = response.assignments[0].cluster;
  ASSERT_GE(cluster, ClusterOffset(*published, hot));
  EXPECT_LT(cluster, ClusterOffset(*published, hot + 1));
  ExpectInvalidRequestsRejected(router, center);

  // Generation addressing: the current one answers, anything else is
  // unavailable (the router's default keeps no history ring).
  EXPECT_TRUE(router.Query({.points = center, .generation = gen}).ok());
  const QueryResponse stale =
      router.Query({.points = center, .generation = gen + 1});
  EXPECT_EQ(stale.status, QueryStatus::kGenerationUnavailable);
  EXPECT_NE(router.SnapshotAt(0), nullptr);
  EXPECT_NE(router.SnapshotAt(gen), nullptr);
  EXPECT_EQ(router.SnapshotAt(gen + 1), nullptr);

  // A nullptr publish takes the router offline again.
  router.Publish(nullptr);
  EXPECT_EQ(router.Query({.points = center}).status, QueryStatus::kOffline);
  EXPECT_EQ(router.generation(), 0u);
}

// The sharded ingest latency is one `ingest_seconds` observation per
// non-empty InsertBatch call, on the S == 1 fast path and on the fan-out
// path alike; an empty batch records nothing.
TEST(ShardTest, IngestLatencyIsOneObservationPerNonEmptyBatch) {
  LabeledData data = Workload(300, 17);
  for (int shards : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    ShardedStreamOptions opts;
    opts.base = BaseOptions(data);
    opts.num_shards = shards;
    std::unique_ptr<ShardedStream> stream = RunSharded(data, opts, 50);
    const auto ingest_count = [&] {
      for (const obs::MetricSample& m : stream->metrics().Snapshot()) {
        if (m.name == "ingest_seconds") return m.count;
      }
      ADD_FAILURE() << "no ingest_seconds histogram";
      return int64_t{-1};
    };
    EXPECT_EQ(ingest_count(), 6);  // 300 arrivals in batches of 50
    EXPECT_TRUE(stream->InsertBatch(std::span<const Scalar>{}).empty());
    EXPECT_EQ(ingest_count(), 6);
  }
}

// A sharded generation rides the server's history ring: with a capacity,
// a retired generation answers as-of exactly as it did when it was current,
// and GenerationDiff matches clusters by (shard, uid) although every
// shard's stream numbers its clusters from uid 1.
TEST(ShardTest, AsOfAndGenerationDiffAcrossShards) {
  LabeledData data = Workload(480, 23);
  ShardedStreamOptions opts;
  opts.base = BaseOptions(data);
  opts.num_shards = 3;
  ShardedStream stream(data.data.dim(), opts);
  ShardRouter router(data.data.dim(), 3, {.history_capacity = 4});

  const int dim = data.data.dim();
  std::vector<Scalar> probes;
  for (Index i = 0; i < 60; ++i) {
    const auto row = data.data[i];
    probes.insert(probes.end(), row.begin(), row.end());
  }

  // Publish after every batch, pinning each generation's answers while it
  // is current.
  std::vector<std::shared_ptr<const ServedGeneration>> pinned;
  std::vector<std::vector<QueryOutcome>> assigned;
  std::vector<std::vector<std::vector<ScoredCluster>>> ranked;
  const auto publish = [&] {
    const uint64_t gen = router.PublishFromStream(stream);
    pinned.push_back(router.snapshot());
    ASSERT_EQ(pinned.back()->generation, gen);
    assigned.push_back(router.Query({.points = probes}).assignments);
    ranked.push_back(router.Query({.points = probes, .top_k = 3}).ranked);
  };
  Rng rng(5);
  const auto order = rng.Permutation(data.size());
  std::vector<Scalar> flat;
  for (Index pos = 0; pos < data.size(); ++pos) {
    const auto row = data.data[order[pos]];
    flat.insert(flat.end(), row.begin(), row.end());
    if (flat.size() < static_cast<size_t>(60 * dim)) continue;
    stream.InsertBatch(flat);
    flat.clear();
    stream.Refresh();
    publish();
  }
  // Two localized tails forced onto shard 0: shards 1 and 2 keep their
  // clusters' (uid, version) verbatim.
  const std::vector<uint64_t> to_shard0(20, KeyForShard(stream, 0));
  for (int round = 0; round < 2; ++round) {
    for (Index q = 0; q < 20; ++q) {
      const auto row = data.data[q];
      for (int d = 0; d < dim; ++d) {
        flat.push_back(row[d] + rng.Gaussian() * 0.05);
      }
    }
    stream.InsertBatch(flat, to_shard0);
    flat.clear();
    publish();
  }
  const size_t n = pinned.size();
  ASSERT_EQ(n, 10u);
  EXPECT_EQ(router.stats().generations_retained, 4);

  // As-of answers, field for field: the four newest retired generations
  // are retained, older ones were evicted.
  bool beyond_shard0 = false;
  for (size_t g = 0; g + 1 < n; ++g) {
    const uint64_t gen = pinned[g]->generation;
    SCOPED_TRACE(testing::Message() << "generation " << gen);
    const QueryResponse asof =
        router.Query({.points = probes, .generation = gen});
    if (g + 5 < n) {
      EXPECT_EQ(asof.status, QueryStatus::kGenerationUnavailable);
      EXPECT_EQ(router.SnapshotAt(gen), nullptr);
      continue;
    }
    ASSERT_TRUE(asof.ok());
    EXPECT_EQ(asof.generation, gen);
    EXPECT_EQ(router.SnapshotAt(gen), pinned[g]);
    EXPECT_EQ(asof.assignments, assigned[g]);
    const QueryResponse asof_ranked =
        router.Query({.points = probes, .top_k = 3, .generation = gen});
    ASSERT_TRUE(asof_ranked.ok());
    EXPECT_EQ(asof_ranked.ranked, ranked[g]);
    for (const QueryOutcome& a : asof.assignments) {
      beyond_shard0 |= a.cluster >= ClusterOffset(*pinned[g], 1);
    }
  }
  // The as-of answers really span shards, not just shard 0's id range.
  EXPECT_TRUE(beyond_shard0);

  // GenerationDiff against the reference per-shard match, across the
  // tails.
  const ServedGeneration& from = *pinned[n - 3];
  const ServedGeneration& to = *pinned[n - 1];
  std::vector<int> births, deaths, drifted;
  int unchanged = 0;
  int shared_blocks = 0;
  bool uids_collide = false;
  for (int s = 0; s < 3; ++s) {
    const ClusterSnapshot& a = *from.shards[s];
    const ClusterSnapshot& b = *to.shards[s];
    for (int c = 0; c < b.num_clusters(); ++c) {
      int match = -1;
      for (int f = 0; f < a.num_clusters(); ++f) {
        if (a.cluster_uid(f) == b.cluster_uid(c)) match = f;
      }
      for (int t = 0; t < s; ++t) {
        const ClusterSnapshot& other = *to.shards[t];
        for (int o = 0; o < other.num_clusters(); ++o) {
          uids_collide |= other.cluster_uid(o) == b.cluster_uid(c);
        }
      }
      const int id = ClusterOffset(to, s) + c;
      if (match < 0) {
        births.push_back(id);
      } else if (a.cluster_version(match) == b.cluster_version(c)) {
        ++unchanged;
      } else {
        drifted.push_back(id);
      }
      for (const auto& block : a.blocks()) {
        shared_blocks += block == b.blocks()[c] ? 1 : 0;
      }
    }
    for (int f = 0; f < a.num_clusters(); ++f) {
      bool alive = false;
      for (int c = 0; c < b.num_clusters(); ++c) {
        alive |= a.cluster_uid(f) == b.cluster_uid(c);
      }
      if (!alive) deaths.push_back(ClusterOffset(from, s) + f);
    }
  }
  // The shards' uid spaces overlap, so a uid-only match would pair clusters
  // of different shards.
  EXPECT_TRUE(uids_collide);

  const GenerationDiffResult diff =
      router.GenerationDiff(from.generation, to.generation);
  ASSERT_TRUE(diff.ok);
  EXPECT_EQ(diff.unchanged, unchanged);
  // Unchanged clusters are exactly those whose arena blocks the two
  // generations share.
  EXPECT_EQ(diff.unchanged, shared_blocks);
  std::vector<int> got_births, got_deaths, got_drifted;
  for (const ClusterDrift& d : diff.births) got_births.push_back(d.cluster_to);
  for (const ClusterDrift& d : diff.deaths) {
    got_deaths.push_back(d.cluster_from);
  }
  const auto shard_of = [](const ServedGeneration& gen, int id) {
    int s = 0;
    while (id >= ClusterOffset(gen, s + 1)) ++s;
    return s;
  };
  for (const ClusterDrift& d : diff.drifted) {
    got_drifted.push_back(d.cluster_to);
    // A drifted cluster stays on its shard.
    EXPECT_EQ(shard_of(from, d.cluster_from), shard_of(to, d.cluster_to));
  }
  EXPECT_EQ(got_births, births);
  EXPECT_EQ(got_deaths, deaths);
  EXPECT_EQ(got_drifted, drifted);
  EXPECT_GT(diff.unchanged, 0);
}

TEST(ShardTest, BoundaryReportFindsSplitClustersOnly) {
  const int dim = 6;
  const double spread = 1.0;
  ShardedStreamOptions opts;
  opts.base = BlobOptions(dim, spread);
  opts.num_shards = 2;
  ShardedStream stream(dim, opts);
  const uint64_t key0 = KeyForShard(stream, 0);
  const uint64_t key1 = KeyForShard(stream, 1);

  // Blob A straddles the partition (alternating forced keys): each shard
  // detects its own half at the same location — the boundary case the
  // report exists for. Blob B lives far away on shard 0 only.
  const std::vector<Scalar> center_a(dim, 10.0);
  std::vector<Scalar> center_b(dim, 10.0);
  center_b[0] = 500.0;
  const std::vector<Scalar> blob_a = Blob(center_a, 160, spread, 21);
  std::vector<uint64_t> alternating(160);
  for (size_t i = 0; i < alternating.size(); ++i) {
    alternating[i] = i % 2 == 0 ? key0 : key1;
  }
  stream.InsertBatch(blob_a, alternating);
  const std::vector<Scalar> blob_b = Blob(center_b, 80, spread, 22);
  stream.InsertBatch(blob_b, std::vector<uint64_t>(80, key0));
  stream.Refresh();
  ASSERT_GT(stream.shard(0).clusters().size(), 0u);
  ASSERT_GT(stream.shard(1).clusters().size(), 0u);

  ShardRouter router(dim, 2);
  router.PublishFromStream(stream);
  const std::vector<BoundaryPair> report =
      router.BoundaryClusters(opts.base.affinity);

  // The split blob collides; the far blob never pairs across shards.
  ASSERT_FALSE(report.empty());
  const auto snapshot = router.snapshot();
  for (const BoundaryPair& pair : report) {
    EXPECT_EQ(pair.shard_a, 0);
    EXPECT_EQ(pair.shard_b, 1);
    EXPECT_GT(pair.shared_buckets, 0);
    EXPECT_GT(pair.cross_density, 0.0);
    // Both endpoints sit at blob A's location: the far cluster B cannot
    // share a bucket with anything on the other shard.
    for (const auto& [shard, cluster] :
         {std::pair<int, int>{pair.shard_a, pair.cluster_a},
          std::pair<int, int>{pair.shard_b, pair.cluster_b}}) {
      const ClusterBlock& block =
          *snapshot->shards[static_cast<size_t>(shard)]
               ->blocks()[static_cast<size_t>(cluster)];
      const Scalar x0 =
          stream.shard(shard).oracle().data()[block.source_ids[0]][0];
      EXPECT_LT(std::abs(x0 - center_a[0]), 50.0)
          << "pair endpoint is not at the split blob";
    }
  }
  // Deterministic: a pure function of the pinned snapshot.
  EXPECT_EQ(router.BoundaryClusters(opts.base.affinity), report);

  // The sharded instruments saw the hot/cold skew of this workload.
  bool hot_seen = false;
  for (const obs::MetricSample& sample : stream.metrics().Snapshot()) {
    if (sample.name == "hot_shard_arrivals") {
      hot_seen = true;
      EXPECT_GT(sample.value, 0);
    }
  }
  EXPECT_TRUE(hot_seen);
}

TEST(ShardTest, BoundaryReportMatchesRecomputedBucketKeys) {
  // Content-hash routing splits every planted cluster across the shards,
  // so many cross-shard pairs collide. Each pair's ids, shared bucket count
  // and cross density must equal a recomputation from the members' source
  // rows (unchanged since the publish): keys re-hashed out of the rows, not
  // the bucket keys the blocks carry, and LpDistance over the rows, not the
  // scorers' tiles.
  LabeledData data = Workload(420, 37);
  ShardedStreamOptions opts;
  opts.base = BaseOptions(data);
  opts.num_shards = 3;
  std::unique_ptr<ShardedStream> stream = RunSharded(data, opts, 48);
  ShardRouter router(data.data.dim(), opts.num_shards);
  router.PublishFromStream(*stream);
  const std::vector<BoundaryPair> report =
      router.BoundaryClusters(opts.base.affinity);
  ASSERT_FALSE(report.empty());

  const auto snapshot = router.snapshot();
  const LshIndex hasher(data.data.dim(), opts.base.lsh);
  const int tables = opts.base.lsh.num_tables;
  const auto row = [&](int s, const ClusterBlock& block, Index m) {
    return stream->shard(s).oracle().data()[block.source_ids[m]];
  };
  // buckets[s][c]: the distinct (table, key) buckets of shard s, cluster c.
  std::vector<std::vector<std::vector<BucketKey>>> buckets;
  for (int s = 0; s < opts.num_shards; ++s) {
    auto& per_cluster = buckets.emplace_back();
    for (const auto& block : snapshot->shards[s]->blocks()) {
      std::vector<BucketKey>& keys = per_cluster.emplace_back();
      std::vector<uint64_t> point_keys(static_cast<size_t>(tables));
      for (Index m = 0; m < block->count; ++m) {
        hasher.ComputePointKeys(row(s, *block, m), point_keys.data());
        for (int t = 0; t < tables; ++t) {
          keys.push_back({t, point_keys[static_cast<size_t>(t)]});
        }
      }
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    }
  }
  const AffinityFunction fn(opts.base.affinity);
  std::vector<BoundaryPair> expected;
  for (int sa = 0; sa < opts.num_shards; ++sa) {
    for (int ca = 0; ca < static_cast<int>(buckets[sa].size()); ++ca) {
      for (int sb = sa + 1; sb < opts.num_shards; ++sb) {
        for (int cb = 0; cb < static_cast<int>(buckets[sb].size()); ++cb) {
          std::vector<BucketKey> shared;
          std::set_intersection(buckets[sa][ca].begin(),
                                buckets[sa][ca].end(),
                                buckets[sb][cb].begin(),
                                buckets[sb][cb].end(),
                                std::back_inserter(shared));
          if (shared.empty()) continue;
          const ClusterBlock& a = *snapshot->shards[sa]->blocks()[ca];
          const ClusterBlock& b = *snapshot->shards[sb]->blocks()[cb];
          Scalar cross = 0.0;
          for (Index i = 0; i < a.count; ++i) {
            for (Index j = 0; j < b.count; ++j) {
              cross += a.scorer->weights[static_cast<size_t>(i)] *
                       b.scorer->weights[static_cast<size_t>(j)] *
                       fn.FromDistance(LpDistance(row(sa, a, i), row(sb, b, j),
                                                  opts.base.affinity.p));
            }
          }
          expected.push_back(BoundaryPair{
              sa, ca, sb, cb, static_cast<int64_t>(shared.size()), cross});
        }
      }
    }
  }
  EXPECT_EQ(report, expected);
}


// The fan-out reference for generation `gen` of `router`: each shard's
// point-only Assign / TopKClusters (each hashing the point itself), merged
// serially — assignment by strictly-greater margin (equal margins keep the
// earlier shard), ranking by (affinity desc, shard asc, cluster asc),
// truncated to top_k — and named by generation-wide ids. The router's
// answers, which hash each point once for all shards, must match it bit for
// bit.
void ExpectFanoutMatchesPointFormMerge(const ShardRouter& router,
                                       uint64_t gen,
                                       std::span<const Scalar> queries,
                                       int top_k) {
  const auto pinned = router.SnapshotAt(gen);
  ASSERT_NE(pinned, nullptr);
  const int dim = router.dim();
  const int shards = static_cast<int>(pinned->shards.size());
  const QueryResponse assigned =
      router.Query({.points = queries, .generation = gen});
  const QueryResponse ranked =
      router.Query({.points = queries, .top_k = top_k, .generation = gen});
  ASSERT_TRUE(assigned.ok());
  ASSERT_TRUE(ranked.ok());
  const size_t count = queries.size() / static_cast<size_t>(dim);
  ASSERT_EQ(assigned.assignments.size(), count);
  ASSERT_EQ(ranked.ranked.size(), count);
  struct Tagged {
    ScoredCluster scored;
    int shard;
  };
  for (size_t i = 0; i < count; ++i) {
    const auto point = queries.subspan(i * static_cast<size_t>(dim),
                                       static_cast<size_t>(dim));
    QueryOutcome expected;
    std::vector<Tagged> tagged;
    for (int s = 0; s < shards; ++s) {
      const ClusterSnapshot& shard = *pinned->shards[s];
      QueryOutcome outcome = shard.Assign(point);
      if (outcome.cluster >= 0 &&
          (expected.cluster < 0 || outcome.margin > expected.margin)) {
        expected = outcome;
        expected.cluster += ClusterOffset(*pinned, s);
      }
      for (const ScoredCluster& sc : shard.TopKClusters(point, top_k)) {
        tagged.push_back({sc, s});
      }
    }
    expected.generation = gen;
    EXPECT_EQ(assigned.assignments[i], expected) << "point " << i;

    std::sort(tagged.begin(), tagged.end(),
              [](const Tagged& a, const Tagged& b) {
                if (a.scored.affinity != b.scored.affinity) {
                  return a.scored.affinity > b.scored.affinity;
                }
                if (a.shard != b.shard) return a.shard < b.shard;
                return a.scored.cluster < b.scored.cluster;
              });
    if (static_cast<int>(tagged.size()) > top_k) {
      tagged.resize(static_cast<size_t>(top_k));
    }
    std::vector<ScoredCluster> expected_ranked;
    for (Tagged& t : tagged) {
      t.scored.cluster += ClusterOffset(*pinned, t.shard);
      t.scored.generation = gen;
      expected_ranked.push_back(t.scored);
    }
    EXPECT_EQ(ranked.ranked[i], expected_ranked) << "point " << i;
  }
}

// A request hashes each point once and hands the keys to every shard that
// holds a cluster. Over an all-empty generation (nothing hashed), a
// hot-shard-only one and a fully populated one, at S = 4, its answers equal
// the per-shard point-only merge bit for bit — as current generations and
// again as-of from the history ring.
TEST(ShardTest, FanoutMatchesPerShardPointFormMergeOnEmptyHotAndFullShards) {
  const int dim = 6;
  const double spread = 1.0;
  const int num_shards = 4;
  const int top_k = 3;
  ShardedStreamOptions opts;
  opts.base = BlobOptions(dim, spread);
  opts.num_shards = num_shards;
  ShardedStream stream(dim, opts);
  ShardRouter router(dim, num_shards, {.history_capacity = 3});
  const auto clusters_of = [&](uint64_t gen, int s) {
    return router.SnapshotAt(gen)->shards[s]->num_clusters();
  };

  // Centers far apart (distance 100 per coordinate step), one per shard
  // plus one shared by shards 0 and 3 so a point collides on two shards.
  const auto center = [&](int c) {
    return std::vector<Scalar>(dim, 100.0 * (c + 1));
  };
  std::vector<Scalar> queries;
  Rng rng(29);
  for (int c = 0; c < 5; ++c) {
    const std::vector<Scalar> at = center(c);
    queries.insert(queries.end(), at.begin(), at.end());
    for (int j = 0; j < 6; ++j) {
      for (const Scalar v : at) {
        queries.push_back(v + rng.Gaussian() * (j < 4 ? spread : 6 * spread));
      }
    }
  }
  for (int j = 0; j < 8; ++j) {  // far noise
    for (int d = 0; d < dim; ++d) queries.push_back(rng.Uniform(-900, 900));
  }
  const auto insert_to = [&](const std::vector<Scalar>& points, int shard) {
    const std::vector<uint64_t> keys(points.size() / dim,
                                     KeyForShard(stream, shard));
    stream.InsertBatch(points, keys);
  };

  // Generation 1: a few scattered points on every shard, no cluster yet.
  for (int s = 0; s < num_shards; ++s) {
    insert_to(Blob(std::vector<Scalar>(dim, -5000.0 * (s + 1)), 1, 0.0,
                   3 + static_cast<uint64_t>(s)),
              s);
  }
  stream.Refresh();
  const uint64_t empty_gen = router.PublishFromStream(stream);
  for (int s = 0; s < num_shards; ++s) {
    ASSERT_EQ(clusters_of(empty_gen, s), 0) << "shard " << s;
  }
  ExpectFanoutMatchesPointFormMerge(router, empty_gen, queries, top_k);
  const QueryResponse unassigned = router.Query({.points = queries});
  for (const QueryOutcome& a : unassigned.assignments) {
    EXPECT_EQ(a, (QueryOutcome{.generation = empty_gen}));
  }

  // Generation 2: one hot shard holds every cluster.
  const int hot = 2;
  insert_to(Blob(center(hot), 120, spread, 41), hot);
  stream.Refresh();
  const uint64_t hot_gen = router.PublishFromStream(stream);
  for (int s = 0; s < num_shards; ++s) {
    if (s == hot) {
      ASSERT_GT(clusters_of(hot_gen, s), 0);
    } else {
      ASSERT_EQ(clusters_of(hot_gen, s), 0) << "shard " << s;
    }
  }
  ExpectFanoutMatchesPointFormMerge(router, hot_gen, queries, top_k);

  // Generation 3: every shard holds a cluster; center 4 lives on shards 0
  // and 3 alike.
  for (int s = 0; s < num_shards; ++s) {
    if (s != hot) insert_to(Blob(center(s), 120, spread, 50 + s), s);
  }
  insert_to(Blob(center(4), 120, spread, 61), 0);
  insert_to(Blob(center(4), 120, spread, 62), 3);
  stream.Refresh();
  const uint64_t full_gen = router.PublishFromStream(stream);
  for (int s = 0; s < num_shards; ++s) {
    ASSERT_GT(clusters_of(full_gen, s), 0) << "shard " << s;
  }
  ExpectFanoutMatchesPointFormMerge(router, full_gen, queries, top_k);
  // Center 4 (query 28) ranks candidates of both shards 0 and 3.
  const QueryResponse shared = router.Query(
      {.points = std::span<const Scalar>(queries).subspan(28 * dim, dim),
       .top_k = top_k});
  ASSERT_GE(shared.ranked[0].size(), 2u);
  const int shard1 = ClusterOffset(*router.snapshot(), 1);
  const int shard3 = ClusterOffset(*router.snapshot(), 3);
  const int first = shared.ranked[0][0].cluster;
  const int second = shared.ranked[0][1].cluster;
  EXPECT_TRUE((first < shard1 && second >= shard3) ||
              (second < shard1 && first >= shard3))
      << first << " " << second;

  // The retired generations answer as-of exactly as they did when current.
  ExpectFanoutMatchesPointFormMerge(router, empty_gen, queries, top_k);
  ExpectFanoutMatchesPointFormMerge(router, hot_gen, queries, top_k);
}

// A generation whose shards hash differently cannot share one set of keys
// per point, so Publish refuses it.
TEST(ShardDeathTest, PublishRejectsShardsThatHashDifferently) {
  const int dim = 6;
  const Dataset data(dim, std::vector<Scalar>(dim, 0.0));
  ClusterSnapshotOptions options;
  const auto shard_a = ClusterSnapshot::FromClusters(data, {}, options, 7);
  const auto shard_b = ClusterSnapshot::FromClusters(data, {}, options, 7);
  options.lsh.seed += 1;
  const auto reseeded = ClusterSnapshot::FromClusters(data, {}, options, 7);
  ASSERT_TRUE(shard_a->HashesLike(*shard_b));
  ASSERT_FALSE(shard_a->HashesLike(*reseeded));

  ShardRouter router(dim, 2);
  router.Publish(std::make_shared<const ServedGeneration>(
      ServedGeneration{7, {shard_a, shard_b}}));
  EXPECT_EQ(router.generation(), 7u);
  EXPECT_DEATH(router.Publish(std::make_shared<const ServedGeneration>(
                   ServedGeneration{8, {shard_a, reseeded}})),
               "HashesLike");
}

}  // namespace
}  // namespace alid

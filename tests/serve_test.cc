// Tests of the cluster-serving subsystem: snapshot immutability under
// concurrent ingest, RCU swap linearizability, batched-parallel ==
// serial-query bit-identity, and the assign-agrees-with-absorb contract
// against the streaming runtime's own Theorem-1 decision.
#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/online_alid.h"
#include "core/palid.h"
#include "data/synthetic.h"
#include "serve/cluster_server.h"
#include "serve/cluster_snapshot.h"
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

OnlineAlidOptions StreamOptions(const LabeledData& data) {
  OnlineAlidOptions opts;
  opts.affinity = {.k = data.suggested_k, .p = 2.0};
  opts.lsh.segment_length = data.suggested_lsh_r;
  opts.refresh_interval = 96;
  return opts;
}

// The generator lays rows out cluster-by-cluster; a fixed shuffle makes any
// prefix cover every planted cluster (and any suffix probe all of them).
std::vector<Index> ShuffledOrder(const LabeledData& data) {
  Rng rng(5);
  return rng.Permutation(data.size());
}

// Feeds the first `count` rows of `order` into a fresh stream and flushes
// the pool.
std::unique_ptr<OnlineAlid> FeedStream(const LabeledData& data,
                                       const std::vector<Index>& order,
                                       Index count, OnlineAlidOptions opts) {
  auto online = std::make_unique<OnlineAlid>(data.data.dim(), opts);
  std::vector<Scalar> flat;
  for (Index pos = 0; pos < count; ++pos) {
    const auto row = data.data[order[pos]];
    flat.insert(flat.end(), row.begin(), row.end());
  }
  online->InsertBatch(flat);
  online->Refresh();
  return online;
}

// Flattens the rows at positions [begin, end) of `order` into one batch.
std::vector<Scalar> FlatRows(const LabeledData& data,
                             const std::vector<Index>& order, Index begin,
                             Index end) {
  std::vector<Scalar> flat;
  for (Index pos = begin; pos < end; ++pos) {
    const auto row = data.data[order[pos]];
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

TEST(ServeTest, AssignAgreesWithStreamAbsorbOnHeldOutArrivals) {
  // The contract the snapshot promises: built from a stream with the
  // stream's own affinity/LSH parameters, Assign(x) is *exactly* the
  // Theorem-1 absorb decision the stream takes when x actually arrives —
  // same LSH candidates (the seeded projections match), same weighted
  // kernel sums in the same order, same slack and tie-break. p = 3 has no
  // ISA kernel: both sides then run the general per-lane tile loop, and
  // must agree just the same.
  LabeledData data = Workload(460, 23);
  const std::vector<Index> order = ShuffledOrder(data);
  const Index fed = 340;
  for (const double p : {2.0, 3.0}) {
    SCOPED_TRACE(testing::Message() << "p=" << p);
    OnlineAlidOptions opts = StreamOptions(data);
    opts.affinity.p = p;
    opts.refresh_interval = 1 << 20;  // no refresh between probe arrivals
    auto online = FeedStream(data, order, fed, opts);
    ASSERT_GT(online->clusters().size(), 1u);

    int absorbed = 0;
    int pooled = 0;
    for (Index pos = fed; pos < data.size(); ++pos) {
      const Index i = order[pos];
      const auto snap = ClusterSnapshot::FromStream(*online);
      ClusterServer server(data.data.dim());
      server.Publish(snap);
      const QueryResponse predicted_response =
          server.Query({.points = data.data[i]});
      ASSERT_TRUE(predicted_response.ok());
      const QueryOutcome predicted = predicted_response.assignments.front();
      const int64_t redetects_before = online->stats().redetections;
      const Index slot = online->Insert(data.data[i]);
      const int actual = online->ClusterOf(slot);
      // The stream's absorb *decision* is observable as the local
      // re-detection it triggers; the server must predict it exactly. (The
      // re-detection may still leave a boundary arrival out of the rebuilt
      // support — then it pools despite an infective margin — but when it
      // keeps the arrival, it keeps it in the predicted cluster.)
      const bool stream_absorbed =
          online->stats().redetections > redetects_before;
      if (predicted.cluster >= 0) {
        EXPECT_TRUE(stream_absorbed) << "arrival " << i;
        EXPECT_GT(predicted.margin, 0.0);
        if (actual >= 0) {
          EXPECT_EQ(actual, predicted.cluster) << "arrival " << i;
          ++absorbed;
        }
      } else {
        EXPECT_FALSE(stream_absorbed) << "arrival " << i;
        EXPECT_EQ(actual, -1) << "arrival " << i;
        ++pooled;
      }
    }
    // The probe set must exercise both outcomes or the contract is vacuous.
    EXPECT_GT(absorbed, 0);
    EXPECT_GT(pooled, 0);
  }
}

TEST(ServeTest, BatchedParallelQueriesBitIdenticalToSerial) {
  LabeledData data = Workload(380, 7);
  const std::vector<Index> order = ShuffledOrder(data);
  auto online = FeedStream(data, order, 300, StreamOptions(data));
  const auto snap = ClusterSnapshot::FromStream(*online);
  const int dim = data.data.dim();

  // Queries: every held-out row plus uniform noise far off the clusters.
  std::vector<Scalar> queries = FlatRows(data, order, 300, data.size());
  Rng rng(41);
  for (int q = 0; q < 40; ++q) {
    for (int d = 0; d < dim; ++d) {
      queries.push_back(rng.Uniform(-600.0, 600.0));
    }
  }
  const Index count = static_cast<Index>(queries.size()) / dim;

  ClusterServer serial(dim);
  serial.Publish(snap);
  std::vector<QueryOutcome> expected;
  for (Index q = 0; q < count; ++q) {
    const QueryResponse one = serial.Query(
        {.points = std::span<const Scalar>(queries).subspan(
             static_cast<size_t>(q) * dim, static_cast<size_t>(dim))});
    expected.push_back(one.assignments.front());
  }
  // Bit-identity of the whole result — cluster, affinity, margin bits and
  // the per-batch generation — across pool widths and request sizes 1, 31,
  // 32, 33 and all points, so every chunking of a request on a pool,
  // ragged last chunk included, answers like its points one by one.
  const QueryResponse no_pool = serial.Query({.points = queries});
  EXPECT_TRUE(no_pool.ok());
  EXPECT_EQ(no_pool.generation, snap->generation());
  EXPECT_EQ(no_pool.assignments, expected);
  for (int executors : {2, 4, 8}) {
    ThreadPool pool(executors);
    ClusterServer server(dim, {.pool = &pool});
    server.Publish(snap);
    for (const Index size :
         {Index{1}, Index{31}, Index{32}, Index{33}, count}) {
      SCOPED_TRACE(testing::Message()
                   << "executors=" << executors << " size=" << size);
      const QueryResponse response = server.Query(
          {.points = std::span<const Scalar>(queries).first(
               static_cast<size_t>(size) * dim)});
      EXPECT_EQ(response.assignments,
                std::vector<QueryOutcome>(expected.begin(),
                                          expected.begin() + size));
    }
  }
  // The sweep exercised real assignments, not a wall of -1s.
  int hits = 0;
  for (const QueryOutcome& r : expected) hits += r.cluster >= 0 ? 1 : 0;
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, count);
}

TEST(ServeTest, SnapshotImmutableUnderConcurrentIngest) {
  // The HTAP-style isolation claim: a published snapshot keeps answering
  // from the state it captured while InsertBatch keeps mutating the stream
  // (slot re-use and cluster re-detections included).
  // Run under TSan, this also proves the two sides share no unsynchronized
  // state — the snapshot deep-copied everything it serves.
  LabeledData data = Workload(520, 57);
  OnlineAlidOptions opts = StreamOptions(data);
  opts.window = 260;  // expiry re-uses the slots the snapshot was built from
  const std::vector<Index> order = ShuffledOrder(data);
  auto online = FeedStream(data, order, 300, opts);
  const auto snap = ClusterSnapshot::FromStream(*online);

  const int dim = data.data.dim();
  ClusterServer server(dim);
  server.Publish(snap);
  const std::vector<Scalar> queries = FlatRows(data, order, 0, 80);
  const std::vector<QueryOutcome> expected =
      server.Query({.points = queries}).assignments;

  std::atomic<bool> mismatch{false};
  std::thread ingest([&] {
    std::vector<Scalar> flat;
    for (Index pos = 300; pos < data.size(); ++pos) {
      const auto row = data.data[order[pos]];
      flat.insert(flat.end(), row.begin(), row.end());
      if (flat.size() == static_cast<size_t>(40 * dim)) {
        online->InsertBatch(flat);
        flat.clear();
      }
    }
    if (!flat.empty()) online->InsertBatch(flat);
    online->Refresh();
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      for (int rep = 0; rep < 30; ++rep) {
        if (server.Query({.points = queries}).assignments != expected) {
          mismatch.store(true);
        }
      }
    });
  }
  ingest.join();
  for (auto& reader : readers) reader.join();
  EXPECT_FALSE(mismatch.load());
  // The stream really did move on while the snapshot stood still.
  EXPECT_GT(online->size(), static_cast<Index>(snap->generation()));
  EXPECT_GT(online->stats().evicted, 0);
}

TEST(ServeTest, SnapshotSwapUnderLoadIsLinearizable) {
  // RCU publication: while a publisher hot-swaps snapshots, every reader
  // (a) answers each whole batch from exactly one snapshot, (b) observes
  // generations monotonically (the atomic's coherence order), and (c) only
  // ever sees generations that were actually published.
  LabeledData data = Workload(480, 11);
  OnlineAlidOptions opts = StreamOptions(data);
  auto online = std::make_unique<OnlineAlid>(data.data.dim(), opts);

  std::vector<std::shared_ptr<const ClusterSnapshot>> snaps;
  std::vector<uint64_t> published;
  std::vector<Scalar> flat;
  for (Index i = 0; i < data.size(); ++i) {
    const auto row = data.data[i];
    flat.insert(flat.end(), row.begin(), row.end());
    if (flat.size() == static_cast<size_t>(80 * data.data.dim())) {
      online->InsertBatch(flat);
      flat.clear();
      online->Refresh();
      snaps.push_back(ClusterSnapshot::FromStream(*online));
      published.push_back(snaps.back()->generation());
    }
  }
  ASSERT_GE(snaps.size(), 4u);

  const int dim = data.data.dim();
  ClusterServer server(dim);
  server.Publish(snaps[0]);
  const std::vector<Scalar> queries =
      FlatRows(data, ShuffledOrder(data), 0, 60);

  std::atomic<bool> torn{false};
  std::atomic<bool> non_monotonic{false};
  std::atomic<bool> unpublished{false};
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      uint64_t last_seen = 0;
      while (!done.load(std::memory_order_acquire)) {
        const QueryResponse batch = server.Query({.points = queries});
        for (const QueryOutcome& r : batch.assignments) {
          if (r.generation != batch.generation) torn.store(true);
        }
        const uint64_t gen = batch.generation;
        if (gen < last_seen) non_monotonic.store(true);
        last_seen = gen;
        if (std::find(published.begin(), published.end(), gen) ==
            published.end()) {
          unpublished.store(true);
        }
      }
    });
  }
  std::thread publisher([&] {
    // Strictly ascending generations, stretched so every reader overlaps
    // several swaps — monotonic observation is then a real linearizability
    // claim, not an artifact of a fast publisher.
    for (size_t s = 1; s < snaps.size(); ++s) {
      for (int pause = 0; pause < 400; ++pause) std::this_thread::yield();
      server.Publish(snaps[s]);
    }
    for (int pause = 0; pause < 400; ++pause) std::this_thread::yield();
    done.store(true, std::memory_order_release);
  });
  publisher.join();
  for (auto& reader : readers) reader.join();
  EXPECT_FALSE(torn.load());
  EXPECT_FALSE(non_monotonic.load());
  EXPECT_FALSE(unpublished.load());
  EXPECT_EQ(server.generation(), published.back());
  EXPECT_EQ(server.stats().snapshots_published,
            static_cast<int64_t>(snaps.size()));
}

TEST(ServeTest, ServesAlidAndPalidDetections) {
  // The batch-detection export path: a snapshot built from DetectAll (or
  // Palid::Detect) answers member duplicates with the member's own cluster —
  // Theorem 1 puts a support duplicate exactly at the density, inside the
  // slack.
  LabeledData data = Workload(300, 3);
  TestPipeline pipeline(data);
  AlidDetector detector(*pipeline.oracle, *pipeline.lsh);
  const DetectionResult alid =
      detector.DetectAll().Filtered(detector.options().density_threshold);
  ASSERT_GT(alid.clusters.size(), 0u);

  ClusterSnapshotOptions sopts;
  sopts.affinity = {.k = data.suggested_k, .p = 2.0};
  sopts.lsh = pipeline.lsh->params();
  const auto snap = ClusterSnapshot::FromClusters(data.data, alid.clusters,
                                                  sopts, /*generation=*/1);
  ClusterServer server(data.data.dim());
  server.Publish(snap);
  for (size_t c = 0; c < alid.clusters.size(); ++c) {
    for (Index m : {alid.clusters[c].members.front(),
                    alid.clusters[c].members.back()}) {
      const QueryOutcome r =
          server.Query({.points = data.data[m]}).assignments.front();
      EXPECT_EQ(r.cluster, static_cast<int>(c)) << "member " << m;
      const QueryResponse ranked =
          server.Query({.points = data.data[m], .top_k = 2});
      ASSERT_EQ(ranked.ranked.size(), 1u);
      const std::vector<ScoredCluster>& topk = ranked.ranked.front();
      ASSERT_GT(topk.size(), 0u);
      EXPECT_EQ(topk.front().cluster, r.cluster);
      EXPECT_TRUE(topk.front().absorbable);
      EXPECT_EQ(topk.front().affinity, r.affinity);
    }
  }

  PalidOptions popts;
  popts.num_executors = 2;
  Palid palid(*pipeline.oracle, *pipeline.lsh, popts);
  const DetectionResult parallel = palid.Detect().Filtered(0.75);
  ASSERT_GT(parallel.clusters.size(), 0u);
  const auto psnap = ClusterSnapshot::FromClusters(
      data.data, parallel.clusters, sopts, /*generation=*/2);
  server.Publish(psnap);
  EXPECT_EQ(server.generation(), 2u);
  const Index member = parallel.clusters[0].members.front();
  EXPECT_EQ(
      server.Query({.points = data.data[member]}).assignments.front().cluster,
      0);
}

TEST(ServeTest, TopKOrderingAndClusterInfoRoundTrip) {
  LabeledData data = Workload(320, 29);
  auto online =
      FeedStream(data, ShuffledOrder(data), 320, StreamOptions(data));
  const auto snap = ClusterSnapshot::FromStream(*online);
  ASSERT_GT(snap->num_clusters(), 1);
  ClusterServer server(data.data.dim());
  server.Publish(snap);

  const QueryResponse ranked = server.Query(
      {.points = data.data[0], .top_k = snap->num_clusters() + 3});
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ(ranked.ranked.size(), 1u);
  const std::vector<ScoredCluster>& topk = ranked.ranked.front();
  for (size_t r = 1; r < topk.size(); ++r) {
    EXPECT_GE(topk[r - 1].affinity, topk[r].affinity);
  }
  for (const ScoredCluster& s : topk) {
    const Scalar threshold = snap->density(s.cluster) * (1.0 - kAbsorbSlack);
    EXPECT_EQ(s.absorbable, s.affinity - threshold > 0.0);
    // Ranked entries carry the full QueryOutcome shape: the signed margin
    // against this cluster's threshold and the answering generation.
    EXPECT_EQ(s.margin, s.affinity - threshold);
    EXPECT_EQ(s.generation, snap->generation());
  }

  // ClusterInfo mirrors the stream's live clusters (source ids == slots).
  for (int c = 0; c < snap->num_clusters(); ++c) {
    const ClusterSnapshotInfo info = server.ClusterInfo(c);
    EXPECT_EQ(info.cluster, c);
    const Cluster& source = online->clusters()[c];
    EXPECT_EQ(info.members, source.members);
    EXPECT_EQ(info.weights, source.weights);
    EXPECT_EQ(info.density, source.density);
    EXPECT_EQ(info.seed, source.seed);
    EXPECT_EQ(info.size, static_cast<Index>(source.members.size()));
    // The exported support and the reported density describe the same
    // simplex: x^T A x from the source rows and the served weights agrees
    // with it to numerical noise (the stream tracks pi incrementally).
    const Scalar density =
        QuadraticDensity(online->oracle().data(), online->oracle().affinity(),
                         info.members, info.weights);
    EXPECT_NEAR(density, info.density,
                1e-6 * std::max<Scalar>(1.0, info.density));
  }
  EXPECT_EQ(server.ClusterInfo(-1).cluster, -1);
  EXPECT_EQ(server.ClusterInfo(snap->num_clusters()).cluster, -1);
}

TEST(ServeTest, OfflineAndEmptySnapshotEdges) {
  LabeledData data = Workload(60, 5);
  const int dim = data.data.dim();
  ClusterServer server(dim);
  // Offline: no snapshot published yet. Queries answer with kOffline and
  // default (unassigned) entries, one per point.
  EXPECT_EQ(server.generation(), 0u);
  EXPECT_EQ(server.snapshot(), nullptr);
  const QueryResponse offline = server.Query({.points = data.data[0]});
  EXPECT_EQ(offline.status, QueryStatus::kOffline);
  EXPECT_FALSE(offline.ok());
  EXPECT_EQ(offline.generation, 0u);
  ASSERT_EQ(offline.assignments.size(), 1u);
  EXPECT_EQ(offline.assignments.front().cluster, -1);
  EXPECT_EQ(offline.assignments.front().generation, 0u);
  const QueryResponse offline_ranked =
      server.Query({.points = data.data[0], .top_k = 3});
  EXPECT_EQ(offline_ranked.status, QueryStatus::kOffline);
  ASSERT_EQ(offline_ranked.ranked.size(), 1u);
  EXPECT_TRUE(offline_ranked.ranked.front().empty());
  EXPECT_EQ(server.ClusterInfo(0).cluster, -1);
  const std::vector<Scalar> five = FlatRows(data, ShuffledOrder(data), 0, 5);
  const QueryResponse batch = server.Query({.points = five});
  ASSERT_EQ(batch.assignments.size(), 5u);
  for (const QueryOutcome& r : batch.assignments) EXPECT_EQ(r.cluster, -1);
  EXPECT_TRUE(server.Query({}).assignments.empty());
  ExpectInvalidRequestsRejected(server, data.data[0]);

  // A snapshot with zero clusters (fresh stream) serves unassigned answers
  // under its own generation.
  OnlineAlid empty(dim, StreamOptions(data));
  empty.Insert(data.data[0]);
  ASSERT_EQ(empty.clusters().size(), 0u);
  const auto snap = ClusterSnapshot::FromStream(empty);
  EXPECT_EQ(snap->num_clusters(), 0);
  EXPECT_EQ(snap->num_members(), 0);
  server.Publish(snap);
  EXPECT_EQ(server.generation(), 1u);
  const QueryResponse r = server.Query({.points = data.data[1]});
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.generation, 1u);
  EXPECT_EQ(r.assignments.front().cluster, -1);
  EXPECT_EQ(r.assignments.front().generation, 1u);
  ExpectInvalidRequestsRejected(server, data.data[1]);
  // Taking the server offline again is an explicit Publish(nullptr).
  server.Publish(nullptr);
  EXPECT_EQ(server.generation(), 0u);
  // The empty-cluster generation stays addressable through the ring.
  EXPECT_EQ(server.Query({.points = data.data[1], .generation = 1})
                .status,
            QueryStatus::kOk);
  EXPECT_EQ(server.Query({.points = data.data[1], .generation = 9})
                .status,
            QueryStatus::kGenerationUnavailable);
}

TEST(ServeTest, HugeFiniteCoordinatesAnswerAlikeThroughEveryEntryPoint) {
  // Coordinates far outside the data push the LSH projections past the
  // int32 bucket range (and, at the largest magnitudes, to inf or NaN):
  // the hash saturates instead of converting out of range, and Assign,
  // Query and the top-k query still give one answer per point.
  LabeledData data = Workload(300, 19);
  const std::vector<Index> order = ShuffledOrder(data);
  auto online = FeedStream(data, order, 260, StreamOptions(data));
  const auto snap = ClusterSnapshot::FromStream(*online);
  ASSERT_GT(snap->num_clusters(), 0);
  const int dim = data.data.dim();
  constexpr Scalar kMax = std::numeric_limits<Scalar>::max();

  // The control: a member row of cluster 0, which Assign must absorb.
  const auto member = online->oracle().data()[snap->ClusterInfo(0).members[0]];
  std::vector<Scalar> queries(member.begin(), member.end());
  std::vector<Scalar> row = FlatRows(data, order, 261, 262);
  row[0] = 1e12;
  queries.insert(queries.end(), row.begin(), row.end());
  for (const Scalar v : {-1e12, 1e300, kMax}) {
    queries.insert(queries.end(), static_cast<size_t>(dim), v);
  }
  for (int d = 0; d < dim; ++d) queries.push_back(d % 2 == 0 ? kMax : -kMax);
  const Index count = static_cast<Index>(queries.size()) / dim;

  ClusterServer server(dim);
  server.Publish(snap);
  const QueryResponse all = server.Query({.points = queries});
  const QueryResponse ranked = server.Query({.points = queries, .top_k = 3});
  ASSERT_TRUE(all.ok());
  ASSERT_TRUE(ranked.ok());
  for (Index q = 0; q < count; ++q) {
    SCOPED_TRACE(testing::Message() << "query " << q);
    const std::span<const Scalar> point =
        std::span<const Scalar>(queries).subspan(
            static_cast<size_t>(q) * dim, static_cast<size_t>(dim));
    const QueryOutcome single = snap->Assign(point);
    EXPECT_EQ(all.assignments[q], single);
    EXPECT_EQ(server.Query({.points = point}).assignments.front(), single);
    EXPECT_EQ(ranked.ranked[q], snap->TopKClusters(point, 3));
    if (q > 0) {
      EXPECT_EQ(single.cluster, -1);  // nothing absorbs a far point
    }
  }
  EXPECT_GE(all.assignments.front().cluster, 0);
}

TEST(ServeTest, StatsCountQueriesAndLatencies) {
  LabeledData data = Workload(260, 13);
  const std::vector<Index> order = ShuffledOrder(data);
  auto online = FeedStream(data, order, 200, StreamOptions(data));
  ClusterServer server(data.data.dim());
  server.Publish(ClusterSnapshot::FromStream(*online));

  for (Index i = 200; i < 220; ++i) server.Query({.points = data.data[i]});
  const std::vector<Scalar> forty = FlatRows(data, order, 220, 260);
  server.Query({.points = forty});
  server.Query({.points = {}});
  server.Query({.points = data.data[0], .top_k = 2});
  server.ClusterInfo(0);

  const ServeStatsView stats = server.stats();
  EXPECT_EQ(stats.single_queries, 20);
  EXPECT_EQ(stats.batch_calls, 1);
  EXPECT_EQ(stats.queries, 60);
  EXPECT_EQ(stats.assigned + stats.unassigned, 60);
  EXPECT_EQ(stats.topk_queries, 1);
  EXPECT_EQ(stats.info_queries, 1);
  EXPECT_EQ(stats.snapshots_published, 1);
  // A from-scratch publish materializes every block and shares none.
  EXPECT_GT(stats.bytes_copied, 0);
  EXPECT_EQ(stats.bytes_shared, 0);
  // One latency observation per assignment call with at least one point:
  // 20 singles + 1 batch (the empty call and the top-k call add none).
  const std::vector<obs::MetricSample> samples = server.metrics().Snapshot();
  const auto latency = std::find_if(
      samples.begin(), samples.end(),
      [](const obs::MetricSample& m) { return m.name == "query_seconds"; });
  ASSERT_NE(latency, samples.end());
  EXPECT_EQ(latency->count, 21);
}

}  // namespace
}  // namespace alid

// Tests of the snapshot export and the stream state it reads: a stream
// export answers exactly like a from-clusters build of the same clusters,
// incremental snapshots are deep-equal to from-scratch rebuilds every
// generation, every block's bucket keys equal its members' recomputed keys and
// the candidate clusters equal a member-level LSH index's, and the stream's
// state, counters and refresh speculation are identical across executor
// counts.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/online_alid.h"
#include "data/synthetic.h"
#include "lsh/lsh_index.h"
#include "serve/cluster_server.h"
#include "serve/cluster_snapshot.h"
#include "test_util.h"

namespace alid {
namespace {

LabeledData Workload(Index n = 460, uint64_t seed = 91, bool overlap = false,
                     int num_clusters = 4) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 10;
  cfg.num_clusters = num_clusters;
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

// The stream's arrival mix: the shuffled dataset followed by `probes`
// near-miss points — jittered copies of data rows at several magnitudes, so
// some collide with a cluster's LSH buckets while scoring far below its
// absorb threshold.
std::vector<Scalar> ArrivalMix(const LabeledData& data, Index probes) {
  const int dim = data.data.dim();
  Rng rng(5);
  std::vector<Scalar> flat;
  for (Index i : rng.Permutation(data.size())) {
    const auto row = data.data[i];
    flat.insert(flat.end(), row.begin(), row.end());
  }
  for (Index q = 0; q < probes; ++q) {
    const auto row =
        data.data[static_cast<Index>(rng.UniformInt(0, data.size() - 1))];
    const double magnitude = (1 << (q % 5)) * 0.5;  // 0.5x .. 8x jitter
    for (int d = 0; d < dim; ++d) {
      flat.push_back(row[d] + rng.Gaussian() * magnitude);
    }
  }
  return flat;
}

std::unique_ptr<OnlineAlid> RunStream(const LabeledData& data,
                                      OnlineAlidOptions opts, Index batch,
                                      const std::vector<Scalar>& flat) {
  const int dim = data.data.dim();
  auto online = std::make_unique<OnlineAlid>(dim, opts);
  const Index count = static_cast<Index>(flat.size()) / dim;
  for (Index begin = 0; begin < count; begin += batch) {
    const Index size = std::min<Index>(batch, count - begin);
    online->InsertBatch(std::span<const Scalar>(
        flat.data() + static_cast<size_t>(begin) * dim,
        static_cast<size_t>(size) * dim));
  }
  online->Refresh();
  return online;
}

// The distinct (table, key) buckets of a block's member rows in `data`,
// hashed afresh.
std::vector<BucketKey> RecomputedBuckets(const Dataset& data,
                                         const ClusterBlock& block,
                                         const LshParams& params) {
  const LshIndex hasher(data.dim(), params);
  std::vector<uint64_t> keys(static_cast<size_t>(params.num_tables));
  std::vector<BucketKey> buckets;
  for (const Index source : block.source_ids) {
    hasher.ComputePointKeys(data[source], keys.data());
    for (int t = 0; t < params.num_tables; ++t) {
      buckets.push_back({t, keys[static_cast<size_t>(t)]});
    }
  }
  std::sort(buckets.begin(), buckets.end());
  buckets.erase(std::unique(buckets.begin(), buckets.end()), buckets.end());
  return buckets;
}

// Checks the snapshot's candidate stage against an eager member-level
// LshIndex over its members' rows in `data` (the snapshot's source, which
// the caller has not mutated since the build), concatenated in cluster
// order: for every probe — each cluster's first members, near misses of
// them at several jitter scales, and far noise — TopKClusters over all
// clusters must return exactly the clusters of the index's collisions.
// Every block's scorer tiles must hold exactly those source rows, and its
// bucket keys must equal the keys recomputed from them.
void ExpectCandidatesMatchMemberIndex(const Dataset& data,
                                      const ClusterSnapshot& snap,
                                      const LshParams& params, uint64_t seed) {
  const int dim = snap.dim();
  Dataset rows(dim);
  std::vector<int> cluster_of;
  std::vector<Scalar> tile_row(static_cast<size_t>(dim));
  for (int c = 0; c < snap.num_clusters(); ++c) {
    const ClusterBlock& block = *snap.blocks()[c];
    EXPECT_EQ(block.bucket_keys, RecomputedBuckets(data, block, params))
        << "cluster " << c;
    for (Index m = 0; m < block.count; ++m) {
      const auto row = data[block.source_ids[static_cast<size_t>(m)]];
      block.scorer->members.CopyRow(m, tile_row.data());
      EXPECT_TRUE(std::equal(row.begin(), row.end(), tile_row.begin()))
          << "cluster " << c << " member " << m;
      rows.Append(row);
    }
    cluster_of.insert(cluster_of.end(), static_cast<size_t>(block.count), c);
  }
  const LshIndex eager(rows, params);

  Rng rng(seed);
  std::vector<std::vector<Scalar>> probes;
  for (int c = 0; c < snap.num_clusters(); ++c) {
    const ClusterBlock& block = *snap.blocks()[c];
    for (Index m = 0; m < std::min<Index>(block.count, 3); ++m) {
      const auto row = data[block.source_ids[static_cast<size_t>(m)]];
      probes.emplace_back(row.begin(), row.end());
      for (const double scale : {0.25, 1.0, 4.0}) {
        std::vector<Scalar> miss(row.begin(), row.end());
        for (Scalar& v : miss) {
          v += rng.Gaussian() * scale * params.segment_length;
        }
        probes.push_back(std::move(miss));
      }
    }
  }
  for (int q = 0; q < 20; ++q) {
    std::vector<Scalar> noise(static_cast<size_t>(dim));
    for (Scalar& v : noise) v = rng.Uniform(-900.0, 900.0);
    probes.push_back(std::move(noise));
  }

  int64_t with_candidates = 0;
  for (size_t q = 0; q < probes.size(); ++q) {
    std::vector<int> expected;
    std::vector<Index> colliding;
    eager.QueryByPoint(probes[q], &colliding);
    for (const Index j : colliding) {
      expected.push_back(cluster_of[static_cast<size_t>(j)]);
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()),
                   expected.end());
    std::vector<int> got;
    for (const ScoredCluster& scored :
         snap.TopKClusters(probes[q], snap.num_clusters())) {
      got.push_back(scored.cluster);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "probe " << q;
    with_candidates += expected.empty() ? 0 : 1;
  }
  // Members always collide with their own cluster.
  if (snap.num_clusters() > 0) {
    EXPECT_GT(with_candidates, 0);
  }
}

// Full structural equality of two streams, every counter included.
void ExpectIdenticalStreams(const OnlineAlid& a, const OnlineAlid& b) {
  DetectionResult da, db;
  da.clusters = a.clusters();
  db.clusters = b.clusters();
  ExpectIdenticalDetections(da, db);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.alive(), b.alive());
  const Index slots = std::max(a.size(), Index{1});
  for (Index i = 0; i < slots; ++i) {
    EXPECT_EQ(a.IsAlive(i), b.IsAlive(i)) << "slot " << i;
    EXPECT_EQ(a.ClusterOf(i), b.ClusterOf(i)) << "slot " << i;
  }
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
  // The stateless oracle's kernel-evaluation count is as deterministic as
  // the state it paid for.
  EXPECT_EQ(a.oracle().entries_computed(), b.oracle().entries_computed());
}

TEST(StreamDeterminismTest, CountersAndStateIdenticalAcrossExecutors) {
  LabeledData data = Workload(380, 7, /*overlap=*/true);
  const std::vector<Scalar> flat = ArrivalMix(data, 80);
  OnlineAlidOptions opts = Options(data);
  opts.window = 240;
  std::unique_ptr<OnlineAlid> serial = RunStream(data, opts, 31, flat);
  for (int executors : {2, 8}) {
    ThreadPool pool(executors);
    OnlineAlidOptions parallel = opts;
    parallel.pool = &pool;
    std::unique_ptr<OnlineAlid> streamed = RunStream(data, parallel, 31, flat);
    SCOPED_TRACE(testing::Message() << "executors=" << executors);
    ExpectIdenticalStreams(*serial, *streamed);
  }
}

TEST(SnapshotExportTest, FromStreamAnswersEqualFromClusters) {
  // The stream export shares the stream's own scorers; a FromClusters build
  // of the same clusters builds its own. Both must give the same answer to
  // every query, bit for bit.
  LabeledData data = Workload(440, 29, /*overlap=*/true);
  const std::vector<Scalar> flat = ArrivalMix(data, 0);
  OnlineAlidOptions opts = Options(data);
  std::unique_ptr<OnlineAlid> online = RunStream(data, opts, 64, flat);
  ASSERT_GT(online->clusters().size(), 1u);

  const auto exported = ClusterSnapshot::FromStream(*online);
  ClusterSnapshotOptions options;
  options.affinity = opts.affinity;
  options.lsh = opts.lsh;
  const auto rebuilt = ClusterSnapshot::FromClusters(
      online->oracle().data(), online->clusters(), options,
      static_cast<uint64_t>(online->size()));
  for (int c = 0; c < exported->num_clusters(); ++c) {
    EXPECT_NE(rebuilt->blocks()[c]->scorer, online->cluster_scorer(c));
  }
  // FromClusters hashes its members' source rows itself: its bucket keys
  // and candidate sets must match a member-level index too.
  ExpectCandidatesMatchMemberIndex(online->oracle().data(), *rebuilt,
                                   opts.lsh, 3);

  const int dim = data.data.dim();
  Rng rng(11);
  int64_t assigned = 0;
  for (int q = 0; q < 600; ++q) {
    std::vector<Scalar> point(dim);
    if (q % 6 == 5) {
      for (int d = 0; d < dim; ++d) point[d] = rng.Uniform(-900.0, 900.0);
    } else {
      // Jitter sweep through the collide-but-fail band, between "absorbs"
      // and "no LSH collision at all".
      const auto row =
          data.data[static_cast<Index>(rng.UniformInt(0, data.size() - 1))];
      const double magnitude = 2.0 * (q % 5);  // 0, 2, 4, 6, 8
      for (int d = 0; d < dim; ++d) {
        point[d] = row[d] + rng.Gaussian() * magnitude;
      }
    }
    const QueryOutcome a = exported->Assign(point);
    const QueryOutcome b = rebuilt->Assign(point);
    EXPECT_EQ(a, b) << "query " << q;
    assigned += a.cluster >= 0 ? 1 : 0;
    for (int k : {1, 3, 8}) {
      EXPECT_EQ(exported->TopKClusters(point, k),
                rebuilt->TopKClusters(point, k))
          << "query " << q << " k=" << k;
    }
  }
  // The sweep must reach both sides of the absorb threshold.
  EXPECT_GT(assigned, 0);
  EXPECT_LT(assigned, 600);
}

// How the incremental chain's candidate lookups were built: generations
// that chained on their predecessor's base with a non-empty base and a
// non-empty delta (the fused lookup with content on both sides), and
// compactions that directly followed a generation chained on a non-empty
// base.
struct ChainCounts {
  int chained_with_content = 0;
  int compactions_after_chain = 0;
};

// Streams `data` while publishing a chained incremental snapshot and a
// from-scratch snapshot every batch, deep-comparing the two and checking the
// chain's candidate stage; returns the total rows the incremental chain
// re-used. Phase 2 (after the dataset is exhausted) feeds batches localized
// around one planted cluster — the steady-state shape where ingest leaves
// most clusters untouched.
void RunIncrementalVsScratch(const LabeledData& data, Index window,
                             int64_t* rows_reused_out,
                             ChainCounts* chain_out = nullptr) {
  OnlineAlidOptions opts = Options(data);
  opts.window = window;
  const int dim = data.data.dim();
  OnlineAlid online(dim, opts);
  Rng rng(5);
  const auto order = rng.Permutation(data.size());

  // Fixed probe set for answer-level equality.
  std::vector<std::vector<Scalar>> probes;
  Rng probe_rng(13);
  for (int q = 0; q < 40; ++q) {
    std::vector<Scalar> p(dim);
    const auto row = data.data[static_cast<Index>(
        probe_rng.UniformInt(0, data.size() - 1))];
    for (int d = 0; d < dim; ++d) {
      p[d] = row[d] + probe_rng.Gaussian() * 0.3;
    }
    probes.push_back(std::move(p));
  }

  std::shared_ptr<const ClusterSnapshot> incremental;
  int64_t rows_reused = 0;
  ChainCounts chain;
  bool was_chained = false;
  Index pos = 0;
  const Index batch = 40;
  int localized = 0;
  Rng jitter_rng(29);
  while (pos < data.size() || localized < 6) {
    std::vector<Scalar> flat;
    if (pos < data.size()) {
      const Index end = std::min<Index>(pos + batch, data.size());
      for (; pos < end; ++pos) {
        const auto row = data.data[order[pos]];
        flat.insert(flat.end(), row.begin(), row.end());
      }
    } else {
      ++localized;
      const IndexList& burst = data.true_clusters[0];
      for (int q = 0; q < 30; ++q) {
        const auto row = data.data[burst[static_cast<size_t>(
            jitter_rng.UniformInt(0, static_cast<int>(burst.size()) - 1))]];
        for (int d = 0; d < dim; ++d) {
          flat.push_back(row[d] + jitter_rng.Gaussian() * 0.2);
        }
      }
    }
    online.InsertBatch(flat);
    const auto prev = incremental;
    incremental = ClusterSnapshot::FromStream(online, nullptr, incremental);
    const auto scratch = ClusterSnapshot::FromStream(online);
    SCOPED_TRACE(testing::Message() << "generation " << online.size());
    // A from-scratch export always compacts: its own base, no delta.
    EXPECT_EQ(scratch->candidate_key_bytes(), 0u);
    EXPECT_EQ(scratch->build_info().candidate_entries_shared, 0);
    if (prev != nullptr) {
      const bool chained = SharesBase(*prev, *incremental);
      if (ChainedWithContent(*prev, *incremental)) {
        ++chain.chained_with_content;
      }
      if (!chained && was_chained) ++chain.compactions_after_chain;
      was_chained =
          chained && incremental->build_info().candidate_entries_shared > 0;
    }

    EXPECT_EQ(scratch->build_info().rows_reused, 0);
    EXPECT_EQ(scratch->build_info().clusters_reused, 0);
    rows_reused += incremental->build_info().rows_reused;
    // Keys read from the stream — fresh blocks this generation, inherited
    // ones from earlier — must be the keys of the members' current rows,
    // across expiry and slot re-use, and candidate sets must stay those of
    // a member-level index.
    ExpectCandidatesMatchMemberIndex(online.oracle().data(), *incremental,
                                     opts.lsh,
                                     static_cast<uint64_t>(online.size()));

    ASSERT_EQ(incremental->num_clusters(), scratch->num_clusters());
    ASSERT_EQ(incremental->num_members(), scratch->num_members());
    EXPECT_EQ(incremental->generation(), scratch->generation());
    for (int c = 0; c < scratch->num_clusters(); ++c) {
      const ClusterSnapshotInfo a = incremental->ClusterInfo(c);
      const ClusterSnapshotInfo b = scratch->ClusterInfo(c);
      EXPECT_EQ(a.members, b.members) << "cluster " << c;
      EXPECT_EQ(a.weights, b.weights) << "cluster " << c;
      EXPECT_EQ(a.density, b.density) << "cluster " << c;
      EXPECT_EQ(a.seed, b.seed) << "cluster " << c;
      // The chained export serves a density that x^T A x over the source
      // rows and its own served weights reproduces.
      const Scalar density =
          QuadraticDensity(online.oracle().data(), online.oracle().affinity(),
                           a.members, a.weights);
      EXPECT_NEAR(density, a.density, 1e-6 * std::max<Scalar>(1.0, a.density))
          << "cluster " << c;
      // Export, don't rebuild: both exports score through the stream's own
      // scorer objects, inherited blocks and fresh blocks alike.
      EXPECT_EQ(incremental->blocks()[c]->scorer, online.cluster_scorer(c))
          << "cluster " << c;
      EXPECT_EQ(scratch->blocks()[c]->scorer, online.cluster_scorer(c))
          << "cluster " << c;
    }
    // Every arrival probes its own buckets: the incremental snapshot's
    // candidates (a chained lookup reads the shared base through its map,
    // then the delta) must rank exactly like the compact scratch build's.
    const Dataset& arrivals = online.oracle().data();
    for (Index i = 0; i < arrivals.size(); ++i) {
      EXPECT_EQ(incremental->TopKClusters(arrivals[i], scratch->num_clusters()),
                scratch->TopKClusters(arrivals[i], scratch->num_clusters()))
          << "arrival " << i;
    }
    for (size_t q = 0; q < probes.size(); ++q) {
      const QueryOutcome a = incremental->Assign(probes[q]);
      const QueryOutcome b = scratch->Assign(probes[q]);
      EXPECT_EQ(a.cluster, b.cluster) << "probe " << q;
      EXPECT_EQ(a.affinity, b.affinity) << "probe " << q;
      EXPECT_EQ(a.margin, b.margin) << "probe " << q;
      const auto ta = incremental->TopKClusters(probes[q], 4);
      const auto tb = scratch->TopKClusters(probes[q], 4);
      ASSERT_EQ(ta.size(), tb.size()) << "probe " << q;
      for (size_t i = 0; i < ta.size(); ++i) {
        EXPECT_EQ(ta[i].cluster, tb[i].cluster) << "probe " << q;
        EXPECT_EQ(ta[i].affinity, tb[i].affinity) << "probe " << q;
      }
    }
  }
  *rows_reused_out = rows_reused;
  if (chain_out != nullptr) *chain_out = chain;
  // Under a window, expired slots were re-used by later arrivals, so a
  // stale stream key would have shown in the bucket-key checks.
  if (window > 0) {
    EXPECT_GT(online.stats().evicted, 0);
  }
}

TEST(SnapshotExportTest, IncrementalExportDeepEqualsFromScratch) {
  // Every generation, the incremental export (chained on its predecessor)
  // must be indistinguishable from a from-scratch rebuild: same clusters,
  // rows, weights, densities and answers, with every block
  // holding the stream's own scorer and every density matching x^T A x of
  // the served support — and the steady-state phase must actually re-use,
  // or the publish optimization silently lost itself.
  LabeledData data = Workload(420, 17);
  int64_t rows_reused = 0;
  RunIncrementalVsScratch(data, /*window=*/0, &rows_reused);
  EXPECT_GT(rows_reused, 0);
  // With four planted clusters every changed cluster is a quarter of the
  // candidate directory, so each build compacts. Eight clusters over more
  // arrivals chain on a shared base with a delta and later compact, so the
  // fused base+delta lookup is deep-compared too.
  LabeledData many = Workload(900, 17, /*overlap=*/false, /*num_clusters=*/8);
  ChainCounts chain;
  RunIncrementalVsScratch(many, /*window=*/0, &rows_reused, &chain);
  EXPECT_GT(chain.chained_with_content, 0);
  EXPECT_GT(chain.compactions_after_chain, 0);
}

TEST(SnapshotExportTest, IncrementalExportDeepEqualsFromScratchUnderWindow) {
  // The windowed variant churns every cluster through expiry repairs and
  // slot re-use — the case where serving a stale inherited row would be
  // catastrophic. Deep equality every generation is the regression net;
  // re-use is not required here (expiry may legitimately touch everything).
  LabeledData data = Workload(420, 17);
  int64_t rows_reused = 0;
  RunIncrementalVsScratch(data, /*window=*/260, &rows_reused);
}

TEST(SnapshotExportTest, ReuseRequiresCompatibleParameters) {
  // A snapshot built under different scoring parameters must never donate
  // its blocks, even when the stream state did not move.
  LabeledData data = Workload(300, 3);
  OnlineAlidOptions opts = Options(data);
  std::unique_ptr<OnlineAlid> online =
      RunStream(data, opts, 64, ArrivalMix(data, 0));
  const auto first = ClusterSnapshot::FromStream(*online);
  // Same stream, unchanged state: everything re-uses.
  const auto second = ClusterSnapshot::FromStream(*online, nullptr, first);
  EXPECT_EQ(second->build_info().clusters_reused,
            second->build_info().clusters_total);
  EXPECT_EQ(second->build_info().rows_rebuilt, 0);
  // A predecessor with a different affinity kernel is rejected wholesale.
  OnlineAlidOptions other = opts;
  other.affinity.k = opts.affinity.k * 2;
  std::unique_ptr<OnlineAlid> online2 =
      RunStream(data, other, 64, ArrivalMix(data, 0));
  const auto incompatible =
      ClusterSnapshot::FromStream(*online2, nullptr, first);
  EXPECT_EQ(incompatible->build_info().clusters_reused, 0);
}

TEST(StreamDeterminismTest, LargePoolRefreshIdenticalAcrossExecutors) {
  // The first refresh runs only after 400 arrivals, so the serial peel
  // starts from a large unassigned pool — and the streamed state must still
  // be bit-identical across executor counts.
  LabeledData data = Workload(480, 41);
  OnlineAlidOptions opts = Options(data);
  opts.refresh_interval = 400;  // let the pool grow before the first pass
  const std::vector<Scalar> flat = ArrivalMix(data, 40);
  std::unique_ptr<OnlineAlid> serial = RunStream(data, opts, 80, flat);
  EXPECT_GT(serial->stats().refreshes, 0);
  EXPECT_GT(serial->stats().clusters_born, 0);
  for (int executors : {2, 8}) {
    ThreadPool pool(executors);
    OnlineAlidOptions parallel = opts;
    parallel.pool = &pool;
    std::unique_ptr<OnlineAlid> streamed = RunStream(data, parallel, 80, flat);
    SCOPED_TRACE(testing::Message() << "executors=" << executors);
    ExpectIdenticalStreams(*serial, *streamed);
  }
}

TEST(SnapshotExportTest, ServerSurfacesPublishTelemetry) {
  LabeledData data = Workload(380, 59, /*overlap=*/true);
  OnlineAlidOptions opts = Options(data);
  std::unique_ptr<OnlineAlid> online =
      RunStream(data, opts, 64, ArrivalMix(data, 0));
  const int dim = data.data.dim();
  ClusterServer server(dim);
  const auto first = ClusterSnapshot::FromStream(*online);
  server.Publish(first);
  server.Publish(ClusterSnapshot::FromStream(*online, nullptr, first));
  const ServeStatsView after_publish = server.stats();
  EXPECT_EQ(after_publish.snapshots_published, 2);
  EXPECT_GT(after_publish.rows_reused, 0);
  EXPECT_GT(after_publish.clusters_reused, 0);
  // The incremental second publish shared its unchanged clusters' arena
  // blocks instead of copying them; the from-scratch first copied all.
  EXPECT_GT(after_publish.bytes_shared, 0);
  EXPECT_GT(after_publish.bytes_copied, 0);
  EXPECT_EQ(after_publish.generations_retained, 1);

  Rng rng(3);
  for (int q = 0; q < 400; ++q) {
    std::vector<Scalar> point(dim);
    const auto row =
        data.data[static_cast<Index>(rng.UniformInt(0, data.size() - 1))];
    const double magnitude = (1 << (q % 4)) * 0.5;
    for (int d = 0; d < dim; ++d) {
      point[d] = row[d] + rng.Gaussian() * magnitude;
    }
    server.Query({.points = point});
  }
  EXPECT_EQ(server.stats().queries, 400);

  // One latency observation per call: 400 single-point queries, and a
  // publish only when it carries a build — a republish of the current
  // snapshot and the offline publish add none.
  server.Publish(server.snapshot());
  server.Publish(nullptr);
  EXPECT_EQ(server.stats().snapshots_published, 4);
  const auto histogram_count = [&](const std::string& name) -> int64_t {
    for (const obs::MetricSample& m : server.metrics().Snapshot()) {
      if (m.name == name) return m.count;
    }
    ADD_FAILURE() << "no histogram named " << name;
    return -1;
  };
  EXPECT_EQ(histogram_count("query_seconds"), 400);
  EXPECT_EQ(histogram_count("publish_seconds"), 2);
}

}  // namespace
}  // namespace alid

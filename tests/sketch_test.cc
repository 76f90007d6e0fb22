// Tests of the support-sketch branch-and-bound filter and the incremental
// snapshot export: sketch-pruned absorb scoring is bit-identical to full
// scoring on the stream and the serving side (with the fast path proven
// engaged), incremental snapshots are deep-equal to from-scratch rebuilds
// every generation, and the refresh pass's frontier map stage speculates
// deterministically.
#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/online_alid.h"
#include "core/support_sketch.h"
#include "data/synthetic.h"
#include "serve/cluster_server.h"
#include "serve/cluster_snapshot.h"
#include "test_util.h"

namespace alid {
namespace {

LabeledData Workload(Index n = 460, uint64_t seed = 91, bool overlap = false) {
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
  // Engage the sketch at small supports so the modest test workloads
  // exercise the fast path, not just large-a* production streams.
  opts.sketch.min_support = 16;
  return opts;
}

// The stream's arrival mix: the shuffled dataset followed by `probes`
// near-miss points — jittered copies of data rows at several magnitudes, so
// some collide with a cluster's LSH buckets while scoring far below its
// absorb threshold. Those are exactly the arrivals the sketch bound
// rejects.
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

// Full structural equality of two streams — including every counter the
// sketch filter must not perturb (sketch_prunes/sketch_exact are compared
// only when `same_sketch` is set: the on-vs-off harness expects them to
// differ, that being the point).
void ExpectIdenticalStreams(const OnlineAlid& a, const OnlineAlid& b,
                            bool same_sketch) {
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
  EXPECT_EQ(sa.refresh_rounds, sb.refresh_rounds);
  EXPECT_EQ(sa.refresh_speculations, sb.refresh_speculations);
  EXPECT_EQ(sa.refresh_conflicts, sb.refresh_conflicts);
  if (same_sketch) {
    EXPECT_EQ(sa.sketch_prunes, sb.sketch_prunes);
    EXPECT_EQ(sa.sketch_exact, sb.sketch_exact);
  }
}

TEST(SupportSketchTest, PrefixCoversMassWithDecreasingRestWeights) {
  // Concentrated weights: the prefix should stop early.
  std::vector<Scalar> weights(80, 0.2 / 77.0);
  weights[10] = 0.4;
  weights[40] = 0.3;
  weights[70] = 0.1;
  SupportSketchParams params;
  const SupportSketch sketch =
      BuildSupportSketch(std::span<const Scalar>(weights), params);
  ASSERT_TRUE(sketch.engaged());
  // Heaviest first, ties by position.
  EXPECT_EQ(sketch.ordinals[0], 10);
  EXPECT_EQ(sketch.ordinals[1], 40);
  EXPECT_EQ(sketch.ordinals[2], 70);
  ASSERT_EQ(sketch.weights.size(), sketch.rest_weights.size());
  Scalar prev_rest = 1.0;
  Scalar total = 0.0;
  for (Scalar w : weights) total += w;
  for (size_t t = 0; t < sketch.rest_weights.size(); ++t) {
    EXPECT_LT(sketch.rest_weights[t], prev_rest);
    prev_rest = sketch.rest_weights[t];
  }
  // The prefix stops as soon as it covers prefix_mass of the total, so the
  // final rest weight sits just under the (1 - prefix_mass) complement.
  EXPECT_LE(sketch.rest_weights.back(),
            (1.0 - params.prefix_mass) * total + 1e-12);
  EXPECT_LT(sketch.ordinals.size(), weights.size());  // and it IS a prefix
}

TEST(SupportSketchTest, DisengagesBelowMinSupportOrWhenDisabled) {
  std::vector<Scalar> weights(40, 1.0 / 40.0);
  SupportSketchParams params;  // min_support = 64 > 40
  EXPECT_FALSE(
      BuildSupportSketch(std::span<const Scalar>(weights), params).engaged());
  params.min_support = 8;
  EXPECT_TRUE(
      BuildSupportSketch(std::span<const Scalar>(weights), params).engaged());
  params.prefix_mass = 0.0;
  EXPECT_FALSE(
      BuildSupportSketch(std::span<const Scalar>(weights), params).engaged());
}

TEST(SupportSketchTest, TiesBreakByPositionAndRebuildsAreIdentical) {
  std::vector<Scalar> weights(100, 0.01);
  SupportSketchParams params;
  params.adaptive_mass = false;  // pin the fixed-mass prefix length
  const SupportSketch a =
      BuildSupportSketch(std::span<const Scalar>(weights), params);
  const SupportSketch b =
      BuildSupportSketch(std::span<const Scalar>(weights), params);
  ASSERT_TRUE(a.engaged());
  EXPECT_EQ(a.ordinals.size(), 90u);  // uniform: 90 members cover 0.9
  for (size_t t = 0; t < a.ordinals.size(); ++t) {
    EXPECT_EQ(a.ordinals[t], static_cast<Index>(t));  // ties -> position
  }
  EXPECT_EQ(a.ordinals, b.ordinals);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.rest_weights, b.rest_weights);
}

TEST(SupportSketchTest, AdaptiveMassDeepensFlatProfilesOnly) {
  SupportSketchParams params;  // adaptive_mass on by default
  ASSERT_TRUE(params.adaptive_mass);
  // Uniform weights are maximally flat (n_eff == n), so the effective mass
  // climbs to max_prefix_mass — deeper than the base 0.9 prefix, still a
  // strict prefix, still rebuilt identically.
  std::vector<Scalar> flat(100, 0.01);
  const SupportSketch deep =
      BuildSupportSketch(std::span<const Scalar>(flat), params);
  ASSERT_TRUE(deep.engaged());
  EXPECT_GT(deep.ordinals.size(), 90u);
  EXPECT_LT(deep.ordinals.size(), flat.size());
  const SupportSketch again =
      BuildSupportSketch(std::span<const Scalar>(flat), params);
  EXPECT_EQ(deep.ordinals, again.ordinals);
  EXPECT_EQ(deep.rest_weights, again.rest_weights);
  // A concentrated profile (n_eff ~ 4 of 80) keeps nearly the base mass:
  // the adaptive prefix barely moves relative to adaptive_mass = false.
  std::vector<Scalar> concentrated(80, 0.2 / 77.0);
  concentrated[10] = 0.4;
  concentrated[40] = 0.3;
  concentrated[70] = 0.1;
  SupportSketchParams fixed = params;
  fixed.adaptive_mass = false;
  const SupportSketch on =
      BuildSupportSketch(std::span<const Scalar>(concentrated), params);
  const SupportSketch off =
      BuildSupportSketch(std::span<const Scalar>(concentrated), fixed);
  ASSERT_TRUE(on.engaged());
  EXPECT_GE(on.ordinals.size(), off.ordinals.size());
  EXPECT_LE(on.ordinals.size(), off.ordinals.size() + 8);
}

TEST(SketchStreamTest, PrunedScoringBitIdenticalToFullScoring) {
  // The property the whole optimization rests on: streaming with the sketch
  // filter produces exactly the state streaming without it does — across a
  // batch x window x executor sweep — while the prune counters prove the
  // fast path actually ran.
  LabeledData data = Workload(420, 23, /*overlap=*/true);
  const std::vector<Scalar> flat = ArrivalMix(data, 120);
  int64_t total_prunes = 0;
  for (Index batch : {Index{23}, Index{64}}) {
    for (Index window : {Index{0}, Index{220}}) {
      for (int executors : {0, 4}) {
        std::unique_ptr<ThreadPool> pool;
        if (executors > 0) pool = std::make_unique<ThreadPool>(executors);
        OnlineAlidOptions on = Options(data);
        on.window = window;
        on.pool = pool.get();
        OnlineAlidOptions off = on;
        off.sketch.prefix_mass = 0.0;  // exact scoring everywhere
        SCOPED_TRACE(testing::Message() << "batch=" << batch << " window="
                                        << window << " executors="
                                        << executors);
        std::unique_ptr<OnlineAlid> with = RunStream(data, on, batch, flat);
        std::unique_ptr<OnlineAlid> without =
            RunStream(data, off, batch, flat);
        EXPECT_EQ(without->stats().sketch_prunes, 0);
        EXPECT_EQ(without->stats().sketch_exact, 0);
        total_prunes += with->stats().sketch_prunes;
        ExpectIdenticalStreams(*with, *without, /*same_sketch=*/false);
      }
    }
  }
  // The sweep must exercise the fast path, or the equality above proves
  // nothing about the bound.
  EXPECT_GT(total_prunes, 0);
}

TEST(SketchStreamTest, SketchCountersDeterministicAcrossExecutors) {
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
    ExpectIdenticalStreams(*serial, *streamed, /*same_sketch=*/true);
  }
}

TEST(SketchServeTest, AssignAndTopKBitIdenticalWithSketchOnOrOff) {
  LabeledData data = Workload(440, 29, /*overlap=*/true);
  const std::vector<Scalar> flat = ArrivalMix(data, 0);
  OnlineAlidOptions opts = Options(data);
  std::unique_ptr<OnlineAlid> online = RunStream(data, opts, 64, flat);
  ASSERT_GT(online->clusters().size(), 1u);

  const auto with = ClusterSnapshot::FromStream(*online);
  ClusterSnapshotOptions off_options;
  off_options.affinity = opts.affinity;
  off_options.lsh = opts.lsh;
  off_options.absorb_slack = opts.absorb_slack;
  off_options.sketch.prefix_mass = 0.0;
  const auto without = ClusterSnapshot::FromClusters(
      online->oracle().data(), online->clusters(), off_options,
      static_cast<uint64_t>(online->size()));

  const int dim = data.data.dim();
  Rng rng(11);
  int64_t prunes = 0;
  for (int q = 0; q < 600; ++q) {
    std::vector<Scalar> point(dim);
    if (q % 6 == 5) {
      for (int d = 0; d < dim; ++d) point[d] = rng.Uniform(-900.0, 900.0);
    } else {
      // Jitter sweep through the collide-but-fail band (the prune region
      // sits between "absorbs" and "no LSH collision at all").
      const auto row =
          data.data[static_cast<Index>(rng.UniformInt(0, data.size() - 1))];
      const double magnitude = 2.0 * (q % 5);  // 0, 2, 4, 6, 8
      for (int d = 0; d < dim; ++d) {
        point[d] = row[d] + rng.Gaussian() * magnitude;
      }
    }
    const AssignOutcome a = with->Assign(point);
    const AssignOutcome b = without->Assign(point);
    EXPECT_EQ(a.cluster, b.cluster) << "query " << q;
    EXPECT_EQ(a.affinity, b.affinity) << "query " << q;
    EXPECT_EQ(a.margin, b.margin) << "query " << q;
    EXPECT_EQ(b.sketch_prunes, 0);
    prunes += a.sketch_prunes;
    for (int k : {1, 3, 8}) {
      const auto ta = with->TopKClusters(point, k);
      const auto tb = without->TopKClusters(point, k);
      ASSERT_EQ(ta.size(), tb.size()) << "query " << q << " k=" << k;
      for (size_t i = 0; i < ta.size(); ++i) {
        EXPECT_EQ(ta[i].cluster, tb[i].cluster) << "query " << q;
        EXPECT_EQ(ta[i].affinity, tb[i].affinity) << "query " << q;
        EXPECT_EQ(ta[i].absorbable, tb[i].absorbable) << "query " << q;
      }
    }
  }
  EXPECT_GT(prunes, 0) << "the serve fast path never engaged";
}

// Streams `data` while publishing a chained incremental snapshot and a
// from-scratch snapshot every batch, deep-comparing the two; returns the
// total rows the incremental chain re-used. Phase 2 (after the dataset is
// exhausted) feeds batches localized around one planted cluster — the
// steady-state shape where ingest leaves most clusters untouched.
void RunIncrementalVsScratch(const LabeledData& data, Index window,
                             int64_t* rows_reused_out) {
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
    incremental = ClusterSnapshot::FromStream(online, nullptr, incremental);
    const auto scratch = ClusterSnapshot::FromStream(online);
    SCOPED_TRACE(testing::Message() << "generation " << online.size());

    EXPECT_EQ(scratch->build_info().rows_reused, 0);
    EXPECT_EQ(scratch->build_info().clusters_reused, 0);
    rows_reused += incremental->build_info().rows_reused;

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
      const auto sa = incremental->sketch(c);
      const auto sb = scratch->sketch(c);
      ASSERT_EQ(sa.members.size(), sb.members.size()) << "cluster " << c;
      for (size_t t = 0; t < sa.members.size(); ++t) {
        EXPECT_EQ(sa.members[t], sb.members[t]) << "cluster " << c;
        EXPECT_EQ(sa.weights[t], sb.weights[t]) << "cluster " << c;
        EXPECT_EQ(sa.rest_weights[t], sb.rest_weights[t]) << "cluster " << c;
      }
    }
    for (size_t q = 0; q < probes.size(); ++q) {
      const AssignOutcome a = incremental->Assign(probes[q]);
      const AssignOutcome b = scratch->Assign(probes[q]);
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
}

TEST(SketchSnapshotTest, IncrementalExportDeepEqualsFromScratch) {
  // Every generation, the incremental export (chained on its predecessor)
  // must be indistinguishable from a from-scratch rebuild: same clusters,
  // rows, weights, densities, sketches and answers, with every block
  // holding the stream's own scorer and every density matching x^T A x of
  // the served support — and the steady-state phase must actually re-use,
  // or the publish optimization silently lost itself.
  LabeledData data = Workload(420, 17);
  int64_t rows_reused = 0;
  RunIncrementalVsScratch(data, /*window=*/0, &rows_reused);
  EXPECT_GT(rows_reused, 0);
}

TEST(SketchSnapshotTest, IncrementalExportDeepEqualsFromScratchUnderWindow) {
  // The windowed variant churns every cluster through expiry repairs and
  // slot re-use — the case where serving a stale inherited row would be
  // catastrophic. Deep equality every generation is the regression net;
  // re-use is not required here (expiry may legitimately touch everything).
  LabeledData data = Workload(420, 17);
  int64_t rows_reused = 0;
  RunIncrementalVsScratch(data, /*window=*/260, &rows_reused);
}

TEST(SketchSnapshotTest, ReuseRequiresCompatibleParameters) {
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
  // A predecessor with a different absorb slack is rejected wholesale.
  OnlineAlidOptions other = opts;
  other.absorb_slack = opts.absorb_slack / 2;
  std::unique_ptr<OnlineAlid> online2 =
      RunStream(data, other, 64, ArrivalMix(data, 0));
  const auto incompatible =
      ClusterSnapshot::FromStream(*online2, nullptr, first);
  EXPECT_EQ(incompatible->build_info().clusters_reused, 0);
}

TEST(SketchStreamTest, ParallelRefreshSpeculatesAndStaysDeterministic) {
  // A large unassigned pool at refresh time drives the frontier past 1, so
  // the map stage actually speculates — and the streamed state must still
  // be bit-identical across executor counts.
  LabeledData data = Workload(480, 41);
  OnlineAlidOptions opts = Options(data);
  opts.refresh_interval = 400;  // let the pool grow before the first pass
  const std::vector<Scalar> flat = ArrivalMix(data, 40);
  std::unique_ptr<OnlineAlid> serial = RunStream(data, opts, 80, flat);
  EXPECT_GT(serial->stats().refresh_rounds, 0);
  EXPECT_GT(serial->stats().refresh_speculations, 0);
  for (int executors : {2, 8}) {
    ThreadPool pool(executors);
    OnlineAlidOptions parallel = opts;
    parallel.pool = &pool;
    std::unique_ptr<OnlineAlid> streamed = RunStream(data, parallel, 80, flat);
    SCOPED_TRACE(testing::Message() << "executors=" << executors);
    ExpectIdenticalStreams(*serial, *streamed, /*same_sketch=*/true);
  }
  // frontier = 1 pins the strictly-serial peel; the pool contents it
  // produces may differ from the speculative schedule's, but it must be
  // self-consistent across executors too.
  OnlineAlidOptions pinned = opts;
  pinned.refresh_frontier = 1;
  std::unique_ptr<OnlineAlid> pinned_serial = RunStream(data, pinned, 80, flat);
  EXPECT_EQ(pinned_serial->stats().refresh_speculations, 0);
  ThreadPool pool(4);
  pinned.pool = &pool;
  std::unique_ptr<OnlineAlid> pinned_parallel =
      RunStream(data, pinned, 80, flat);
  ExpectIdenticalStreams(*pinned_serial, *pinned_parallel,
                         /*same_sketch=*/true);
}

TEST(SketchServeTest, ServerSurfacesSketchAndPublishTelemetry) {
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
  EXPECT_EQ(after_publish.publish_seconds.size(), 2u);
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
  const ServeStatsView view = server.stats();
  EXPECT_GT(view.sketch_prunes + view.sketch_exact, 0);
  server.ResetStats();
  const ServeStatsView reset = server.stats();
  EXPECT_EQ(reset.sketch_prunes, 0);
  EXPECT_EQ(reset.rows_reused, 0);
  EXPECT_EQ(reset.bytes_shared, 0);
  EXPECT_TRUE(reset.publish_seconds.empty());
}

}  // namespace
}  // namespace alid

// Contracts of the adversarial stream scenario generators
// (bench/scenarios.h): seed-determinism, batch-order stability (a batch is
// a pure function of (config, batch_index) — no generator state threads
// across batches), the shapes each scenario promises (linear drift walk,
// storm-phased burst lifetimes, Zipf head mass), and the end-to-end burst
// property the bench reports on: streaming the burst scenario through a
// windowed OnlineAlid provably churns clusters (births AND dissolutions),
// and a quality floor per scenario: the live window's AVG-F against the
// planted sources, at reduced scale.
#include "scenarios.h"

#include <cmath>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "core/online_alid.h"

namespace alid::bench {
namespace {

// Reference live-window AVG-F of the reduced-scale streams of the quality
// floor tests below, measured with a cold ingest that re-ran Algorithm 2
// from one seed per absorbed arrival and per expiry repair (truncated to 4
// decimals). The warm, coalesced ingest may not fall more than 0.01 below.
constexpr double kDriftReferenceAvgF = 0.8380;
constexpr double kBurstReferenceAvgF = 0.9221;
constexpr double kHeavyTailReferenceAvgF = 0.8603;
constexpr double kEmbeddingReferenceAvgF = 0.8000;

TEST(ScenarioTest, DriftIsSeedDeterministic) {
  DriftScenarioConfig config;
  for (int t : {0, 3, 17}) {
    const ScenarioBatch a = DriftBatch(config, t);
    const ScenarioBatch b = DriftBatch(config, t);
    EXPECT_EQ(a.rows, b.rows);
    EXPECT_EQ(a.noise_rows, b.noise_rows);
    EXPECT_EQ(a.points, b.points) << "batch " << t;
  }
  DriftScenarioConfig other = config;
  other.seed += 1;
  EXPECT_NE(DriftBatch(config, 5).points, DriftBatch(other, 5).points);
}

TEST(ScenarioTest, BurstIsSeedDeterministic) {
  BurstScenarioConfig config;
  for (int t : {0, 7, 30}) {
    EXPECT_EQ(BurstBatch(config, t).points, BurstBatch(config, t).points);
  }
}

TEST(ScenarioTest, HeavyTailIsSeedDeterministic) {
  HeavyTailScenarioConfig config;
  for (int t : {0, 9, 25}) {
    EXPECT_EQ(HeavyTailBatch(config, t).points,
              HeavyTailBatch(config, t).points);
  }
}

// Batch k computed cold must equal batch k computed after a sequential
// sweep: nothing about a batch may depend on which batches were generated
// before it (the registry may run --filter subsets, shards, or warmup
// passes in any order).
TEST(ScenarioTest, BatchesAreOrderStable) {
  DriftScenarioConfig drift;
  BurstScenarioConfig burst;
  HeavyTailScenarioConfig tail;
  const ScenarioBatch drift_cold = DriftBatch(drift, 12);
  const ScenarioBatch burst_cold = BurstBatch(burst, 12);
  const ScenarioBatch tail_cold = HeavyTailBatch(tail, 12);
  for (int t = 0; t <= 12; ++t) {
    DriftBatch(drift, t);
    BurstBatch(burst, t);
    HeavyTailBatch(tail, t);
  }
  EXPECT_EQ(DriftBatch(drift, 12).points, drift_cold.points);
  EXPECT_EQ(BurstBatch(burst, 12).points, burst_cold.points);
  EXPECT_EQ(HeavyTailBatch(tail, 12).points, tail_cold.points);
}

TEST(ScenarioTest, DriftCentersWalkLinearly) {
  DriftScenarioConfig config;
  for (int c = 0; c < config.num_clusters; ++c) {
    const std::vector<Scalar> at0 = DriftCenterAt(config, c, 0);
    const std::vector<Scalar> at1 = DriftCenterAt(config, c, 1);
    const std::vector<Scalar> at9 = DriftCenterAt(config, c, 9);
    double step = 0.0;
    double nine = 0.0;
    for (int d = 0; d < config.dim; ++d) {
      step += (at1[d] - at0[d]) * (at1[d] - at0[d]);
      nine += (at9[d] - at0[d]) * (at9[d] - at0[d]);
    }
    EXPECT_NEAR(std::sqrt(step), config.drift_per_batch, 1e-6);
    EXPECT_NEAR(std::sqrt(nine), 9.0 * config.drift_per_batch, 1e-6);
  }
}

TEST(ScenarioTest, BurstSlotsLiveForLifetimeBatchesPerPeriod) {
  BurstScenarioConfig config;
  for (int s = 0; s < config.num_slots; ++s) {
    int first_live = -1;
    for (int t = 0; t < config.period && first_live < 0; ++t) {
      if (BurstSlotLiveAt(config, s, t)) first_live = t;
    }
    ASSERT_GE(first_live, 0) << "slot " << s;
    // Phase-aligned window of two full periods: exactly two generations.
    int live = 0;
    for (int t = first_live; t < first_live + 2 * config.period; ++t) {
      if (BurstSlotLiveAt(config, s, t)) ++live;
    }
    EXPECT_EQ(live, 2 * config.lifetime) << "slot " << s;
    // The generation index advances once per period.
    int generation = -1;
    ASSERT_TRUE(
        BurstSlotLiveAt(config, s, first_live + config.period, &generation));
    EXPECT_EQ(generation, 1);
  }
}

TEST(ScenarioTest, HeavyTailHeadDominates) {
  HeavyTailScenarioConfig config;
  double total = 0.0;
  for (int c = 0; c < config.num_clusters; ++c) {
    total += HeavyTailClusterProbability(config, c);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_GT(
      HeavyTailClusterProbability(config, 0),
      10.0 * HeavyTailClusterProbability(config, config.num_clusters - 1));

  // The realized batch composition tracks the head mass.
  const ScenarioBatch batch = HeavyTailBatch(config, 0);
  EXPECT_EQ(batch.rows,
            config.points_per_batch +
                static_cast<Index>(config.noise_fraction *
                                   static_cast<double>(
                                       config.points_per_batch)));
  EXPECT_GT(batch.active_sources, 1);
  EXPECT_LT(batch.active_sources, config.num_clusters);
}

TEST(ScenarioTest, EmbeddingIsSeedDeterministicAndOrderStable) {
  EmbeddingScenarioConfig config;
  const ScenarioBatch cold = EmbeddingBatch(config, 12);
  for (int t : {0, 5, 12}) {
    EXPECT_EQ(EmbeddingBatch(config, t).points,
              EmbeddingBatch(config, t).points);
  }
  for (int t = 0; t <= 12; ++t) EmbeddingBatch(config, t);
  EXPECT_EQ(EmbeddingBatch(config, 12).points, cold.points);
  EmbeddingScenarioConfig other = config;
  other.seed += 1;
  EXPECT_NE(EmbeddingBatch(config, 3).points,
            EmbeddingBatch(other, 3).points);
}

TEST(ScenarioTest, EmbeddingBasisIsOrthonormal) {
  EmbeddingScenarioConfig config;
  const std::vector<Scalar> basis = EmbeddingBasis(config);
  ASSERT_EQ(basis.size(), static_cast<size_t>(config.manifold_dim) *
                              static_cast<size_t>(config.dim));
  for (int j = 0; j < config.manifold_dim; ++j) {
    for (int k = j; k < config.manifold_dim; ++k) {
      double dot = 0.0;
      for (int d = 0; d < config.dim; ++d) {
        dot += basis[static_cast<size_t>(j) * config.dim + d] *
               basis[static_cast<size_t>(k) * config.dim + d];
      }
      EXPECT_NEAR(dot, j == k ? 1.0 : 0.0, 1e-9) << j << "," << k;
    }
  }
  EXPECT_EQ(EmbeddingBasis(config), basis);  // pure in the config
}

// Cluster members live near the manifold: removing the span of the basis
// leaves only the ambient jitter, and the scatter along axis 0 of the
// manifold is anisotropy-times wider than along the last axis.
TEST(ScenarioTest, EmbeddingBatchesAreAnisotropicAndNearTheManifold) {
  EmbeddingScenarioConfig config;
  config.points_per_batch = 400;
  config.noise_fraction = 0.0;  // isolate the cluster geometry
  const std::vector<Scalar> basis = EmbeddingBasis(config);
  const ScenarioBatch batch = EmbeddingBatch(config, 0);
  ASSERT_EQ(batch.rows, config.points_per_batch);

  std::vector<double> axis_sq(config.manifold_dim, 0.0);
  std::vector<int> axis_n(config.manifold_dim, 0);
  double residual_sq = 0.0;
  for (Index i = 0; i < batch.rows; ++i) {
    const int c = static_cast<int>(i % config.num_clusters);
    const std::vector<Scalar> center = EmbeddingCenterAt(config, c);
    std::vector<double> delta(config.dim);
    for (int d = 0; d < config.dim; ++d) {
      delta[d] = batch.points[static_cast<size_t>(i) * config.dim + d] -
                 center[d];
    }
    // Project the offset onto each manifold axis; the remainder is the
    // off-manifold residual.
    for (int j = 0; j < config.manifold_dim; ++j) {
      double coord = 0.0;
      for (int d = 0; d < config.dim; ++d) {
        coord += delta[d] * basis[static_cast<size_t>(j) * config.dim + d];
      }
      axis_sq[j] += coord * coord;
      ++axis_n[j];
      for (int d = 0; d < config.dim; ++d) {
        delta[d] -= coord * basis[static_cast<size_t>(j) * config.dim + d];
      }
    }
    for (int d = 0; d < config.dim; ++d) residual_sq += delta[d] * delta[d];
  }
  const double wide = std::sqrt(axis_sq[0] / axis_n[0]);
  const double narrow = std::sqrt(axis_sq[config.manifold_dim - 1] /
                                  axis_n[config.manifold_dim - 1]);
  EXPECT_NEAR(wide, EmbeddingAxisScale(config, 0), 0.25 * wide);
  EXPECT_GT(wide, 3.0 * narrow);  // anisotropy = 8 with sampling slack
  // Per-dimension residual stddev ~ ambient_noise * spread.
  const double residual_rms = std::sqrt(
      residual_sq / (static_cast<double>(batch.rows) *
                     (config.dim - config.manifold_dim)));
  EXPECT_LT(residual_rms, 3.0 * config.ambient_noise * config.spread);
  EXPECT_GT(residual_rms, 0.0);
}

// The property the burst bench reports on: streamed through a windowed
// OnlineAlid, the generation storms force real cluster churn — clusters are
// born AND dissolved, not merely accumulated.
TEST(ScenarioTest, BurstStreamChurnsClusters) {
  BurstScenarioConfig config;
  config.points_per_slot = 16;
  const int num_batches = 30;

  const double intra =
      std::sqrt(2.0 * static_cast<double>(config.dim)) * config.spread;
  OnlineAlidOptions opts;
  opts.affinity = {.k = -std::log(0.9) / intra, .p = 2.0};
  opts.lsh.segment_length = 3.0 * intra;
  opts.window = static_cast<Index>(config.num_slots * config.points_per_slot *
                                   config.lifetime * 3 / 2);
  OnlineAlid online(config.dim, opts);
  for (int t = 0; t < num_batches; ++t) {
    const ScenarioBatch batch = BurstBatch(config, t);
    if (batch.rows > 0) online.InsertBatch(batch.points);
  }
  online.Refresh();
  EXPECT_GT(online.stats().clusters_born, 0);
  EXPECT_GT(online.stats().clusters_dissolved, 0);
  EXPECT_GT(online.stats().evicted, 0);
}

TEST(ScenarioTest, SourceLabelsCoverEveryRow) {
  const std::vector<ScenarioBatch> batches{
      DriftBatch(DriftScenarioConfig{}, 3),
      BurstBatch(BurstScenarioConfig{}, 3),
      HeavyTailBatch(HeavyTailScenarioConfig{}, 3),
      EmbeddingBatch(EmbeddingScenarioConfig{}, 3)};
  for (const ScenarioBatch& batch : batches) {
    ASSERT_EQ(static_cast<Index>(batch.source.size()), batch.rows);
    // Cluster rows come first and carry a source; the far noise follows.
    const Index members = batch.rows - batch.noise_rows;
    for (Index r = 0; r < batch.rows; ++r) {
      EXPECT_EQ(batch.source[r] >= 0, r < members) << "row " << r;
    }
  }
}

// Streams `num_batches` batches of a scenario through a windowed OnlineAlid
// with the scenario bench's options and returns the live window's AVG-F
// against the planted sources.
double StreamedAvgF(int dim, double spread, Index window, int num_batches,
                    const std::function<ScenarioBatch(int)>& batch_at) {
  const double intra = std::sqrt(2.0 * static_cast<double>(dim)) * spread;
  OnlineAlidOptions opts;
  opts.affinity = {.k = -std::log(0.9) / intra, .p = 2.0};
  opts.lsh.segment_length = 3.0 * intra;
  opts.refresh_interval = 256;
  opts.window = window;
  OnlineAlid online(dim, opts);
  SlotSources sources;
  for (int t = 0; t < num_batches; ++t) {
    const ScenarioBatch batch = batch_at(t);
    if (batch.rows > 0) {
      sources.Record(online.InsertBatch(batch.points), batch.source);
    }
  }
  online.Refresh();
  return sources.LiveAvgF(online);
}

TEST(ScenarioTest, DriftStreamKeepsItsQualityFloor) {
  DriftScenarioConfig config;
  config.points_per_batch = 36;
  const double f = StreamedAvgF(
      config.dim, config.spread,
      static_cast<Index>(6 * config.points_per_batch * 1.15), 24,
      [&](int t) { return DriftBatch(config, t); });
  EXPECT_GE(f, kDriftReferenceAvgF - 0.01);
}

TEST(ScenarioTest, BurstStreamKeepsItsQualityFloor) {
  BurstScenarioConfig config;
  config.points_per_slot = 8;
  const double f = StreamedAvgF(
      config.dim, config.spread,
      static_cast<Index>(config.num_slots * config.points_per_slot *
                         config.lifetime * 3 / 2),
      36, [&](int t) { return BurstBatch(config, t); });
  EXPECT_GE(f, kBurstReferenceAvgF - 0.01);
}

TEST(ScenarioTest, HeavyTailStreamKeepsItsQualityFloor) {
  HeavyTailScenarioConfig config;
  config.points_per_batch = 48;
  const double f = StreamedAvgF(
      config.dim, config.spread, 16 * config.points_per_batch, 30,
      [&](int t) { return HeavyTailBatch(config, t); });
  EXPECT_GE(f, kHeavyTailReferenceAvgF - 0.01);
}

TEST(ScenarioTest, EmbeddingStreamKeepsItsQualityFloor) {
  EmbeddingScenarioConfig config;
  config.points_per_batch = 36;
  const double f = StreamedAvgF(
      config.dim, config.spread, 12 * config.points_per_batch, 24,
      [&](int t) { return EmbeddingBatch(config, t); });
  EXPECT_GE(f, kEmbeddingReferenceAvgF - 0.01);
}

}  // namespace
}  // namespace alid::bench

// End-to-end tests of the ALID detector (Algorithm 2 + peeling).
#include <algorithm>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "core/alid.h"
#include "data/synthetic.h"
#include "eval/metrics.h"

namespace alid {
namespace {

struct Harness {
  explicit Harness(const LabeledData& labeled, AlidOptions opts = {}) {
    affinity = std::make_unique<AffinityFunction>(
        AffinityParams{.k = labeled.suggested_k, .p = 2.0});
    oracle = std::make_unique<LazyAffinityOracle>(labeled.data, *affinity);
    LshParams lp;
    lp.num_tables = 8;
    lp.num_projections = 6;
    lp.segment_length = labeled.suggested_lsh_r;
    lsh = std::make_unique<LshIndex>(labeled.data, lp);
    detector = std::make_unique<AlidDetector>(*oracle, *lsh, opts);
  }
  std::unique_ptr<AffinityFunction> affinity;
  std::unique_ptr<LazyAffinityOracle> oracle;
  std::unique_ptr<LshIndex> lsh;
  std::unique_ptr<AlidDetector> detector;
};

LabeledData SmallWorkload(Index n = 600, uint64_t seed = 4) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 12;
  cfg.num_clusters = 4;
  cfg.regime = SyntheticRegime::kProportional;
  cfg.omega = 0.6;  // 60% ground truth, 40% noise
  cfg.mean_box = 300.0;
  cfg.seed = seed;
  return MakeSynthetic(cfg);
}

TEST(AlidDetectorTest, DetectOneFindsTheSeedCluster) {
  LabeledData data = SmallWorkload();
  Harness h(data);
  const Index seed = data.true_clusters[0][0];
  Cluster c = h.detector->DetectOne(seed);
  EXPECT_GT(c.density, 0.5);
  // Most members belong to the seed's true cluster.
  std::set<Index> truth(data.true_clusters[0].begin(),
                        data.true_clusters[0].end());
  int hits = 0;
  for (Index g : c.members) hits += truth.count(g) != 0;
  EXPECT_GT(static_cast<double>(hits) / c.members.size(), 0.9);
  EXPECT_GT(static_cast<double>(hits) / truth.size(), 0.7);
}

TEST(AlidDetectorTest, ClusterWeightsAreSimplex) {
  LabeledData data = SmallWorkload();
  Harness h(data);
  Cluster c = h.detector->DetectOne(data.true_clusters[1][0]);
  Scalar sum = 0.0;
  for (Scalar w : c.weights) {
    EXPECT_GT(w, 0.0);
    sum += w;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_TRUE(std::is_sorted(c.members.begin(), c.members.end()));
}

TEST(AlidDetectorTest, NoiseSeedYieldsLowDensityCluster) {
  LabeledData data = SmallWorkload();
  Harness h(data);
  // Find a noise item.
  Index noise_seed = -1;
  for (Index i = 0; i < data.size(); ++i) {
    if (data.labels[i] < 0) {
      noise_seed = i;
      break;
    }
  }
  ASSERT_GE(noise_seed, 0);
  Cluster c = h.detector->DetectOne(noise_seed);
  EXPECT_LT(c.density, h.detector->options().density_threshold);
}

TEST(AlidDetectorTest, DetectAllCoversEveryItemExactlyOnce) {
  LabeledData data = SmallWorkload(400);
  Harness h(data);
  DetectionResult all = h.detector->DetectAll();
  std::vector<int> seen(data.size(), 0);
  for (const Cluster& c : all.clusters) {
    for (Index g : c.members) ++seen[g];
  }
  for (Index i = 0; i < data.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "item " << i << " peeled " << seen[i] << " times";
  }
}

TEST(AlidDetectorTest, FilteredKeepsOnlyDenseClusters) {
  LabeledData data = SmallWorkload();
  Harness h(data);
  DetectionResult all = h.detector->DetectAll();
  DetectionResult kept = all.Filtered(0.75);
  EXPECT_LT(kept.clusters.size(), all.clusters.size());
  for (const Cluster& c : kept.clusters) {
    EXPECT_GE(c.density, 0.75);
    EXPECT_GE(c.members.size(), 2u);
  }
}

TEST(AlidDetectorTest, RecoversAllPlantedClusters) {
  LabeledData data = SmallWorkload();
  Harness h(data);
  DetectionResult result = h.detector->DetectAll().Filtered(0.75);
  const double avg_f = AverageF1(data.true_clusters, result);
  EXPECT_GT(avg_f, 0.85) << "AVG-F too low on a clean synthetic workload";
}

TEST(AlidDetectorTest, ExcludeMaskKeepsPeeledItemsOut) {
  LabeledData data = SmallWorkload();
  Harness h(data);
  std::vector<bool> exclude(data.size(), false);
  for (Index g : data.true_clusters[0]) {
    if (g != data.true_clusters[0][0]) exclude[g] = true;
  }
  Cluster c = h.detector->DetectOne(data.true_clusters[0][0], &exclude);
  for (Index g : c.members) {
    EXPECT_FALSE(exclude[g]) << "peeled item " << g << " re-detected";
  }
}

TEST(AlidDetectorTest, DetectFromADetectedClusterKeepsItsMembers) {
  LabeledData data = SmallWorkload();
  Harness h(data);
  const Cluster cold = h.detector->DetectOne(data.true_clusters[0][0]);
  ASSERT_GT(cold.members.size(), 2u);
  const Cluster warm = h.detector->DetectFrom(cold.members, cold.weights, {});
  EXPECT_EQ(warm.members, cold.members);
  EXPECT_NEAR(warm.density, cold.density, 1e-9);
}

TEST(AlidDetectorTest, DetectFromAbsorbsAHeldOutMember) {
  LabeledData data = SmallWorkload();
  Harness h(data);
  const Index seed = data.true_clusters[0][0];
  const Cluster full = h.detector->DetectOne(seed);
  ASSERT_GT(full.members.size(), 2u);
  // Hold out the heaviest member other than the seed.
  size_t pick = full.members[0] == seed ? 1 : 0;
  for (size_t t = 0; t < full.members.size(); ++t) {
    if (full.members[t] != seed && full.weights[t] > full.weights[pick]) {
      pick = t;
    }
  }
  const Index held_out = full.members[pick];
  std::vector<bool> hide(data.size(), false);
  hide[held_out] = true;
  const Cluster partial = h.detector->DetectOne(seed, &hide);
  ASSERT_FALSE(std::binary_search(partial.members.begin(),
                                  partial.members.end(), held_out));
  const Cluster warm =
      h.detector->DetectFrom(partial.members, partial.weights, {held_out});
  EXPECT_TRUE(std::binary_search(warm.members.begin(), warm.members.end(),
                                 held_out))
      << "held-out member " << held_out << " not absorbed";
  EXPECT_GE(warm.density, partial.density - 1e-12);
}

TEST(AlidDetectorTest, DetectFromKeepsExcludedItemsOut) {
  LabeledData data = SmallWorkload();
  Harness h(data);
  const IndexList& truth = data.true_clusters[0];
  // Start from a few members; hide every other member of the rest of the
  // planted cluster, which the warm ROI/CIVS search would otherwise reach.
  const IndexList start(truth.begin(), truth.begin() + 4);
  const std::vector<Scalar> uniform(start.size(), 1.0);
  std::vector<bool> exclude(data.size(), false);
  for (size_t t = 4; t < truth.size(); t += 2) exclude[truth[t]] = true;
  const Cluster warm = h.detector->DetectFrom(start, uniform, {}, &exclude);
  EXPECT_GT(warm.members.size(), start.size());
  for (Index g : warm.members) {
    EXPECT_FALSE(exclude[g]) << "excluded item " << g << " detected";
  }
}

TEST(AlidDetectorTest, TouchesFarFewerEntriesThanFullMatrix) {
  LabeledData data = SmallWorkload(800);
  Harness h(data);
  h.oracle->ResetCounters();
  h.detector->DetectAll();
  const int64_t n = data.size();
  EXPECT_LT(h.oracle->entries_computed(), n * n / 4)
      << "lazy evaluation should avoid most of the affinity matrix";
}

TEST(AlidDetectorTest, JumpRoiAblationStillDetects) {
  LabeledData data = SmallWorkload();
  AlidOptions opts;
  opts.logistic_roi_growth = false;
  Harness h(data, opts);
  DetectionResult result = h.detector->DetectAll().Filtered(0.75);
  EXPECT_GT(AverageF1(data.true_clusters, result), 0.8);
}

TEST(AlidDetectorTest, CenterOnlyCivsAblationDegradesOrMatches) {
  LabeledData data = SmallWorkload();
  Harness all_support(data);
  AlidOptions opts;
  opts.civs.query_from_all_support = false;
  Harness center_only(data, opts);
  const double f_all = AverageF1(
      data.true_clusters, all_support.detector->DetectAll().Filtered(0.75));
  const double f_center = AverageF1(
      data.true_clusters, center_only.detector->DetectAll().Filtered(0.75));
  EXPECT_GE(f_all, f_center - 0.05);
}

// Property sweep over the three a* regimes of Table 1: detection quality is
// regime-independent (the regimes only change the cost profile).
class AlidRegimeProperty
    : public ::testing::TestWithParam<SyntheticRegime> {};

TEST_P(AlidRegimeProperty, HighQualityInEveryRegime) {
  SyntheticConfig cfg;
  cfg.n = 500;
  cfg.dim = 12;
  cfg.num_clusters = 4;
  cfg.regime = GetParam();
  cfg.omega = 0.6;
  cfg.eta = 0.9;
  cfg.P = 240;
  cfg.mean_box = 300.0;
  cfg.seed = 31;
  LabeledData data = MakeSynthetic(cfg);
  Harness h(data);
  DetectionResult result = h.detector->DetectAll().Filtered(0.75);
  EXPECT_GT(AverageF1(data.true_clusters, result), 0.8);
}

INSTANTIATE_TEST_SUITE_P(Regimes, AlidRegimeProperty,
                         ::testing::Values(SyntheticRegime::kProportional,
                                           SyntheticRegime::kSublinear,
                                           SyntheticRegime::kBounded));

}  // namespace
}  // namespace alid

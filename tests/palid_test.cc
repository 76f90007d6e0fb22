// Tests of Parallel ALID (Algorithm 3): seed sampling, map/reduce semantics,
// executor-count invariance of the detected structure.
#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/palid.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "test_util.h"

namespace alid {
namespace {

struct PalidHarness {
  explicit PalidHarness(const LabeledData& labeled, PalidOptions opts = {}) {
    affinity = std::make_unique<AffinityFunction>(
        AffinityParams{.k = labeled.suggested_k, .p = 2.0});
    oracle = std::make_unique<LazyAffinityOracle>(labeled.data, *affinity);
    LshParams lp;
    lp.num_tables = 8;
    lp.num_projections = 6;
    lp.segment_length = labeled.suggested_lsh_r;
    lsh = std::make_unique<LshIndex>(labeled.data, lp);
    palid = std::make_unique<Palid>(*oracle, *lsh, opts);
  }
  std::unique_ptr<AffinityFunction> affinity;
  std::unique_ptr<LazyAffinityOracle> oracle;
  std::unique_ptr<LshIndex> lsh;
  std::unique_ptr<Palid> palid;
};

LabeledData Workload(Index n = 600) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 12;
  cfg.num_clusters = 4;
  cfg.regime = SyntheticRegime::kProportional;
  cfg.omega = 0.6;
  cfg.mean_box = 300.0;
  cfg.seed = 17;
  return MakeSynthetic(cfg);
}

TEST(PalidTest, SeedsComeFromLargeBuckets) {
  LabeledData data = Workload();
  PalidHarness h(data);
  IndexList seeds = h.palid->SampleSeeds();
  EXPECT_FALSE(seeds.empty());
  // Nearly all sampled seeds should be ground-truth items: noise rarely fills
  // an LSH bucket with > 5 items.
  int truth = 0;
  for (Index s : seeds) truth += data.labels[s] >= 0;
  EXPECT_GT(static_cast<double>(truth) / seeds.size(), 0.9);
}

TEST(PalidTest, DetectsThePlantedClusters) {
  LabeledData data = Workload();
  PalidHarness h(data);
  PalidStats stats;
  DetectionResult result = h.palid->Detect(&stats).Filtered(0.75);
  EXPECT_GT(AverageF1(data.true_clusters, result), 0.85);
  EXPECT_GT(stats.num_seeds, 0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GE(stats.total_task_seconds, 0.0);
}

TEST(PalidTest, ReduceCollapsesDuplicateDetections) {
  LabeledData data = Workload();
  PalidHarness h(data);
  DetectionResult result = h.palid->Detect();
  // Many seeds per cluster, but the reduce keeps roughly one surviving
  // cluster per dominant cluster (plus possibly small weak ones).
  DetectionResult dense = result.Filtered(0.75);
  EXPECT_LE(dense.clusters.size(), 8u);
  EXPECT_GE(dense.clusters.size(), 3u);
}

TEST(PalidTest, AssignmentPrefersDensestCluster) {
  LabeledData data = Workload();
  PalidHarness h(data);
  DetectionResult result = h.palid->Detect();
  auto labels = result.Assignment(data.size());
  for (size_t c = 0; c < result.clusters.size(); ++c) {
    for (Index g : result.clusters[c].members) {
      ASSERT_GE(labels[g], 0);
      // The assigned cluster's density is at least this cluster's.
      EXPECT_GE(result.clusters[labels[g]].density,
                result.clusters[c].density - 1e-12);
    }
  }
}

TEST(PalidTest, ExecutorCountDoesNotChangeQuality) {
  LabeledData data = Workload(400);
  PalidOptions one;
  one.num_executors = 1;
  PalidOptions four;
  four.num_executors = 4;
  PalidHarness h1(data, one);
  PalidHarness h4(data, four);
  const double f1 = AverageF1(data.true_clusters,
                              h1.palid->Detect().Filtered(0.75));
  const double f4 = AverageF1(data.true_clusters,
                              h4.palid->Detect().Filtered(0.75));
  EXPECT_NEAR(f1, f4, 0.05);
}

TEST(PalidTest, MatchesSequentialAlidQuality) {
  LabeledData data = Workload(400);
  PalidHarness h(data);
  AlidDetector sequential(*h.oracle, *h.lsh, {});
  const double f_seq = AverageF1(data.true_clusters,
                                 sequential.DetectAll().Filtered(0.75));
  const double f_par =
      AverageF1(data.true_clusters, h.palid->Detect().Filtered(0.75));
  EXPECT_NEAR(f_seq, f_par, 0.1);
}

// The map Palid had before it peeled in waves: Algorithm 2 from every
// sampled seed, then Algorithm 3's reduce over the detections in seed order.
struct AllSeedsMap {
  std::map<Index, Cluster> by_seed;
  DetectionResult reduced;
};

AllSeedsMap RunAllSeedsMap(const PalidHarness& h, const AlidOptions& alid) {
  AlidDetector detector(*h.oracle, *h.lsh, alid);
  AllSeedsMap out;
  DetectionResult all;
  for (Index s : h.palid->SampleSeeds()) {
    all.clusters.push_back(detector.DetectOne(s));
    out.by_seed[s] = all.clusters.back();
  }
  std::vector<bool> wins(all.clusters.size(), false);
  for (int c : all.Assignment(h.oracle->size())) {
    if (c >= 0) wins[c] = true;
  }
  for (size_t c = 0; c < all.clusters.size(); ++c) {
    if (wins[c]) out.reduced.clusters.push_back(all.clusters[c]);
  }
  return out;
}

bool Kept(const Cluster& c, const AlidOptions& alid) {
  return c.density >= alid.density_threshold &&
         static_cast<int>(c.members.size()) >= kMinClusterSize;
}

bool Holds(const Cluster& c, Index item) {
  return std::binary_search(c.members.begin(), c.members.end(), item);
}

LabeledData ManyClusters() {
  SyntheticConfig cfg;
  cfg.n = 1500;
  cfg.dim = 16;
  cfg.num_clusters = 12;
  cfg.regime = SyntheticRegime::kProportional;
  cfg.omega = 0.6;
  cfg.mean_box = 300.0;
  cfg.seed = 29;
  return MakeSynthetic(cfg);
}

// The waves skip seeds but keep the all-seeds map's clusters and quality:
// every detection run is the all-seeds map's detection from that seed, no
// run starts inside a kept cluster of an earlier wave, and every skipped
// seed lies inside a kept cluster.
TEST(PalidTest, WavesMatchAllSeedsMap) {
  const LabeledData few = Workload();
  const LabeledData many = ManyClusters();
  // Detections here have densities of about 0.89-0.91, so a 0.9 threshold
  // keeps only some of them and exercises the density half of the rule.
  PalidOptions strict;
  strict.alid.density_threshold = 0.9;
  const std::vector<std::pair<const LabeledData*, PalidOptions>> cases = {
      {&few, {}}, {&many, {}}, {&many, strict}};
  for (const auto& [input, opts] : cases) {
    const LabeledData& data = *input;
    PalidHarness h(data, opts);
    const AlidOptions& alid = opts.alid;
    const AllSeedsMap reference = RunAllSeedsMap(h, alid);
    PalidStats stats;
    const DetectionResult result = h.palid->Detect(&stats);

    const DetectionResult dense = result.Filtered(0.75);
    const DetectionResult ref_dense = reference.reduced.Filtered(0.75);
    EXPECT_EQ(dense.clusters.size(), ref_dense.clusters.size());
    EXPECT_NEAR(AverageF1(data.true_clusters, dense),
                AverageF1(data.true_clusters, ref_dense), 0.01);

    ASSERT_EQ(stats.num_seeds, static_cast<int>(reference.by_seed.size()));
    EXPECT_LT(stats.num_tasks, stats.num_seeds);
    ASSERT_EQ(stats.task_seeds.size(), static_cast<size_t>(stats.num_tasks));
    ASSERT_EQ(stats.task_waves.size(), static_cast<size_t>(stats.num_tasks));
    ASSERT_EQ(stats.task_seconds.size(), static_cast<size_t>(stats.num_tasks));

    for (const Cluster& c : result.clusters) {
      ASSERT_TRUE(reference.by_seed.count(c.seed));
      const Cluster& from_seed = reference.by_seed.at(c.seed);
      ExpectIdenticalDetections(DetectionResult{{c}},
                                DetectionResult{{from_seed}});
    }
    const std::set<Index> ran(stats.task_seeds.begin(), stats.task_seeds.end());
    EXPECT_EQ(ran.size(), stats.task_seeds.size());
    for (int i = 0; i < stats.num_tasks; ++i) {
      for (int j = 0; j < stats.num_tasks; ++j) {
        if (stats.task_waves[j] >= stats.task_waves[i]) continue;
        const Cluster& earlier = reference.by_seed.at(stats.task_seeds[j]);
        EXPECT_FALSE(Kept(earlier, alid) &&
                     Holds(earlier, stats.task_seeds[i]))
            << "seed " << stats.task_seeds[i] << " in wave "
            << stats.task_waves[i] << " lies in the kept cluster of seed "
            << stats.task_seeds[j] << " from wave " << stats.task_waves[j];
      }
    }
    for (const auto& [seed, unused] : reference.by_seed) {
      if (ran.count(seed)) continue;
      bool held = false;
      for (Index r : ran) {
        const Cluster& c = reference.by_seed.at(r);
        held = held || (Kept(c, alid) && Holds(c, seed));
      }
      EXPECT_TRUE(held) << "skipped seed " << seed << " is in no kept cluster";
    }
  }
}

}  // namespace
}  // namespace alid

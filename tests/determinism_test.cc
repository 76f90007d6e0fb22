// Determinism regression tests for the parallel runtime: PALID's output must
// be bit-identical across executor counts and schedules, and so must its
// kernel-evaluation count.
#include <memory>

#include <gtest/gtest.h>

#include "core/palid.h"
#include "data/synthetic.h"
#include "test_util.h"

namespace alid {
namespace {

LabeledData Workload(Index n = 500) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 12;
  cfg.num_clusters = 4;
  cfg.omega = 0.6;
  cfg.mean_box = 300.0;
  cfg.seed = 23;
  return MakeSynthetic(cfg);
}

struct Fixture : TestPipeline {
  using TestPipeline::TestPipeline;
  DetectionResult Detect(PalidOptions opts) const {
    return Palid(*oracle, *lsh, opts).Detect();
  }
};

// Full structural equality, including cluster order: the runtime promises
// seed-ordered reduce output, not merely the same set of clusters.
void ExpectIdentical(const DetectionResult& a, const DetectionResult& b) {
  ExpectIdenticalDetections(a, b);
}

TEST(DeterminismTest, IdenticalAcrossExecutorCounts) {
  LabeledData data = Workload();
  Fixture fx(data);
  PalidOptions one;
  one.num_executors = 1;
  PalidOptions four;
  four.num_executors = 4;
  PalidOptions eight;
  eight.num_executors = 8;
  DetectionResult r1 = fx.Detect(one);
  ASSERT_FALSE(r1.clusters.empty());
  ExpectIdentical(r1, fx.Detect(four));
  ExpectIdentical(r1, fx.Detect(eight));
}

// No affinity state survives between detections (the shared column cache
// this case is named after is gone): a PALID run on an oracle that already
// served other runs, at other executor counts, matches a run on a fresh
// oracle — detections and kernel-evaluation count alike.
TEST(DeterminismTest, ColumnCacheNeverChangesDetections) {
  LabeledData data = Workload();
  Fixture fresh(data);
  Fixture used(data);
  PalidOptions two;
  two.num_executors = 2;
  used.Detect(two);
  used.Detect(two);

  PalidOptions four;
  four.num_executors = 4;
  PalidStats fresh_stats;
  PalidStats used_stats;
  DetectionResult on_fresh =
      Palid(*fresh.oracle, *fresh.lsh, four).Detect(&fresh_stats);
  DetectionResult on_used =
      Palid(*used.oracle, *used.lsh, four).Detect(&used_stats);
  ExpectIdentical(on_fresh, on_used);
  EXPECT_EQ(fresh_stats.entries_computed, used_stats.entries_computed);
  EXPECT_EQ(used_stats.cache_hits, 0);
  EXPECT_EQ(used.oracle->cache_hits(), 0);
  // Three equal runs on the used oracle, one on the fresh.
  EXPECT_EQ(used.oracle->entries_computed(),
            3 * fresh.oracle->entries_computed());

  // And the fresh result holds at a different executor count.
  ExpectIdentical(on_fresh, used.Detect(two));
}

// The stateless oracle makes entries_computed the paper's Table 1 count:
// every map task's Algorithm 2 runs are pure, so the number of kernel
// evaluations a PALID run makes is a function of the input alone — the same
// under every executor count and on every repeat.
TEST(DeterminismTest, PalidKernelEvaluationCountIsExact) {
  LabeledData data = Workload();
  Fixture fx(data);
  int64_t expected = -1;
  for (int executors : {1, 2, 4, 8, 1, 4}) {
    PalidOptions opts;
    opts.num_executors = executors;
    PalidStats stats;
    const int64_t before = fx.oracle->entries_computed();
    Palid(*fx.oracle, *fx.lsh, opts).Detect(&stats);
    EXPECT_EQ(stats.entries_computed, fx.oracle->entries_computed() - before);
    if (expected < 0) expected = stats.entries_computed;
    EXPECT_EQ(stats.entries_computed, expected) << executors << " executors";
  }
  EXPECT_GT(expected, 0);
}

TEST(DeterminismTest, SeedSamplingIndependentOfExecutors) {
  LabeledData data = Workload();
  Fixture fx(data);
  PalidOptions one;
  one.num_executors = 1;
  PalidOptions eight;
  eight.num_executors = 8;
  EXPECT_EQ(Palid(*fx.oracle, *fx.lsh, one).SampleSeeds(),
            Palid(*fx.oracle, *fx.lsh, eight).SampleSeeds());
}

TEST(DeterminismTest, RepeatedRunsAreIdentical) {
  LabeledData data = Workload(300);
  Fixture fx(data);
  PalidOptions opts;
  opts.num_executors = 3;
  DetectionResult r1 = fx.Detect(opts);
  DetectionResult r2 = fx.Detect(opts);
  ExpectIdentical(r1, r2);
}

}  // namespace
}  // namespace alid

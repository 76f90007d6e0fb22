// Randomized (seeded) property stress tests for the parallel runtime:
//  - the stateless oracle keeps no affinity state between runs, so an ALID
//    or PALID detection on an oracle that already served other detections
//    must match one on a fresh oracle, kernel-evaluation count included;
//  - PALID on a shared external pool must match PALID on its own pool;
//  - the parallel k-means reduction must preserve Lloyd's invariant: the SSE
//    recorded after each assignment sweep is monotonically non-increasing.
// Every draw derives from a fixed master seed, so failures replay exactly.
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/kmeans.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/palid.h"
#include "data/synthetic.h"
#include "test_util.h"

namespace alid {
namespace {

constexpr uint64_t kMasterSeed = 20150831;  // the paper's PVLDB issue date

LabeledData RandomWorkload(Rng& rng) {
  SyntheticConfig cfg;
  cfg.n = static_cast<Index>(rng.UniformInt(200, 500));
  cfg.dim = static_cast<int>(rng.UniformInt(6, 16));
  cfg.num_clusters = static_cast<int>(rng.UniformInt(2, 5));
  cfg.regime = SyntheticRegime::kProportional;
  cfg.omega = 0.5 + 0.5 * rng.Uniform();
  cfg.mean_box = 300.0;
  cfg.seed = rng.engine()();
  return MakeSynthetic(cfg);
}

using Pipeline = TestPipeline;

// Both cases are named after the shared column cache the oracle once
// carried; they now check that a used oracle and a fresh one agree exactly.
TEST(StressTest, AlidIdenticalWithAndWithoutCacheOnRandomWorkloads) {
  Rng rng(kMasterSeed);
  for (int trial = 0; trial < 4; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    LabeledData data = RandomWorkload(rng);
    Pipeline used(data);
    Pipeline fresh(data);
    AlidDetector(*used.oracle, *used.lsh, {}).DetectAll();
    const int64_t before = used.oracle->entries_computed();
    DetectionResult on_used =
        AlidDetector(*used.oracle, *used.lsh, {}).DetectAll();
    DetectionResult on_fresh =
        AlidDetector(*fresh.oracle, *fresh.lsh, {}).DetectAll();
    ExpectIdenticalDetections(on_fresh, on_used);
    EXPECT_EQ(used.oracle->entries_computed() - before,
              fresh.oracle->entries_computed());
    EXPECT_EQ(used.oracle->cache_hits(), 0);
  }
}

TEST(StressTest, PalidIdenticalWithAndWithoutCacheOnRandomWorkloads) {
  Rng rng(kMasterSeed + 1);
  for (int trial = 0; trial < 3; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    LabeledData data = RandomWorkload(rng);
    Pipeline used(data);
    Pipeline fresh(data);
    PalidOptions opts;
    opts.num_executors = static_cast<int>(rng.UniformInt(2, 6));
    AlidDetector(*used.oracle, *used.lsh, {}).DetectAll();
    PalidStats used_stats;
    PalidStats fresh_stats;
    DetectionResult on_used =
        Palid(*used.oracle, *used.lsh, opts).Detect(&used_stats);
    DetectionResult on_fresh =
        Palid(*fresh.oracle, *fresh.lsh, opts).Detect(&fresh_stats);
    ExpectIdenticalDetections(on_fresh, on_used);
    EXPECT_EQ(used_stats.entries_computed, fresh_stats.entries_computed);
  }
}

TEST(StressTest, PalidOnSharedExternalPoolMatchesOwnedPool) {
  Rng rng(kMasterSeed + 2);
  LabeledData data = RandomWorkload(rng);
  Pipeline p(data);
  PalidOptions owned;
  owned.num_executors = 4;
  DetectionResult reference = Palid(*p.oracle, *p.lsh, owned).Detect();
  ThreadPool shared(4);
  PalidOptions external;
  external.pool = &shared;
  DetectionResult on_shared = Palid(*p.oracle, *p.lsh, external).Detect();
  ExpectIdenticalDetections(reference, on_shared);
}

TEST(StressTest, KMeansObjectiveMonotoneUnderParallelReduction) {
  Rng rng(kMasterSeed + 3);
  ThreadPool pool(4);
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    LabeledData data = RandomWorkload(rng);
    KMeansOptions opts;
    opts.seed = rng.engine()();
    opts.grain = static_cast<int64_t>(rng.UniformInt(1, 128));
    opts.pool = trial % 2 == 0 ? &pool : nullptr;  // parallel and serial
    const int k = static_cast<int>(rng.UniformInt(2, 8));
    KMeansResult result = RunKMeans(data.data, k, opts);
    ASSERT_EQ(result.sse_history.size(),
              static_cast<size_t>(result.iterations));
    for (size_t i = 1; i < result.sse_history.size(); ++i) {
      // Lloyd's invariant under the chunk-ordered parallel reduction; the
      // epsilon only absorbs FP rounding of sums that are equal in exact
      // arithmetic.
      EXPECT_LE(result.sse_history[i],
                result.sse_history[i - 1] * (1.0 + 1e-12) + 1e-9)
          << "iteration " << i;
    }
    EXPECT_EQ(result.sse, result.sse_history.back());
  }
}

}  // namespace
}  // namespace alid

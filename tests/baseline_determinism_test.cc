// Determinism regression tests for the parallelized baselines: every
// baseline running on ThreadPool::ParallelFor must produce bit-identical
// labels/centroids/weights across executor counts {1, 2, 4, 8} and against
// the serial (pool-less) path — the same guarantee PALID's runtime makes, so
// Table 1 / Figure 7 comparisons stay apples-to-apples.
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "affinity/affinity_matrix.h"
#include "affinity/sparsifier.h"
#include "baselines/ap.h"
#include "baselines/kmeans.h"
#include "baselines/mean_shift.h"
#include "baselines/sea.h"
#include "baselines/spectral.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "lsh/lsh_index.h"
#include "test_util.h"

namespace alid {
namespace {

LabeledData Workload(Index n = 400, int clusters = 2, uint64_t seed = 31) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 8;
  cfg.num_clusters = clusters;
  cfg.regime = SyntheticRegime::kProportional;
  cfg.omega = 1.0;  // big clusters, so SEA supports cross the parallel gate
  cfg.mean_box = 400.0;
  cfg.overlap_clusters = false;
  cfg.seed = seed;
  return MakeSynthetic(cfg);
}

/// Runs `run` serially and on pools of 1, 2, 4 and 8 executors and checks
/// each pooled result equals the serial reference via `expect_equal`.
template <typename Result>
void ExpectSchedulingInvariant(
    const std::function<Result(ThreadPool*)>& run,
    const std::function<void(const Result&, const Result&)>& expect_equal) {
  const Result reference = run(nullptr);
  for (int executors : {1, 2, 4, 8}) {
    ThreadPool pool(executors);
    const Result parallel = run(&pool);
    SCOPED_TRACE(::testing::Message() << "executors=" << executors);
    expect_equal(reference, parallel);
  }
}

TEST(BaselineDeterminismTest, KMeansBitIdenticalAcrossExecutors) {
  LabeledData data = Workload();
  ExpectSchedulingInvariant<KMeansResult>(
      [&](ThreadPool* pool) {
        KMeansOptions opts;
        opts.restarts = 2;
        opts.pool = pool;
        return RunKMeans(data.data, 3, opts);
      },
      [](const KMeansResult& a, const KMeansResult& b) {
        EXPECT_EQ(a.labels, b.labels);
        EXPECT_EQ(a.centers.raw(), b.centers.raw());
        EXPECT_EQ(a.sse, b.sse);
        EXPECT_EQ(a.sse_history, b.sse_history);
        EXPECT_EQ(a.iterations, b.iterations);
      });
}

TEST(BaselineDeterminismTest, MeanShiftBitIdenticalAcrossExecutors) {
  LabeledData data = Workload(260);
  ExpectSchedulingInvariant<MeanShiftResult>(
      [&](ThreadPool* pool) {
        MeanShiftOptions opts;
        opts.max_ascents = 80;  // exercises the nearest-mode assignment too
        opts.pool = pool;
        return RunMeanShift(data.data, opts);
      },
      [](const MeanShiftResult& a, const MeanShiftResult& b) {
        EXPECT_EQ(a.labels, b.labels);
        EXPECT_EQ(a.modes.raw(), b.modes.raw());
      });
}

TEST(BaselineDeterminismTest, SpectralFullBitIdenticalAcrossExecutors) {
  LabeledData data = Workload(180, 3);
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  ExpectSchedulingInvariant<SpectralResult>(
      [&](ThreadPool* pool) {
        SpectralOptions opts;
        opts.num_clusters = 3;
        opts.pool = pool;
        return SpectralClusterFull(data.data, affinity, opts);
      },
      [](const SpectralResult& a, const SpectralResult& b) {
        EXPECT_EQ(a.labels, b.labels);
      });
}

TEST(BaselineDeterminismTest, SpectralNystromBitIdenticalAcrossExecutors) {
  LabeledData data = Workload(200, 3);
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  ExpectSchedulingInvariant<SpectralResult>(
      [&](ThreadPool* pool) {
        SpectralOptions opts;
        opts.num_clusters = 3;
        opts.nystrom_landmarks = 60;
        opts.pool = pool;
        return SpectralClusterNystrom(data.data, affinity, opts);
      },
      [](const SpectralResult& a, const SpectralResult& b) {
        EXPECT_EQ(a.labels, b.labels);
      });
}

TEST(BaselineDeterminismTest, ApBitIdenticalAcrossExecutors) {
  LabeledData data = Workload(220, 3);
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  AffinityMatrix matrix(data.data, affinity);
  ExpectSchedulingInvariant<DetectionResult>(
      [&](ThreadPool* pool) {
        ApOptions opts;
        opts.max_iterations = 120;
        opts.pool = pool;
        return ApDetector(AffinityView(&matrix.matrix()), opts).Detect();
      },
      ExpectIdenticalDetections);
}

TEST(BaselineDeterminismTest, SeaBitIdenticalAcrossExecutors) {
  LabeledData data = Workload(400, 2);
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  SparseMatrix sparse = Sparsifier::Dense(data.data, affinity);
  // Supports of ~200 members sit far above SeaOptions::kMinParallelSupport,
  // so the pooled sweeps genuinely engage.
  ASSERT_GT(static_cast<int>(data.true_clusters[0].size()),
            SeaOptions::kMinParallelSupport);
  ExpectSchedulingInvariant<DetectionResult>(
      [&](ThreadPool* pool) {
        SeaOptions opts;
        opts.pool = pool;
        return SeaDetector(AffinityView(&sparse), opts).DetectAll();
      },
      ExpectIdenticalDetections);
}

TEST(BaselineDeterminismTest, ParallelAffinityMatrixMatchesSerial) {
  LabeledData data = Workload(150, 2);
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  AffinityMatrix serial(data.data, affinity);
  for (int executors : {2, 8}) {
    ThreadPool pool(executors);
    AffinityMatrix parallel(data.data, affinity, &pool);
    EXPECT_EQ(serial.matrix().raw(), parallel.matrix().raw());
    EXPECT_EQ(serial.entries_computed(), parallel.entries_computed());
  }
}

}  // namespace
}  // namespace alid

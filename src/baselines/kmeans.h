#ifndef ALID_BASELINES_KMEANS_H_
#define ALID_BASELINES_KMEANS_H_

#include <cstdint>
#include <vector>

#include "common/dataset.h"
#include "common/types.h"

namespace alid {

class ThreadPool;

/// Options of the k-means baseline.
struct KMeansOptions {
  /// Lloyd iteration cap.
  int max_iterations = 100;
  /// Stop when no assignment changes.
  uint64_t seed = 42;
  /// Independent restarts; the best-SSE run wins.
  int restarts = 1;
  /// Optional shared worker pool for the assignment/reduction hot loop and
  /// the k-means++ distance updates; nullptr runs serially. Labels, centers
  /// and SSE are bit-identical for every pool width: chunk boundaries depend
  /// only on n, and the centroid partial sums reduce in chunk order.
  ThreadPool* pool = nullptr;
};

/// Result of a k-means run.
struct KMeansResult {
  /// Cluster id per point, in [0, k).
  std::vector<int> labels;
  /// Cluster centers, k rows.
  Dataset centers;
  /// Sum of squared distances to the assigned centers.
  Scalar sse = 0.0;
  int iterations = 0;
  /// SSE after each Lloyd assignment step (of the winning restart) —
  /// monotonically non-increasing, which the stress harness asserts to lock
  /// in the parallel reduction's correctness.
  std::vector<Scalar> sse_history;
};

/// Lloyd's k-means with k-means++ seeding — the canonical partitioning
/// baseline of the noise-resistance analysis (Appendix C) and the final
/// grouping step of spectral clustering.
KMeansResult RunKMeans(const Dataset& data, int k, KMeansOptions options = {});

}  // namespace alid

#endif  // ALID_BASELINES_KMEANS_H_

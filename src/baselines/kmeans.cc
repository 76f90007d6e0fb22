#include "baselines/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "common/random.h"

namespace alid {

namespace {

// k-means++ seeding: each next center is drawn with probability proportional
// to the squared distance to the nearest chosen center. The distance updates
// run chunked on the pool; the total reduces in chunk order, so the drawn
// centers are identical for every pool width.
Dataset SeedPlusPlus(const Dataset& data, int k, const KMeansOptions& options,
                     Rng& rng) {
  const Index n = data.size();
  Dataset centers(data.dim());
  const Index first = static_cast<Index>(rng.UniformInt(0, n - 1));
  centers.Append(data[first]);
  std::vector<Scalar> d2(n, std::numeric_limits<Scalar>::max());
  while (centers.size() < k) {
    const Index c = centers.size() - 1;
    const Scalar total = ParallelSum(
        options.pool, 0, n, /*grain=*/0, [&](int64_t lo, int64_t hi) {
          Scalar partial = 0.0;
          for (int64_t i = lo; i < hi; ++i) {
            const Scalar d = SquaredL2(data[static_cast<Index>(i)], centers[c]);
            if (d < d2[i]) d2[i] = d;
            partial += d2[i];
          }
          return partial;
        });
    Index next = 0;
    if (total > 0.0) {
      Scalar target = rng.Uniform(0.0, total);
      for (Index i = 0; i < n; ++i) {
        target -= d2[i];
        if (target <= 0.0) {
          next = i;
          break;
        }
      }
    } else {
      next = static_cast<Index>(rng.UniformInt(0, n - 1));
    }
    centers.Append(data[next]);
  }
  return centers;
}

// Per-chunk partial state of one Lloyd assignment sweep. Each chunk owns one
// slot, and the reduce below combines slots in chunk order — the fixed
// reduction order that makes the parallel run bit-identical to the serial
// one.
struct ChunkPartial {
  std::vector<Scalar> sums;   // k x d centroid accumulators
  std::vector<Index> counts;  // k member counts
  Scalar sse = 0.0;
  bool changed = false;
};

KMeansResult RunOnce(const Dataset& data, int k, const KMeansOptions& options,
                     Rng& rng) {
  const Index n = data.size();
  const int d = data.dim();
  KMeansResult res;
  res.centers = SeedPlusPlus(data, k, options, rng);
  res.labels.assign(n, -1);

  const int64_t num_chunks = DeterministicChunkCount(n, /*grain=*/0);
  std::vector<ChunkPartial> partials(num_chunks);
  std::vector<Scalar> sums(static_cast<size_t>(k) * d);
  std::vector<Index> counts(k);
  for (int iter = 0; iter < options.max_iterations; ++iter) {
    ++res.iterations;
    ParallelChunks(
        options.pool, 0, n, /*grain=*/0,
        [&](int64_t chunk, int64_t lo, int64_t hi) {
          ChunkPartial& p = partials[chunk];
          p.sums.assign(static_cast<size_t>(k) * d, 0.0);
          p.counts.assign(k, 0);
          p.sse = 0.0;
          p.changed = false;
          for (int64_t ii = lo; ii < hi; ++ii) {
            const Index i = static_cast<Index>(ii);
            int best = 0;
            Scalar best_d = std::numeric_limits<Scalar>::max();
            for (int c = 0; c < k; ++c) {
              const Scalar dist = SquaredL2(data[i], res.centers[c]);
              if (dist < best_d) {
                best_d = dist;
                best = c;
              }
            }
            if (res.labels[i] != best) {
              res.labels[i] = best;
              p.changed = true;
            }
            p.sse += best_d;
            auto row = data[i];
            Scalar* sum = p.sums.data() + static_cast<size_t>(best) * d;
            for (int t = 0; t < d; ++t) sum[t] += row[t];
            ++p.counts[best];
          }
        });
    bool changed = false;
    res.sse = 0.0;
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0);
    for (const ChunkPartial& p : partials) {
      changed |= p.changed;
      res.sse += p.sse;
      for (size_t t = 0; t < sums.size(); ++t) sums[t] += p.sums[t];
      for (int c = 0; c < k; ++c) counts[c] += p.counts[c];
    }
    res.sse_history.push_back(res.sse);
    if (!changed) break;
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its center
      auto center = res.centers.MutableRow(c);
      const Scalar* sum = sums.data() + static_cast<size_t>(c) * d;
      for (int t = 0; t < d; ++t) {
        center[t] = sum[t] / static_cast<Scalar>(counts[c]);
      }
    }
  }
  return res;
}

}  // namespace

KMeansResult RunKMeans(const Dataset& data, int k, KMeansOptions options) {
  ALID_CHECK(k >= 1 && k <= data.size());
  ALID_CHECK(options.restarts >= 1);
  Rng rng(options.seed);
  KMeansResult best;
  best.sse = std::numeric_limits<Scalar>::max();
  for (int r = 0; r < options.restarts; ++r) {
    KMeansResult run = RunOnce(data, k, options, rng);
    if (run.sse < best.sse) best = std::move(run);
  }
  return best;
}

}  // namespace alid

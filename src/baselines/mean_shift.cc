#include "baselines/mean_shift.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/check.h"
#include "common/parallel.h"
#include "common/random.h"

namespace alid {

namespace {

// Convergence threshold on the shift length (relative to bandwidth).
constexpr double kShiftTolerance = 1e-3;
// Modes closer than this fraction of the bandwidth merge into one cluster.
constexpr double kMergeFraction = 0.5;

// Adaptive bandwidth: median distance to the ceil(sqrt(n))-th nearest
// neighbour over a sample of points. Each sampled point's k-th distance is
// independent work written to its own slot, so the estimate is identical for
// every pool width.
double EstimateBandwidth(const Dataset& data, Rng& rng,
                         const MeanShiftOptions& options) {
  const Index n = data.size();
  const int kth = std::max<int>(1, static_cast<int>(std::sqrt(double(n))));
  const int sample = std::min<Index>(n, 50);
  auto ids = rng.SampleWithoutReplacement(n, sample);
  std::vector<Scalar> kth_dists(ids.size(), 0.0);
  ParallelChunks(
      options.pool, 0, static_cast<int64_t>(ids.size()), /*grain=*/0,
      [&](int64_t, int64_t lo, int64_t hi) {
        std::vector<Scalar> dists;
        dists.reserve(n);
        for (int64_t s = lo; s < hi; ++s) {
          const Index i = ids[s];
          dists.clear();
          for (Index j = 0; j < n; ++j) {
            if (j != i) dists.push_back(std::sqrt(data.SquaredL2(i, j)));
          }
          const int k = std::min<int>(kth, static_cast<int>(dists.size()) - 1);
          std::nth_element(dists.begin(), dists.begin() + k, dists.end());
          kth_dists[s] = dists[k];
        }
      });
  std::nth_element(kth_dists.begin(), kth_dists.begin() + kth_dists.size() / 2,
                   kth_dists.end());
  return std::max<double>(kth_dists[kth_dists.size() / 2], 1e-9);
}

}  // namespace

MeanShiftResult RunMeanShift(const Dataset& data, MeanShiftOptions options) {
  const Index n = data.size();
  const int d = data.dim();
  ALID_CHECK(n > 0);
  Rng rng(options.seed);

  double h = options.bandwidth;
  if (h <= 0.0) h = EstimateBandwidth(data, rng, options);
  const double inv_2h2 = 1.0 / (2.0 * h * h);
  const double merge_d2 = (kMergeFraction * h) * (kMergeFraction * h);

  // Choose ascent starting points.
  IndexList starts;
  if (options.max_ascents > 0 && options.max_ascents < n) {
    starts = rng.SampleWithoutReplacement(n, options.max_ascents);
  } else {
    starts.resize(n);
    for (Index i = 0; i < n; ++i) starts[i] = i;
  }
  const int64_t num_starts = static_cast<int64_t>(starts.size());

  // Map stage: every ascent is an independent gradient trajectory over the
  // immutable dataset, written to its own row of `ascended`.
  std::vector<Scalar> ascended(static_cast<size_t>(num_starts) * d);
  ParallelChunks(
      options.pool, 0, num_starts, /*grain=*/0,
      [&](int64_t, int64_t lo, int64_t hi) {
        std::vector<Scalar> y(d), next(d);
        for (int64_t s = lo; s < hi; ++s) {
          auto row = data[starts[s]];
          y.assign(row.begin(), row.end());
          for (int iter = 0; iter < options.max_iterations; ++iter) {
            std::fill(next.begin(), next.end(), 0.0);
            Scalar weight_sum = 0.0;
            for (Index j = 0; j < n; ++j) {
              const Scalar d2 = SquaredL2(y, data[j]);
              const Scalar w = std::exp(-d2 * inv_2h2);
              weight_sum += w;
              auto vj = data[j];
              for (int t = 0; t < d; ++t) next[t] += w * vj[t];
            }
            if (weight_sum <= 0.0) break;
            Scalar shift2 = 0.0;
            for (int t = 0; t < d; ++t) {
              next[t] /= weight_sum;
              const Scalar delta = next[t] - y[t];
              shift2 += delta * delta;
            }
            y = next;
            if (shift2 < (kShiftTolerance * h) * (kShiftTolerance * h)) {
              break;
            }
          }
          std::copy(y.begin(), y.end(),
                    ascended.begin() + static_cast<size_t>(s) * d);
        }
      });

  MeanShiftResult result;
  result.modes = Dataset(d);
  result.labels.assign(n, -1);

  // Reduce stage, sequential in start order: merge each converged point into
  // an existing mode or register a new one. Start order is fixed, so the
  // mode set and ids never depend on how the ascents were scheduled.
  for (int64_t s = 0; s < num_starts; ++s) {
    std::span<const Scalar> y{ascended.data() + static_cast<size_t>(s) * d,
                              static_cast<size_t>(d)};
    int mode = -1;
    for (Index m = 0; m < result.modes.size(); ++m) {
      if (SquaredL2(y, result.modes[m]) < merge_d2) {
        mode = static_cast<int>(m);
        break;
      }
    }
    if (mode < 0) {
      result.modes.Append(y);
      mode = result.modes.size() - 1;
    }
    result.labels[starts[s]] = mode;
  }

  // Assign any remaining points (when max_ascents subsampled) to the nearest
  // mode; each point owns its slot.
  ParallelChunks(options.pool, 0, n, /*grain=*/0,
                 [&](int64_t, int64_t lo, int64_t hi) {
                   for (int64_t ii = lo; ii < hi; ++ii) {
                     const Index i = static_cast<Index>(ii);
                     if (result.labels[i] >= 0) continue;
                     int best = 0;
                     Scalar best_d = std::numeric_limits<Scalar>::max();
                     for (Index m = 0; m < result.modes.size(); ++m) {
                       const Scalar d2 = SquaredL2(data[i], result.modes[m]);
                       if (d2 < best_d) {
                         best_d = d2;
                         best = static_cast<int>(m);
                       }
                     }
                     result.labels[i] = best;
                   }
                 });
  return result;
}

}  // namespace alid

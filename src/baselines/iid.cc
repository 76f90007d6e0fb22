#include "baselines/iid.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/lid.h"

namespace alid {

IidDetector::IidDetector(AffinityView affinity, IidOptions options)
    : affinity_(affinity), options_(options) {}

Cluster IidDetector::ExtractOne(const std::vector<bool>* active) const {
  const Index n = affinity_.size();
  // x starts at the barycenter of the active set.
  std::vector<Scalar> x(n, 0.0);
  Index active_count = 0;
  for (Index i = 0; i < n; ++i) {
    if (active == nullptr || (*active)[i]) {
      x[i] = 1.0;
      ++active_count;
    }
  }
  Cluster cluster;
  if (active_count == 0) return cluster;
  for (auto& v : x) v /= static_cast<Scalar>(active_count);

  std::vector<Scalar> ax = affinity_.MatVec(x);

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    Scalar pi = 0.0;
    for (Index i = 0; i < n; ++i) pi += x[i] * ax[i];

    // Vertex selection M(x) over the active range (Eq. 6).
    Index best = -1;
    Scalar best_abs = kLidTolerance;
    for (Index i = 0; i < n; ++i) {
      if (active != nullptr && !(*active)[i]) continue;
      const Scalar r = ax[i] - pi;
      if (r > 0.0 || (r < 0.0 && x[i] > 0.0)) {
        const Scalar a = std::abs(r);
        if (a > best_abs) {
          best_abs = a;
          best = i;
        }
      }
    }
    if (best < 0) break;  // gamma(x) empty: dense subgraph reached

    const Scalar r = ax[best] - pi;
    const Scalar pi_si_minus_x =
        affinity_.At(best, best) - 2.0 * ax[best] + pi;  // Eq. 11
    Scalar mu;
    if (r > 0.0) {
      Scalar eps = 1.0;
      if (pi_si_minus_x < 0.0) eps = std::min(-r / pi_si_minus_x, 1.0);
      mu = eps;
    } else {
      const Scalar ratio = x[best] / (x[best] - 1.0);
      const Scalar num = ratio * r;
      const Scalar den = ratio * ratio * pi_si_minus_x;
      Scalar eps = 1.0;
      if (den < 0.0) eps = std::min(-num / den, 1.0);
      mu = eps * ratio;
    }

    // Invasion (Eq. 13) + incremental A x maintenance.
    for (Index i = 0; i < n; ++i) x[i] *= (1.0 - mu);
    x[best] += mu;
    Scalar sum = 0.0;
    for (Index i = 0; i < n; ++i) {
      if (x[i] < kLidWeightEpsilon) x[i] = 0.0;
      sum += x[i];
    }
    ALID_CHECK_MSG(sum > 0.0, "IID lost all weight");
    const Scalar inv = 1.0 / sum;
    for (Index i = 0; i < n; ++i) x[i] *= inv;

    // ax <- ((1 - mu) ax + mu * A(:, best)) / sum. A is symmetric, so the
    // column equals the row; sparse rows update only their support.
    for (Index i = 0; i < n; ++i) ax[i] *= (1.0 - mu) * inv;
    affinity_.ForEachInRow(best, [&](Index j, Scalar a) {
      ax[j] += mu * inv * a;
    });
  }

  Scalar pi = 0.0;
  for (Index i = 0; i < n; ++i) pi += x[i] * ax[i];
  cluster.density = pi;
  for (Index i = 0; i < n; ++i) {
    if (x[i] > 0.0) {
      cluster.members.push_back(i);
      cluster.weights.push_back(x[i]);
    }
  }
  return cluster;
}

DetectionResult IidDetector::DetectAll() const {
  const Index n = affinity_.size();
  std::vector<bool> active(n, true);
  Index remaining = n;
  DetectionResult result;
  while (remaining > 0) {
    Cluster c = ExtractOne(&active);
    if (c.members.empty()) break;
    for (Index i : c.members) {
      if (active[i]) {
        active[i] = false;
        --remaining;
      }
    }
    result.clusters.push_back(std::move(c));
  }
  return result;
}

}  // namespace alid

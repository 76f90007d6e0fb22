#include "baselines/replicator.h"

#include <cmath>

#include "common/check.h"

namespace alid {

// Stop when the L1 change of x per iteration falls below this.
constexpr double kTolerance = 1e-10;
// Weights below this are treated as outside the support when the final
// dominant set is read off (RD never reaches exact zeros in finite time).
constexpr double kSupportThreshold = 1e-5;

int RunReplicatorDynamics(const AffinityView& affinity, std::vector<Scalar>& x,
                          const ReplicatorOptions& options) {
  const Index n = affinity.size();
  ALID_CHECK(static_cast<Index>(x.size()) == n);
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    std::vector<Scalar> ax = affinity.MatVec(x);
    Scalar pi = 0.0;
    for (Index i = 0; i < n; ++i) pi += x[i] * ax[i];
    if (pi <= 0.0) break;  // isolated support: no payoff anywhere
    Scalar change = 0.0;
    for (Index i = 0; i < n; ++i) {
      const Scalar next = x[i] * ax[i] / pi;
      change += std::abs(next - x[i]);
      x[i] = next;
    }
    if (change < kTolerance) break;
  }
  return iter;
}

DominantSetDetector::DominantSetDetector(AffinityView affinity,
                                         ReplicatorOptions options)
    : affinity_(affinity), options_(options) {}

Cluster DominantSetDetector::ExtractOne(
    const std::vector<bool>* active) const {
  const Index n = affinity_.size();
  std::vector<Scalar> x(n, 0.0);
  Index count = 0;
  for (Index i = 0; i < n; ++i) {
    if (active == nullptr || (*active)[i]) {
      x[i] = 1.0;
      ++count;
    }
  }
  Cluster cluster;
  if (count == 0) return cluster;
  for (auto& v : x) v /= static_cast<Scalar>(count);

  RunReplicatorDynamics(affinity_, x, options_);

  cluster.density = affinity_.QuadraticForm(x);
  Scalar kept = 0.0;
  for (Index i = 0; i < n; ++i) {
    if (x[i] > kSupportThreshold) {
      cluster.members.push_back(i);
      cluster.weights.push_back(x[i]);
      kept += x[i];
    }
  }
  if (cluster.members.empty()) {
    // Degenerate (e.g., zero payoff everywhere): report the heaviest vertex.
    Index best = 0;
    for (Index i = 1; i < n; ++i) {
      if (x[i] > x[best]) best = i;
    }
    cluster.members.push_back(best);
    cluster.weights.push_back(1.0);
    return cluster;
  }
  for (auto& w : cluster.weights) w /= kept;
  return cluster;
}

DetectionResult DominantSetDetector::DetectAll() const {
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

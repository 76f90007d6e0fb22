#ifndef ALID_BASELINES_REPLICATOR_H_
#define ALID_BASELINES_REPLICATOR_H_

#include <vector>

#include "baselines/affinity_view.h"
#include "core/cluster.h"

namespace alid {

/// Options of the replicator-dynamics / dominant-set baseline.
struct ReplicatorOptions {
  /// Iteration cap per extraction. RD converges linearly, so it needs many
  /// more iterations than IID — the paper's "time consuming replicator
  /// dynamics" remark (Section 5.1).
  int max_iterations = 2000;
};

/// Discrete-time replicator dynamics x_i <- x_i (A x)_i / (x^T A x) — the
/// payoff-monotone dynamics of Weibull's EGT — run until the L1 change of x
/// per iteration falls below 1e-10.
/// `x` is modified in place; entries of inactive vertices must already be 0.
/// Returns the number of iterations performed.
int RunReplicatorDynamics(const AffinityView& affinity,
                          std::vector<Scalar>& x,
                          const ReplicatorOptions& options);

/// The Dominant Set method of Pavan & Pelillo (TPAMI 2007): solve the StQP
/// of Eq. 3 with replicator dynamics from the barycenter, read off the
/// support as a dominant set, peel, repeat.
class DominantSetDetector {
 public:
  DominantSetDetector(AffinityView affinity, ReplicatorOptions options = {});

  /// Extracts one dominant set over the active vertices (nullptr = all).
  Cluster ExtractOne(const std::vector<bool>* active = nullptr) const;

  /// Peeling loop over the whole graph.
  DetectionResult DetectAll() const;

 private:
  AffinityView affinity_;
  ReplicatorOptions options_;
};

}  // namespace alid

#endif  // ALID_BASELINES_REPLICATOR_H_

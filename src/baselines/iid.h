#ifndef ALID_BASELINES_IID_H_
#define ALID_BASELINES_IID_H_

#include <vector>

#include "baselines/affinity_view.h"
#include "core/cluster.h"

namespace alid {

/// Options of the Infection Immunization Dynamics baseline. Its convergence
/// tolerance and weight snap are LID's (kLidTolerance, kLidWeightEpsilon):
/// IID is the same dynamics on the full matrix.
struct IidOptions {
  /// Iteration cap per dense-subgraph extraction.
  int max_iterations = 5000;
};

/// The Infection Immunization Dynamics of Rota Bulò, Pelillo & Bomze (CVIU
/// 2011) — the algorithm ALID localizes. Works on the *materialized* global
/// affinity matrix (dense or sparsified), which is exactly its O(n^2)
/// bottleneck: each extraction is O(n) per iteration, but A itself costs
/// quadratic time and space (Section 3).
class IidDetector {
 public:
  IidDetector(AffinityView affinity, IidOptions options = {});

  /// Extracts one dense subgraph over the `active` vertices (nullptr = all),
  /// starting from the barycenter of the active set.
  Cluster ExtractOne(const std::vector<bool>* active = nullptr) const;

  /// Detects all dominant clusters with the peeling strategy of Section 4.4.
  DetectionResult DetectAll() const;

 private:
  AffinityView affinity_;
  IidOptions options_;
};

}  // namespace alid

#endif  // ALID_BASELINES_IID_H_

#ifndef ALID_BASELINES_AP_H_
#define ALID_BASELINES_AP_H_

#include <limits>
#include <vector>

#include "baselines/affinity_view.h"
#include "core/cluster.h"

namespace alid {

class ThreadPool;

/// Options of the Affinity Propagation baseline.
struct ApOptions {
  /// Hard iteration cap.
  int max_iterations = 500;
  /// Shared preference s(k, k). NaN means "median of the similarities" —
  /// Frey & Dueck's default, which yields a moderate number of clusters.
  double preference = std::numeric_limits<double>::quiet_NaN();
  /// Optional shared worker pool for the message sweeps. The responsibility
  /// update is row-independent and the availability update is
  /// column-independent (every edge has exactly one writer per sweep), so
  /// messages — and with them the exemplar set — are bit-identical for
  /// every pool width.
  ThreadPool* pool = nullptr;
};

/// Affinity Propagation (Frey & Dueck, Science 2007): exemplar-based
/// clustering by passing responsibility/availability messages along graph
/// edges. Implemented directly on the edge list of the AffinityView, so it
/// runs on the dense O(n^2) matrix or on a sparsified one (where message
/// passing is O(edges) per iteration — still the "very time consuming"
/// regime the paper observes when edges are many).
class ApDetector {
 public:
  ApDetector(AffinityView affinity, ApOptions options = {});

  /// Runs message passing and returns the exemplar-based clustering. Every
  /// item is assigned to some exemplar (AP partitions the data — its noise
  /// behaviour under Fig. 11's protocol follows from exactly this).
  /// Cluster densities are computed with uniform member weights.
  DetectionResult Detect() const;

 private:
  AffinityView affinity_;
  ApOptions options_;
};

}  // namespace alid

#endif  // ALID_BASELINES_AP_H_

#ifndef ALID_BASELINES_SEA_H_
#define ALID_BASELINES_SEA_H_

#include <cstdint>
#include <vector>

#include "baselines/affinity_view.h"
#include "core/cluster.h"

namespace alid {

class ThreadPool;

/// Options of the Shrinking and Expansion Algorithm baseline.
struct SeaOptions {
  /// Optional shared worker pool for the replicator sweeps. The A x product
  /// over the support is computed destination-row-wise (each support vertex
  /// accumulates its own row sequentially — valid because A is symmetric),
  /// so rows are independent and the dynamics are bit-identical for every
  /// pool width. Engaged only once the support outgrows
  /// kMinParallelSupport — a size-only gate, so results never depend on it.
  ThreadPool* pool = nullptr;

  static constexpr int kMinParallelSupport = 48;
};

/// The Shrinking and Expansion Algorithm of Liu, Latecki & Yan (TPAMI 2013):
/// replicator dynamics restricted to a small evolving subgraph. Each round
/// *shrinks* (runs RD on the current support until weak vertices die off)
/// and *expands* (adds neighbours whose average affinity to x exceeds the
/// density). Time and space are linear in the number of graph *edges*, so
/// SEA's scalability tracks the sparse degree of the affinity matrix —
/// exactly the sensitivity the paper discusses in Sections 2 and 5.1.
class SeaDetector {
 public:
  SeaDetector(AffinityView affinity, SeaOptions options = {});

  /// Grows a dense subgraph from one seed vertex over the active set.
  Cluster ExtractFrom(Index seed, const std::vector<bool>* active = nullptr)
      const;

  /// Peeling over seeds in index order, like the other detectors.
  DetectionResult DetectAll() const;

 private:
  AffinityView affinity_;
  SeaOptions options_;
};

}  // namespace alid

#endif  // ALID_BASELINES_SEA_H_

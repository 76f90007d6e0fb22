#ifndef ALID_CORE_CLUSTER_SCORER_H_
#define ALID_CORE_CLUSTER_SCORER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "affinity/affinity_function.h"
#include "common/dataset.h"
#include "common/types.h"
#include "simd/soa_block.h"

namespace alid {

/// A newcomer is routed to a cluster already when pi(s_j, x) exceeds
/// (1 - kAbsorbSlack) * pi(x): same-cluster arrivals sit *at* the density
/// (Theorem 1's equality on the support), so the strict > test alone would
/// bounce half of them into the pool and fragment the cluster.
inline constexpr double kAbsorbSlack = 0.05;

/// Everything the Theorem-1 infective test pi(s_c, x) > (1 - kAbsorbSlack) *
/// pi(s_c) reads about one cluster, built once and never mutated: the simplex
/// weights, dimension-major tiles of the member rows and the cluster version
/// they were built for. The stream builds one per cluster version at batch
/// end and scores arrivals through it; a stream export shares the same object
/// into the snapshot's arena block by refcount, so the stream's absorb step
/// and every snapshot query take their decisions through one exact scoring
/// loop over one copy of the state.
struct ClusterScorer {
  /// `version` value of a scorer whose source carries no versions.
  static constexpr uint64_t kUnbuilt = ~uint64_t{0};

  /// Simplex weights, member order.
  std::vector<Scalar> weights;
  /// Member rows, member order.
  SoaBlock members;
  /// The cluster mutation counter this scorer was built against; a mismatch
  /// means the cluster changed and the scorer must be rebuilt.
  uint64_t version = kUnbuilt;

  /// pi(s_c, x): the weighted kernel sum over every member, accumulated in
  /// member order (SoaWeightedKernelSum) — bit-identical to the row-major
  /// oracle loop.
  Scalar Affinity(const AffinityFunction& fn,
                  std::span<const Scalar> x) const;

  /// Bytes of the weights and the member tiles.
  size_t MemoryBytes() const;
};

/// Builds the scorer of the cluster whose members are the rows `members` of
/// `data`, with simplex `weights` (member order), stamped with `version`.
std::shared_ptr<const ClusterScorer> BuildClusterScorer(
    const Dataset& data, std::span<const Index> members,
    std::span<const Scalar> weights,
    uint64_t version = ClusterScorer::kUnbuilt);

}  // namespace alid

#endif  // ALID_CORE_CLUSTER_SCORER_H_

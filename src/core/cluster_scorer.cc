#include "core/cluster_scorer.h"

#include "common/check.h"
#include "simd/simd_dispatch.h"

namespace alid {

Scalar ClusterScorer::Affinity(const AffinityFunction& fn,
                               std::span<const Scalar> x) const {
  return SoaWeightedKernelSum(*ActiveSimdOps(), members, weights, fn,
                              x.data());
}

size_t ClusterScorer::MemoryBytes() const {
  return weights.size() * sizeof(Scalar) + members.MemoryBytes();
}

std::shared_ptr<const ClusterScorer> BuildClusterScorer(
    const Dataset& data, std::span<const Index> members,
    std::span<const Scalar> weights, uint64_t version) {
  ALID_CHECK(members.size() == weights.size());
  auto scorer = std::make_shared<ClusterScorer>();
  scorer->weights.assign(weights.begin(), weights.end());
  scorer->members.GatherRows(data, members);
  scorer->version = version;
  return scorer;
}

}  // namespace alid

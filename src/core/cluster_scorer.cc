#include "core/cluster_scorer.h"

#include <algorithm>

#include "common/check.h"
#include "simd/simd_dispatch.h"

namespace alid {

// Rejects hands the bound one checkpoint group per SoA tile; a tile must be
// exactly one group or the walk would check bounds at different prefix
// positions on different layouts and the prune decisions could diverge.
static_assert(kSimdTileLanes == kSketchBoundStride,
              "one SoA tile must cover exactly one bound-checkpoint group");

bool ClusterScorer::Rejects(const AffinityFunction& fn,
                            std::span<const Scalar> x, Scalar threshold,
                            Scalar incumbent) const {
  ALID_DCHECK(sketch.engaged());
  const SimdKernelOps& ops = *ActiveSimdOps();
  const double p = fn.params().p;
  const Scalar ceiling =
      threshold + (incumbent > Scalar{0} ? incumbent : Scalar{0});
  Scalar partial = 0.0;
  Scalar cum_weight = 0.0;
  Scalar dists[kSimdTileLanes];
  const size_t length = sketch.weights.size();
  for (size_t t0 = 0; t0 < length; t0 += kSketchBoundStride) {
    const size_t n = std::min<size_t>(kSketchBoundStride, length - t0);
    TileDistances(ops, prefix, static_cast<Index>(t0 / kSimdTileLanes),
                  x.data(), p, dists);
    for (size_t i = 0; i < n; ++i) {
      partial += sketch.weights[t0 + i] * fn.FromDistance(dists[i]);
      cum_weight += sketch.weights[t0 + i];
    }
    const size_t t = t0 + n - 1;  // the checkpoint position
    const Scalar bound_margin =
        partial + sketch.rest_weights[t] + kSketchBoundGuard - threshold;
    if (bound_margin <= 0.0 || bound_margin <= incumbent) return true;
    if (partial >= ceiling * cum_weight) return false;  // give up
  }
  return false;
}

Scalar ClusterScorer::Affinity(const AffinityFunction& fn,
                               std::span<const Scalar> x) const {
  return SoaWeightedKernelSum(*ActiveSimdOps(), members, weights, fn,
                              x.data());
}

size_t ClusterScorer::MemoryBytes() const {
  return weights.size() * sizeof(Scalar) + members.MemoryBytes() +
         sketch.ordinals.size() * sizeof(Index) +
         sketch.weights.size() * sizeof(Scalar) +
         sketch.rest_weights.size() * sizeof(Scalar) + prefix.MemoryBytes();
}

std::shared_ptr<const ClusterScorer> BuildClusterScorer(
    const Dataset& data, std::span<const Index> members,
    std::span<const Scalar> weights, const SupportSketchParams& params,
    uint64_t version) {
  ALID_CHECK(members.size() == weights.size());
  auto scorer = std::make_shared<ClusterScorer>();
  scorer->weights.assign(weights.begin(), weights.end());
  scorer->members.GatherRows(data, members);
  scorer->sketch = BuildSupportSketch(weights, params);
  scorer->sketch.built_version = version;
  std::vector<Index> prefix_items(scorer->sketch.ordinals.size());
  for (size_t t = 0; t < prefix_items.size(); ++t) {
    prefix_items[t] = members[static_cast<size_t>(scorer->sketch.ordinals[t])];
  }
  scorer->prefix.GatherRows(data, prefix_items);
  return scorer;
}

}  // namespace alid

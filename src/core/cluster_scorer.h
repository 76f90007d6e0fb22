#ifndef ALID_CORE_CLUSTER_SCORER_H_
#define ALID_CORE_CLUSTER_SCORER_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "affinity/affinity_function.h"
#include "common/dataset.h"
#include "common/types.h"
#include "core/support_sketch.h"
#include "simd/soa_block.h"

namespace alid {

/// Everything the Theorem-1 infective test pi(s_c, x) > (1 - slack) * pi(s_c)
/// reads about one cluster, built once and never mutated: the simplex
/// weights, dimension-major tiles of the member rows, the support sketch and
/// dimension-major tiles of the sketch prefix. The stream builds one per
/// cluster version at batch end and scores arrivals through it; a stream
/// export shares the same object into the snapshot's arena block by
/// refcount, so the stream's absorb step and every snapshot query take their
/// decisions through one scoring path over one copy of the state.
struct ClusterScorer {
  /// Simplex weights, member order.
  std::vector<Scalar> weights;
  /// Member rows, member order.
  SoaBlock members;
  /// Branch-and-bound sketch over `weights`; built_version is the cluster
  /// version the scorer was built for (SupportSketch::kUnbuilt when the
  /// source carries no versions).
  SupportSketch sketch;
  /// Sketch-prefix rows, sketch (descending-weight) order; empty when the
  /// sketch is disengaged.
  SoaBlock prefix;

  /// The branch-and-bound walk over the sketch prefix, one SoA tile per
  /// checkpoint group: true when some checkpoint bound — (partial +
  /// rest_weight + kSketchBoundGuard) - threshold, a certified upper bound
  /// on the exact margin — drops to 0 or to `incumbent` or below, i.e. the
  /// cluster provably cannot win and exact scoring may be skipped. False
  /// when the walk is inconclusive or gives up (see kSketchBoundStride); the
  /// caller then runs Affinity. The checkpoints are a pure function of the
  /// sketch, so prune decisions are bit-identical on every ISA. Call only
  /// when sketch.engaged().
  bool Rejects(const AffinityFunction& fn, std::span<const Scalar> x,
               Scalar threshold, Scalar incumbent) const;

  /// pi(s_c, x): the weighted kernel sum over every member, accumulated in
  /// member order (SoaWeightedKernelSum) — bit-identical to the row-major
  /// oracle loop.
  Scalar Affinity(const AffinityFunction& fn,
                  std::span<const Scalar> x) const;

  /// Bytes of the weights, sketch arrays and both tile sets.
  size_t MemoryBytes() const;
};

/// Builds the scorer of the cluster whose members are the rows `members` of
/// `data`, with simplex `weights` (member order). `version` is stamped into
/// sketch.built_version.
std::shared_ptr<const ClusterScorer> BuildClusterScorer(
    const Dataset& data, std::span<const Index> members,
    std::span<const Scalar> weights, const SupportSketchParams& params,
    uint64_t version = SupportSketch::kUnbuilt);

}  // namespace alid

#endif  // ALID_CORE_CLUSTER_SCORER_H_

#ifndef ALID_SIMD_SOA_BLOCK_H_
#define ALID_SIMD_SOA_BLOCK_H_

#include <span>
#include <vector>

#include "affinity/affinity_function.h"
#include "common/dataset.h"
#include "common/types.h"
#include "simd/simd_dispatch.h"

namespace alid {

/// Dimension-major (structure-of-arrays) storage of a list of member rows,
/// tiled kSimdTileLanes members wide: tile t holds members
/// [t * lanes, (t + 1) * lanes), and within a tile coordinate k of all
/// lanes is contiguous (`tile[k * lanes + l]`). One contiguous load per
/// dimension feeds a full vector register, which is what turns the Eq.-1
/// distance loop from a latency-bound scalar chain into a width-bound
/// streaming kernel (the Polynesia layout-for-the-memory-hierarchy
/// argument). The final tile zero-pads its unused lanes so kernels can
/// always run full width; padded outputs are never read.
class SoaBlock {
 public:
  SoaBlock() = default;

  Index count() const { return count_; }
  int dim() const { return dim_; }
  bool empty() const { return count_ == 0; }
  Index num_tiles() const {
    return (count_ + kSimdTileLanes - 1) / kSimdTileLanes;
  }

  /// Rebuilds from rows of `data` gathered at `members`, in order (members
  /// live in arbitrary slots or dataset rows).
  void GatherRows(const Dataset& data, std::span<const Index> members);

  /// Copies member i's row out of its tile lane into out[0..dim).
  void CopyRow(Index i, Scalar* out) const;

  /// Base pointer of tile t (dim * kSimdTileLanes scalars).
  const Scalar* tile(Index t) const {
    return tiles_.data() +
           static_cast<size_t>(t) * dim_ * kSimdTileLanes;
  }

  size_t MemoryBytes() const { return tiles_.size() * sizeof(Scalar); }

 private:
  void Resize(Index count, int dim);

  Index count_ = 0;
  int dim_ = 0;
  std::vector<Scalar> tiles_;
};

/// Fills out[0..lanes) with the L_p distances of tile `t`'s members to
/// `query`. out[l] is bit-identical to LpDistance(member row, query, p) for
/// every valid lane and every p: p == 2 and p == 1 run the `ops` tile
/// kernels, which reproduce the scalar per-dimension accumulation exactly
/// (the p == 2 square root is the same correctly-rounded std::sqrt on the
/// same bits); any other p runs LpDistance's general loop lane by lane,
/// operation for operation.
void TileDistances(const SimdKernelOps& ops, const SoaBlock& block, Index t,
                   const Scalar* query, double p,
                   Scalar out[kSimdTileLanes]);

/// pi(s, x): the weighted Eq.-1 kernel sum of every member of `block`
/// against `query`, accumulated serially in member order — the summation
/// order of a weighted loop over LazyAffinityOracle::Entry, so the value
/// is bit-identical to the row-major scalar path (ClusterScorer::Affinity).
/// Distances come from the tile kernels; the transcendental stays the
/// same per-member std::exp on the same argument bits (the exact path never
/// batches it — see the tolerance contract in README for the opt-out).
Scalar SoaWeightedKernelSum(const SimdKernelOps& ops, const SoaBlock& block,
                            std::span<const Scalar> weights,
                            const AffinityFunction& fn, const Scalar* query);

/// L_p distances of arbitrary dataset rows to `query`: gathers items eight
/// at a time into a thread-local tile and runs TileDistances. out[i] is
/// bit-identical to data.DistanceTo(items[i], query, p).
void GatheredDistances(const SimdKernelOps& ops, const Dataset& data,
                       std::span<const Index> items,
                       std::span<const Scalar> query, double p, Scalar* out);

}  // namespace alid

#endif  // ALID_SIMD_SOA_BLOCK_H_

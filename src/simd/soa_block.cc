#include "simd/soa_block.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace alid {

void SoaBlock::Resize(Index count, int dim) {
  count_ = count;
  dim_ = dim;
  const size_t tiles = static_cast<size_t>(num_tiles());
  tiles_.assign(tiles * static_cast<size_t>(dim) * kSimdTileLanes, 0.0);
}

void SoaBlock::GatherRows(const Dataset& data,
                          std::span<const Index> members) {
  Resize(static_cast<Index>(members.size()), data.dim());
  for (size_t m = 0; m < members.size(); ++m) {
    const std::span<const Scalar> row = data[members[m]];
    Scalar* lane = tiles_.data() +
                   (m / kSimdTileLanes) * static_cast<size_t>(dim_) *
                       kSimdTileLanes +
                   m % kSimdTileLanes;
    for (int k = 0; k < dim_; ++k) {
      lane[static_cast<size_t>(k) * kSimdTileLanes] = row[k];
    }
  }
}

void SoaBlock::CopyRow(Index i, Scalar* out) const {
  ALID_DCHECK(i >= 0 && i < count_);
  const Scalar* lane = tile(i / kSimdTileLanes) + i % kSimdTileLanes;
  for (int k = 0; k < dim_; ++k) {
    out[k] = lane[static_cast<size_t>(k) * kSimdTileLanes];
  }
}

void TileDistances(const SimdKernelOps& ops, const SoaBlock& block, Index t,
                   const Scalar* query, double p,
                   Scalar out[kSimdTileLanes]) {
  if (p == 2.0) {
    ops.tile_squared_l2(block.tile(t), block.dim(), query, out);
    for (int l = 0; l < kSimdTileLanes; ++l) out[l] = std::sqrt(out[l]);
  } else if (p == 1.0) {
    ops.tile_l1(block.tile(t), block.dim(), query, out);
  } else {
    // LpDistance's general loop, lane by lane: the same ascending-dimension
    // pow accumulation and the same final root, so every lane keeps its
    // scalar bits. No ISA has a kernel for it; lane width is not observable.
    const Scalar* tile = block.tile(t);
    Scalar acc[kSimdTileLanes] = {};
    for (int k = 0; k < block.dim(); ++k) {
      const Scalar* col = tile + static_cast<size_t>(k) * kSimdTileLanes;
      for (int l = 0; l < kSimdTileLanes; ++l) {
        acc[l] += std::pow(std::abs(col[l] - query[k]), p);
      }
    }
    for (int l = 0; l < kSimdTileLanes; ++l) {
      out[l] = std::pow(acc[l], 1.0 / p);
    }
  }
}

Scalar SoaWeightedKernelSum(const SimdKernelOps& ops, const SoaBlock& block,
                            std::span<const Scalar> weights,
                            const AffinityFunction& fn, const Scalar* query) {
  ALID_DCHECK(static_cast<Index>(weights.size()) == block.count());
  const double p = fn.params().p;
  Scalar dists[kSimdTileLanes];
  Scalar affinity = 0.0;  // accumulated in member order — see header
  const Index tiles = block.num_tiles();
  for (Index t = 0; t < tiles; ++t) {
    TileDistances(ops, block, t, query, p, dists);
    const Index base = t * kSimdTileLanes;
    const Index lanes =
        std::min<Index>(kSimdTileLanes, block.count() - base);
    for (Index l = 0; l < lanes; ++l) {
      affinity += weights[base + l] * fn.FromDistance(dists[l]);
    }
  }
  return affinity;
}

void GatheredDistances(const SimdKernelOps& ops, const Dataset& data,
                       std::span<const Index> items,
                       std::span<const Scalar> query, double p, Scalar* out) {
  thread_local SoaBlock gather;
  Scalar dists[kSimdTileLanes];
  for (size_t at = 0; at < items.size(); at += kSimdTileLanes) {
    const size_t n = std::min<size_t>(kSimdTileLanes, items.size() - at);
    gather.GatherRows(data, items.subspan(at, n));
    TileDistances(ops, gather, 0, query.data(), p, dists);
    for (size_t l = 0; l < n; ++l) out[at + l] = dists[l];
  }
}

}  // namespace alid

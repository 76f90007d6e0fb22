// The always-compiled reference implementation of the tile kernels — the
// bit-exactness oracle of every vector path. Each lane accumulates its
// member's terms in ascending dimension order with separate multiply and add
// (this TU builds with -ffp-contract=off, see CMakeLists), which is exactly
// the operation sequence of the row-major scalar loops in common/dataset.cc
// and of the per-projection LSH dot product — so a lane's output is
// bit-identical to Dataset::SquaredL2 / the L1 loop / the projection for
// that column, and bit-identical to what any vector ISA computes for the
// same lane.
//
// The kernels keep one accumulator per lane and walk the tile dimension by
// dimension, although a plain loop per lane (one serial sum over the
// dimensions, reading the tile with a stride of kSimdTileLanes) is just as
// bit-identical and shorter. The per-lane form measured slower at dim >= 64:
// micro_simd speedup over the row-major loops, 4 runs on a 4-core Xeon,
// eq1_sum dim 256 0.50-0.84x against 0.90-1.47x for this form, lsh_hash dim
// 128 0.63-0.77x against 0.90-1.14x. The reason: eight independent lane
// sums over one contiguous row compile to packed SSE2 arithmetic on x86-64
// (lanes never add into each other, so no reassociation is needed), while
// the per-lane loop is one serial scalar chain.
#include <cmath>

#include "simd/simd_dispatch.h"

namespace alid {
namespace {

void TileSquaredL2Scalar(const Scalar* tile, int dim, const Scalar* query,
                         Scalar* out) {
  Scalar acc[kSimdTileLanes] = {};
  for (int k = 0; k < dim; ++k) {
    const Scalar q = query[k];
    const Scalar* col = tile + static_cast<size_t>(k) * kSimdTileLanes;
    for (int l = 0; l < kSimdTileLanes; ++l) {
      const Scalar d = col[l] - q;
      const Scalar sq = d * d;
      acc[l] += sq;
    }
  }
  for (int l = 0; l < kSimdTileLanes; ++l) out[l] = acc[l];
}

void TileL1Scalar(const Scalar* tile, int dim, const Scalar* query,
                  Scalar* out) {
  Scalar acc[kSimdTileLanes] = {};
  for (int k = 0; k < dim; ++k) {
    const Scalar q = query[k];
    const Scalar* col = tile + static_cast<size_t>(k) * kSimdTileLanes;
    for (int l = 0; l < kSimdTileLanes; ++l) {
      acc[l] += std::abs(col[l] - q);
    }
  }
  for (int l = 0; l < kSimdTileLanes; ++l) out[l] = acc[l];
}

// One tile at a time: its eight lane accumulators are already eight
// independent add chains.
void TileDotScalar(const Scalar* tiles, int num_tiles, int dim,
                   const Scalar* x, Scalar* out) {
  for (int t = 0; t < num_tiles; ++t) {
    const Scalar* tile =
        tiles + static_cast<size_t>(t) * dim * kSimdTileLanes;
    Scalar acc[kSimdTileLanes] = {};
    for (int k = 0; k < dim; ++k) {
      const Scalar v = x[k];
      const Scalar* col = tile + static_cast<size_t>(k) * kSimdTileLanes;
      for (int l = 0; l < kSimdTileLanes; ++l) {
        const Scalar prod = col[l] * v;
        acc[l] += prod;
      }
    }
    for (int l = 0; l < kSimdTileLanes; ++l) {
      out[t * kSimdTileLanes + l] = acc[l];
    }
  }
}

constexpr SimdKernelOps kScalarOps = {"scalar", TileSquaredL2Scalar,
                                      TileL1Scalar, TileDotScalar};

}  // namespace

const SimdKernelOps* GetScalarSimdOps() { return &kScalarOps; }

}  // namespace alid

// AVX-512F tile kernels: one 8-lane tile is exactly one 8-wide double
// register. Same exactness discipline as the AVX2/scalar paths — separate
// subtract/multiply/add, ascending dimension order, no FMA, built with
// -ffp-contract=off — so every lane is bit-identical to the scalar
// reference. Compiles to a nullptr accessor without AVX-512 support.
#include "simd/simd_dispatch.h"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace alid {
namespace {

void TileSquaredL2Avx512(const Scalar* tile, int dim, const Scalar* query,
                         Scalar* out) {
  __m512d acc = _mm512_setzero_pd();
  for (int k = 0; k < dim; ++k) {
    const __m512d q = _mm512_set1_pd(query[k]);
    const __m512d d = _mm512_sub_pd(
        _mm512_loadu_pd(tile + static_cast<size_t>(k) * kSimdTileLanes), q);
    acc = _mm512_add_pd(acc, _mm512_mul_pd(d, d));
  }
  _mm512_storeu_pd(out, acc);
}

void TileL1Avx512(const Scalar* tile, int dim, const Scalar* query,
                  Scalar* out) {
  __m512d acc = _mm512_setzero_pd();
  for (int k = 0; k < dim; ++k) {
    const __m512d q = _mm512_set1_pd(query[k]);
    const __m512d d = _mm512_sub_pd(
        _mm512_loadu_pd(tile + static_cast<size_t>(k) * kSimdTileLanes), q);
    acc = _mm512_add_pd(acc, _mm512_abs_pd(d));
  }
  _mm512_storeu_pd(out, acc);
}

// kTiles consecutive tiles side by side: kTiles independent add chains
// (one tile alone is one register, latency-bound on its single chain).
template <int kTiles>
void TileDotGroupAvx512(const Scalar* tiles, int dim, const Scalar* x,
                        Scalar* out) {
  const size_t stride = static_cast<size_t>(dim) * kSimdTileLanes;
  __m512d acc[kTiles];
  for (int g = 0; g < kTiles; ++g) acc[g] = _mm512_setzero_pd();
  for (int k = 0; k < dim; ++k) {
    const __m512d v = _mm512_set1_pd(x[k]);
    const Scalar* col = tiles + static_cast<size_t>(k) * kSimdTileLanes;
    for (int g = 0; g < kTiles; ++g) {
      acc[g] = _mm512_add_pd(
          acc[g], _mm512_mul_pd(_mm512_loadu_pd(col + g * stride), v));
    }
  }
  for (int g = 0; g < kTiles; ++g) {
    _mm512_storeu_pd(out + g * kSimdTileLanes, acc[g]);
  }
}

void TileDotAvx512(const Scalar* tiles, int num_tiles, int dim,
                   const Scalar* x, Scalar* out) {
  const size_t stride = static_cast<size_t>(dim) * kSimdTileLanes;
  int t = 0;
  for (; t + 4 <= num_tiles; t += 4) {
    TileDotGroupAvx512<4>(tiles + t * stride, dim, x,
                          out + t * kSimdTileLanes);
  }
  const Scalar* rest = tiles + t * stride;
  Scalar* rest_out = out + t * kSimdTileLanes;
  switch (num_tiles - t) {
    case 3:
      TileDotGroupAvx512<3>(rest, dim, x, rest_out);
      break;
    case 2:
      TileDotGroupAvx512<2>(rest, dim, x, rest_out);
      break;
    case 1:
      TileDotGroupAvx512<1>(rest, dim, x, rest_out);
      break;
  }
}

constexpr SimdKernelOps kAvx512Ops = {"avx512", TileSquaredL2Avx512,
                                      TileL1Avx512, TileDotAvx512};

}  // namespace

const SimdKernelOps* GetAvx512SimdOps() { return &kAvx512Ops; }

}  // namespace alid

#else  // !defined(__AVX512F__)

namespace alid {
const SimdKernelOps* GetAvx512SimdOps() { return nullptr; }
}  // namespace alid

#endif

// AVX2 tile kernels: one 8-lane tile is two 4-wide double registers. Only
// separate subtract/multiply/add intrinsics (never FMA — this TU builds
// without -mfma and with -ffp-contract=off), accumulating in ascending
// dimension order, so every lane reproduces the scalar reference bit for
// bit. The whole file compiles away to a nullptr accessor when the
// toolchain could not target AVX2.
#include "simd/simd_dispatch.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace alid {
namespace {

void TileSquaredL2Avx2(const Scalar* tile, int dim, const Scalar* query,
                       Scalar* out) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  for (int k = 0; k < dim; ++k) {
    const __m256d q = _mm256_set1_pd(query[k]);
    const Scalar* col = tile + static_cast<size_t>(k) * kSimdTileLanes;
    const __m256d d_lo = _mm256_sub_pd(_mm256_loadu_pd(col), q);
    const __m256d d_hi = _mm256_sub_pd(_mm256_loadu_pd(col + 4), q);
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(d_lo, d_lo));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(d_hi, d_hi));
  }
  _mm256_storeu_pd(out, acc_lo);
  _mm256_storeu_pd(out + 4, acc_hi);
}

void TileL1Avx2(const Scalar* tile, int dim, const Scalar* query,
                Scalar* out) {
  // |x| as a sign-bit mask clear — bit-identical to std::abs on doubles.
  const __m256d abs_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(
      static_cast<long long>(0x7fffffffffffffffULL)));
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  for (int k = 0; k < dim; ++k) {
    const __m256d q = _mm256_set1_pd(query[k]);
    const Scalar* col = tile + static_cast<size_t>(k) * kSimdTileLanes;
    const __m256d d_lo = _mm256_sub_pd(_mm256_loadu_pd(col), q);
    const __m256d d_hi = _mm256_sub_pd(_mm256_loadu_pd(col + 4), q);
    acc_lo = _mm256_add_pd(acc_lo, _mm256_and_pd(d_lo, abs_mask));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_and_pd(d_hi, abs_mask));
  }
  _mm256_storeu_pd(out, acc_lo);
  _mm256_storeu_pd(out + 4, acc_hi);
}

// kTiles consecutive tiles side by side: 2 * kTiles independent add chains.
template <int kTiles>
void TileDotGroupAvx2(const Scalar* tiles, int dim, const Scalar* x,
                      Scalar* out) {
  const size_t stride = static_cast<size_t>(dim) * kSimdTileLanes;
  __m256d acc_lo[kTiles];
  __m256d acc_hi[kTiles];
  for (int g = 0; g < kTiles; ++g) {
    acc_lo[g] = _mm256_setzero_pd();
    acc_hi[g] = _mm256_setzero_pd();
  }
  for (int k = 0; k < dim; ++k) {
    const __m256d v = _mm256_set1_pd(x[k]);
    const Scalar* col = tiles + static_cast<size_t>(k) * kSimdTileLanes;
    for (int g = 0; g < kTiles; ++g) {
      const Scalar* lanes = col + g * stride;
      acc_lo[g] = _mm256_add_pd(acc_lo[g],
                                _mm256_mul_pd(_mm256_loadu_pd(lanes), v));
      acc_hi[g] = _mm256_add_pd(acc_hi[g],
                                _mm256_mul_pd(_mm256_loadu_pd(lanes + 4), v));
    }
  }
  for (int g = 0; g < kTiles; ++g) {
    _mm256_storeu_pd(out + g * kSimdTileLanes, acc_lo[g]);
    _mm256_storeu_pd(out + g * kSimdTileLanes + 4, acc_hi[g]);
  }
}

void TileDotAvx2(const Scalar* tiles, int num_tiles, int dim, const Scalar* x,
                 Scalar* out) {
  const size_t stride = static_cast<size_t>(dim) * kSimdTileLanes;
  int t = 0;
  for (; t + 4 <= num_tiles; t += 4) {
    TileDotGroupAvx2<4>(tiles + t * stride, dim, x, out + t * kSimdTileLanes);
  }
  const Scalar* rest = tiles + t * stride;
  Scalar* rest_out = out + t * kSimdTileLanes;
  switch (num_tiles - t) {
    case 3:
      TileDotGroupAvx2<3>(rest, dim, x, rest_out);
      break;
    case 2:
      TileDotGroupAvx2<2>(rest, dim, x, rest_out);
      break;
    case 1:
      TileDotGroupAvx2<1>(rest, dim, x, rest_out);
      break;
  }
}

constexpr SimdKernelOps kAvx2Ops = {"avx2", TileSquaredL2Avx2, TileL1Avx2,
                                    TileDotAvx2};

}  // namespace

const SimdKernelOps* GetAvx2SimdOps() { return &kAvx2Ops; }

}  // namespace alid

#else  // !defined(__AVX2__)

namespace alid {
const SimdKernelOps* GetAvx2SimdOps() { return nullptr; }
}  // namespace alid

#endif

// NEON (AArch64) tile kernels: one 8-lane tile is four 2-wide double
// registers. Separate multiply and add (vmulq + vaddq, never vfmaq) in
// ascending dimension order, built with -ffp-contract=off, so every lane is
// bit-identical to the scalar reference — which on AArch64 is itself built
// contraction-free (the library-wide -ffp-contract=off, see CMakeLists).
#include "simd/simd_dispatch.h"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace alid {
namespace {

void TileSquaredL2Neon(const Scalar* tile, int dim, const Scalar* query,
                       Scalar* out) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0);
  float64x2_t acc3 = vdupq_n_f64(0.0);
  for (int k = 0; k < dim; ++k) {
    const float64x2_t q = vdupq_n_f64(query[k]);
    const Scalar* col = tile + static_cast<size_t>(k) * kSimdTileLanes;
    const float64x2_t d0 = vsubq_f64(vld1q_f64(col), q);
    const float64x2_t d1 = vsubq_f64(vld1q_f64(col + 2), q);
    const float64x2_t d2 = vsubq_f64(vld1q_f64(col + 4), q);
    const float64x2_t d3 = vsubq_f64(vld1q_f64(col + 6), q);
    acc0 = vaddq_f64(acc0, vmulq_f64(d0, d0));
    acc1 = vaddq_f64(acc1, vmulq_f64(d1, d1));
    acc2 = vaddq_f64(acc2, vmulq_f64(d2, d2));
    acc3 = vaddq_f64(acc3, vmulq_f64(d3, d3));
  }
  vst1q_f64(out, acc0);
  vst1q_f64(out + 2, acc1);
  vst1q_f64(out + 4, acc2);
  vst1q_f64(out + 6, acc3);
}

void TileL1Neon(const Scalar* tile, int dim, const Scalar* query,
                Scalar* out) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0);
  float64x2_t acc3 = vdupq_n_f64(0.0);
  for (int k = 0; k < dim; ++k) {
    const float64x2_t q = vdupq_n_f64(query[k]);
    const Scalar* col = tile + static_cast<size_t>(k) * kSimdTileLanes;
    acc0 = vaddq_f64(acc0, vabsq_f64(vsubq_f64(vld1q_f64(col), q)));
    acc1 = vaddq_f64(acc1, vabsq_f64(vsubq_f64(vld1q_f64(col + 2), q)));
    acc2 = vaddq_f64(acc2, vabsq_f64(vsubq_f64(vld1q_f64(col + 4), q)));
    acc3 = vaddq_f64(acc3, vabsq_f64(vsubq_f64(vld1q_f64(col + 6), q)));
  }
  vst1q_f64(out, acc0);
  vst1q_f64(out + 2, acc1);
  vst1q_f64(out + 4, acc2);
  vst1q_f64(out + 6, acc3);
}

// kTiles consecutive tiles side by side: 4 * kTiles independent add chains.
template <int kTiles>
void TileDotGroupNeon(const Scalar* tiles, int dim, const Scalar* x,
                      Scalar* out) {
  const size_t stride = static_cast<size_t>(dim) * kSimdTileLanes;
  float64x2_t acc[kTiles][4];
  for (int g = 0; g < kTiles; ++g) {
    for (int r = 0; r < 4; ++r) acc[g][r] = vdupq_n_f64(0.0);
  }
  for (int k = 0; k < dim; ++k) {
    const float64x2_t v = vdupq_n_f64(x[k]);
    const Scalar* col = tiles + static_cast<size_t>(k) * kSimdTileLanes;
    for (int g = 0; g < kTiles; ++g) {
      for (int r = 0; r < 4; ++r) {
        acc[g][r] = vaddq_f64(
            acc[g][r], vmulq_f64(vld1q_f64(col + g * stride + 2 * r), v));
      }
    }
  }
  for (int g = 0; g < kTiles; ++g) {
    for (int r = 0; r < 4; ++r) {
      vst1q_f64(out + g * kSimdTileLanes + 2 * r, acc[g][r]);
    }
  }
}

void TileDotNeon(const Scalar* tiles, int num_tiles, int dim, const Scalar* x,
                 Scalar* out) {
  const size_t stride = static_cast<size_t>(dim) * kSimdTileLanes;
  int t = 0;
  for (; t + 2 <= num_tiles; t += 2) {
    TileDotGroupNeon<2>(tiles + t * stride, dim, x, out + t * kSimdTileLanes);
  }
  if (t < num_tiles) {
    TileDotGroupNeon<1>(tiles + t * stride, dim, x, out + t * kSimdTileLanes);
  }
}

constexpr SimdKernelOps kNeonOps = {"neon", TileSquaredL2Neon, TileL1Neon,
                                    TileDotNeon};

}  // namespace

const SimdKernelOps* GetNeonSimdOps() { return &kNeonOps; }

}  // namespace alid

#else  // !defined(__aarch64__)

namespace alid {
const SimdKernelOps* GetNeonSimdOps() { return nullptr; }
}  // namespace alid

#endif

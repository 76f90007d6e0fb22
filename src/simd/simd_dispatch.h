#ifndef ALID_SIMD_SIMD_DISPATCH_H_
#define ALID_SIMD_SIMD_DISPATCH_H_

#include <vector>

#include "common/types.h"

namespace alid {

/// The instruction sets the tile kernels (Eq.-1 scoring distances and the
/// LSH projections) can run on: one vector path per architecture (AVX2 on
/// x86, NEON on AArch64) beside the scalar reference. kScalar is always
/// compiled and is the bit-exactness oracle every vector path is tested
/// against; the others exist only where the toolchain could compile them and
/// engage only where the running CPU reports support.
enum class SimdIsa {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// One ISA's implementation of the dimension-major tile kernels. A tile is
/// kSimdTileLanes columns stored dimension-major (`tile[k * kSimdTileLanes +
/// l]` is coordinate k of lane l), so one contiguous load feeds every lane
/// the same coordinate of kSimdTileLanes different columns. A column is a
/// cluster member for the distance kernels (SoaBlock) and an LSH projection
/// vector for tile_dot (LshIndex).
///
/// Exactness contract (the reason the vector path can be the *default*):
/// every lane accumulates its column's per-dimension terms in ascending
/// dimension order, starting from 0.0, with separate multiply and add —
/// never fused, never reassociated across dimensions — which is
/// operation-for-operation the scalar row-major loop it replaces
/// (Dataset::SquaredL2 / LpDistance for the distances, the per-projection
/// dot product of p-stable hashing for tile_dot). Lanes never sum with each
/// other, so lane width and the number of tiles in flight are not
/// observable: every ISA produces bit-identical outputs, and each lane is
/// bit-identical to the scalar row-major value of its column. The SIMD
/// translation units compile with -ffp-contract=off to pin this down.
struct SimdKernelOps {
  const char* name;
  /// out[l] = sum_k (tile[k * lanes + l] - query[k])^2 for every lane l.
  void (*tile_squared_l2)(const Scalar* tile, int dim, const Scalar* query,
                          Scalar* out);
  /// out[l] = sum_k |tile[k * lanes + l] - query[k]| for every lane l.
  void (*tile_l1)(const Scalar* tile, int dim, const Scalar* query,
                  Scalar* out);
  /// Dot products of `x` with every lane of `num_tiles` consecutive tiles
  /// (tile t starts at tiles + t * dim * lanes):
  /// out[t * lanes + l] = sum_k tiles[(t * dim + k) * lanes + l] * x[k].
  /// Several tiles are accumulated side by side, so one call keeps more
  /// independent add chains in flight than one tile's lanes provide.
  void (*tile_dot)(const Scalar* tiles, int num_tiles, int dim,
                   const Scalar* x, Scalar* out);
};

/// Columns per tile. Fixed at 8 so one tile is two AVX2 registers, four NEON
/// registers, or eight scalar accumulators.
inline constexpr int kSimdTileLanes = 8;

/// The ops of `isa`, or nullptr when that ISA was not compiled in or the
/// running CPU does not support it (kScalar never returns nullptr).
const SimdKernelOps* SimdOpsFor(SimdIsa isa);

/// The dispatched ops: the host's vector ISA (AVX2 on x86, NEON on AArch64,
/// else scalar), unless the ALID_SIMD environment variable ("scalar",
/// "avx2", "neon", "auto") pinned one at first use. A pin that names an
/// available ISA is active; any other pin (an unknown name, the retired
/// "avx512", an ISA not compiled or not supported by the CPU) resolves to
/// scalar, never to a different vector path, so a force-fallback CI leg can
/// only ever get what it asked for.
const SimdKernelOps* ActiveSimdOps();

/// The ISA behind ActiveSimdOps().
SimdIsa ActiveSimdIsa();

/// Human-readable ISA name ("scalar", "avx2", ...).
const char* SimdIsaName(SimdIsa isa);

/// Every ISA whose ops are usable right now (compiled in and CPU-supported),
/// scalar first — the bench's per-ISA column axis.
std::vector<SimdIsa> AvailableSimdIsas();

/// Test hook: pins the dispatched ops to `isa` (must be available) until the
/// returned guard dies. Not thread-safe against concurrent queries — flip it
/// only between operations, as the bit-identity tests do.
class ScopedSimdIsaOverride {
 public:
  explicit ScopedSimdIsaOverride(SimdIsa isa);
  ~ScopedSimdIsaOverride();
  ScopedSimdIsaOverride(const ScopedSimdIsaOverride&) = delete;
  ScopedSimdIsaOverride& operator=(const ScopedSimdIsaOverride&) = delete;

 private:
  const SimdKernelOps* previous_;
  SimdIsa previous_isa_;
};

}  // namespace alid

#endif  // ALID_SIMD_SIMD_DISPATCH_H_

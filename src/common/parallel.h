#ifndef ALID_COMMON_PARALLEL_H_
#define ALID_COMMON_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <span>

#include "common/types.h"

namespace alid {

class ThreadPool;

/// Deterministic data-parallel helpers for the baselines' hot loops.
///
/// Determinism contract (the baseline counterpart of PALID's per-seed-slot
/// guarantee): chunk boundaries depend only on the range and the call site's
/// fixed grain — never on the pool width, the schedule, or which worker
/// claims a chunk — and every reduction combines per-chunk partials in
/// ascending chunk order. A loop body that is pure per chunk therefore
/// produces bit-identical results with pool == nullptr and with any executor
/// count. The grain is part of the FP reduction order, so it is a code
/// constant at every call site, never a setting.

/// The chunk grain actually used for a range: `grain` clamped to [1, range]
/// when positive, otherwise the range split into about kDefaultChunks chunks
/// (enough balancing slack for any plausible executor width).
int64_t DeterministicGrain(int64_t range, int64_t grain);

/// Number of chunks the range decomposes into under DeterministicGrain.
int64_t DeterministicChunkCount(int64_t range, int64_t grain);

/// Runs body(chunk, lo, hi) over the fixed chunk decomposition of
/// [begin, end). Serial — in chunk order — when the pool is null, the range
/// is a single chunk, or the caller already runs on one of the pool's
/// workers (nested parallelism degrades to serial instead of tripping
/// ParallelFor's re-entrancy check); otherwise the chunks run across the
/// pool with the calling thread participating. Either way the results are
/// identical, so callers may gate the pool on any size threshold freely.
void ParallelChunks(ThreadPool* pool, int64_t begin, int64_t end,
                    int64_t grain,
                    const std::function<void(int64_t, int64_t, int64_t)>& body);

/// Deterministic sum reduction: partial(lo, hi) per chunk, combined in chunk
/// order.
Scalar ParallelSum(ThreadPool* pool, int64_t begin, int64_t end, int64_t grain,
                   const std::function<Scalar(int64_t, int64_t)>& partial);

/// Deterministic dot product of equal-length vectors via ParallelSum.
Scalar ParallelDot(ThreadPool* pool, std::span<const Scalar> a,
                   std::span<const Scalar> b, int64_t grain);

}  // namespace alid

#endif  // ALID_COMMON_PARALLEL_H_

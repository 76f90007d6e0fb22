#include "common/parallel.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"

namespace alid {

namespace {

/// Default chunk count when the caller does not pin a grain. 64 mirrors
/// PALID's auto chunking: coarse enough to amortize pool overhead, fine
/// enough that 8 executors still share the work evenly.
constexpr int64_t kDefaultChunks = 64;

}  // namespace

int64_t DeterministicGrain(int64_t range, int64_t grain) {
  ALID_CHECK(range >= 1);
  if (grain > 0) return std::min(grain, range);
  return std::max<int64_t>(1, (range + kDefaultChunks - 1) / kDefaultChunks);
}

int64_t DeterministicChunkCount(int64_t range, int64_t grain) {
  const int64_t g = DeterministicGrain(range, grain);
  return (range + g - 1) / g;
}

void ParallelChunks(
    ThreadPool* pool, int64_t begin, int64_t end, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t)>& body) {
  if (begin >= end) return;
  const int64_t range = end - begin;
  const int64_t g = DeterministicGrain(range, grain);
  const int64_t num_chunks = (range + g - 1) / g;
  if (pool == nullptr || num_chunks == 1 || pool->CalledFromWorker()) {
    for (int64_t c = 0; c < num_chunks; ++c) {
      const int64_t lo = begin + c * g;
      body(c, lo, std::min(end, lo + g));
    }
    return;
  }
  // ParallelFor claims the same fixed boundaries (begin + chunk * g) from a
  // shared counter, so only the execution order differs from the serial path.
  pool->ParallelFor(
      begin, end,
      [&](int64_t lo, int64_t hi) { body((lo - begin) / g, lo, hi); }, g);
}

Scalar ParallelSum(ThreadPool* pool, int64_t begin, int64_t end, int64_t grain,
                   const std::function<Scalar(int64_t, int64_t)>& partial) {
  if (begin >= end) return 0.0;
  std::vector<Scalar> partials(
      static_cast<size_t>(DeterministicChunkCount(end - begin, grain)), 0.0);
  ParallelChunks(pool, begin, end, grain,
                 [&](int64_t chunk, int64_t lo, int64_t hi) {
                   partials[chunk] = partial(lo, hi);
                 });
  Scalar total = 0.0;
  for (Scalar p : partials) total += p;
  return total;
}

Scalar ParallelDot(ThreadPool* pool, std::span<const Scalar> a,
                   std::span<const Scalar> b, int64_t grain) {
  ALID_CHECK(a.size() == b.size());
  return ParallelSum(pool, 0, static_cast<int64_t>(a.size()), grain,
                     [&](int64_t lo, int64_t hi) {
                       Scalar s = 0.0;
                       for (int64_t i = lo; i < hi; ++i) s += a[i] * b[i];
                       return s;
                     });
}

}  // namespace alid

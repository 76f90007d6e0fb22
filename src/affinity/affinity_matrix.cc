#include "affinity/affinity_matrix.h"

#include "common/parallel.h"

namespace alid {

AffinityMatrix::AffinityMatrix(const Dataset& data,
                               const AffinityFunction& affinity,
                               ThreadPool* pool)
    : matrix_(data.size(), data.size(), 0.0) {
  const Index n = data.size();
  ParallelChunks(pool, 0, n, /*grain=*/0, [&](int64_t, int64_t lo, int64_t hi) {
    for (int64_t ii = lo; ii < hi; ++ii) {
      const Index i = static_cast<Index>(ii);
      for (Index j = i + 1; j < n; ++j) {
        const Scalar a = affinity(data, i, j);
        matrix_(i, j) = a;
        matrix_(j, i) = a;
      }
    }
  });
  // Each unordered pair is evaluated exactly once, whichever worker fills it.
  entries_computed_ = static_cast<int64_t>(n) * (n - 1) / 2;
  charge_ = std::make_unique<ScopedMemoryCharge>(
      static_cast<int64_t>(matrix_.MemoryBytes()));
}

AffinityMatrix::~AffinityMatrix() = default;

}  // namespace alid

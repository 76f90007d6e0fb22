#ifndef ALID_AFFINITY_AFFINITY_MATRIX_H_
#define ALID_AFFINITY_AFFINITY_MATRIX_H_

#include <cstdint>
#include <memory>

#include "affinity/affinity_function.h"
#include "common/dataset.h"
#include "common/matrix.h"
#include "common/memory_tracker.h"

namespace alid {

class ThreadPool;

/// The fully materialized global affinity matrix A — the O(n^2) time/space
/// cost center of the baselines (DS, IID, AP on dense input). Construction is
/// charged against the global MemoryTracker so the Figure 7/9 memory curves
/// reflect exactly this quadratic footprint.
class AffinityMatrix {
 public:
  /// Materializes A for the whole dataset. With a pool, rows fill in
  /// parallel (row i owns cells (i, j) and (j, i) for j > i, so every cell
  /// has exactly one writer and the matrix is identical for every pool
  /// width).
  AffinityMatrix(const Dataset& data, const AffinityFunction& affinity,
                 ThreadPool* pool = nullptr);

  ~AffinityMatrix();

  AffinityMatrix(const AffinityMatrix&) = delete;
  AffinityMatrix& operator=(const AffinityMatrix&) = delete;

  Index size() const { return matrix_.rows(); }
  const DenseMatrix& matrix() const { return matrix_; }
  Scalar operator()(Index i, Index j) const { return matrix_(i, j); }

  /// Number of kernel evaluations performed at construction (n(n-1)/2, each
  /// mirrored): the "entries computed" axis of Table 1's analysis.
  int64_t entries_computed() const { return entries_computed_; }

 private:
  DenseMatrix matrix_;
  int64_t entries_computed_ = 0;
  std::unique_ptr<ScopedMemoryCharge> charge_;
};

}  // namespace alid

#endif  // ALID_AFFINITY_AFFINITY_MATRIX_H_

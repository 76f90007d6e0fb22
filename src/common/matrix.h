#ifndef ALID_COMMON_MATRIX_H_
#define ALID_COMMON_MATRIX_H_

#include <span>
#include <vector>

#include "common/types.h"

namespace alid {

/// A dense row-major matrix of Scalars. Used for materialized affinity
/// matrices (the baselines' O(n^2) cost center), spectral embeddings and the
/// small eigenproblems inside Nystrom.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(Index rows, Index cols, Scalar fill = 0.0);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }

  Scalar& operator()(Index r, Index c) {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  Scalar operator()(Index r, Index c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  std::span<const Scalar> Row(Index r) const {
    return {data_.data() + static_cast<size_t>(r) * cols_,
            static_cast<size_t>(cols_)};
  }
  std::span<Scalar> MutableRow(Index r) {
    return {data_.data() + static_cast<size_t>(r) * cols_,
            static_cast<size_t>(cols_)};
  }

  /// y = M x (x.size() == cols, result size == rows).
  std::vector<Scalar> MatVec(std::span<const Scalar> x) const;

  /// x^T M x for square M.
  Scalar QuadraticForm(std::span<const Scalar> x) const;

  /// Returns M^T.
  DenseMatrix Transposed() const;

  /// Max |M(r,c) - M(c,r)| over the square part; 0 for exactly symmetric.
  Scalar SymmetryError() const;

  size_t MemoryBytes() const { return data_.size() * sizeof(Scalar); }
  const std::vector<Scalar>& raw() const { return data_; }

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Scalar> data_;
};

}  // namespace alid

#endif  // ALID_COMMON_MATRIX_H_

#ifndef ALID_BASELINES_AFFINITY_VIEW_H_
#define ALID_BASELINES_AFFINITY_VIEW_H_

#include <functional>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "common/sparse_matrix.h"
#include "common/types.h"

namespace alid {

/// A non-owning view over an affinity matrix that is either dense (the
/// baselines' default O(n^2) materialization) or CSR (the LSH-sparsified
/// setting of Section 5.1). All canonical baselines (IID, DS/RD, SEA, AP)
/// program against this view, so each runs unchanged in both regimes — the
/// comparison the paper's Figure 6 makes.
class AffinityView {
 public:
  explicit AffinityView(const DenseMatrix* dense) : dense_(dense) {}
  explicit AffinityView(const SparseMatrix* sparse) : sparse_(sparse) {}

  Index size() const {
    return dense_ != nullptr ? dense_->rows() : sparse_->rows();
  }

  /// Entry A(i, j).
  Scalar At(Index i, Index j) const {
    return dense_ != nullptr ? (*dense_)(i, j) : sparse_->At(i, j);
  }

  /// (A x)_r.
  Scalar RowDot(Index r, std::span<const Scalar> x) const;

  /// y = A x.
  std::vector<Scalar> MatVec(std::span<const Scalar> x) const;

  /// x^T A x.
  Scalar QuadraticForm(std::span<const Scalar> x) const;

  /// Visits the structurally non-zero entries of row r (dense: all of them).
  void ForEachInRow(Index r,
                    const std::function<void(Index, Scalar)>& fn) const;

 private:
  const DenseMatrix* dense_ = nullptr;
  const SparseMatrix* sparse_ = nullptr;
};

}  // namespace alid

#endif  // ALID_BASELINES_AFFINITY_VIEW_H_

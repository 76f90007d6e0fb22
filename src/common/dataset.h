#ifndef ALID_COMMON_DATASET_H_
#define ALID_COMMON_DATASET_H_

#include <span>
#include <vector>

#include "common/types.h"

namespace alid {

/// A row-major collection of n d-dimensional data points — the vertex set V
/// of the affinity graph. Rows are contiguous so distance kernels vectorize.
class Dataset {
 public:
  Dataset() = default;

  /// Creates an empty dataset of the given dimensionality.
  explicit Dataset(int dim) : dim_(dim) {}

  /// Takes ownership of a flat row-major buffer; data.size() % dim == 0.
  Dataset(int dim, std::vector<Scalar> data);

  /// Appends one point (must have size dim()).
  void Append(std::span<const Scalar> point);

  /// Returns the subset of rows given by `indices` (in order).
  Dataset Subset(const IndexList& indices) const;

  Index size() const { return static_cast<Index>(num_points_); }
  int dim() const { return dim_; }
  bool empty() const { return num_points_ == 0; }

  /// Immutable view of row i.
  std::span<const Scalar> operator[](Index i) const {
    return {data_.data() + static_cast<size_t>(i) * dim_,
            static_cast<size_t>(dim_)};
  }

  /// Mutable view of row i.
  std::span<Scalar> MutableRow(Index i) {
    return {data_.data() + static_cast<size_t>(i) * dim_,
            static_cast<size_t>(dim_)};
  }

  const std::vector<Scalar>& raw() const { return data_; }

  /// Lp distance between rows i and j (p >= 1; p == 2 fast-pathed).
  Scalar Distance(Index i, Index j, double p = 2.0) const;

  /// Lp distance between row i and an arbitrary query point.
  Scalar DistanceTo(Index i, std::span<const Scalar> q, double p = 2.0) const;

  /// Squared Euclidean distance between rows i and j.
  Scalar SquaredL2(Index i, Index j) const;

  /// An estimate of the data diameter: max distance from the centroid to any
  /// point, times 2. Used to scale absolute radii (e.g., the first-iteration
  /// ROI radius) to the data.
  Scalar DiameterEstimate(double p = 2.0) const;

  /// Bytes held by the point buffer (for memory accounting).
  size_t MemoryBytes() const { return data_.size() * sizeof(Scalar); }

 private:
  int dim_ = 0;
  size_t num_points_ = 0;
  std::vector<Scalar> data_;
};

/// Lp distance between two equal-length vectors.
Scalar LpDistance(std::span<const Scalar> a, std::span<const Scalar> b,
                  double p = 2.0);

/// Squared Euclidean distance between two equal-length vectors.
Scalar SquaredL2(std::span<const Scalar> a, std::span<const Scalar> b);

/// Dot product of two equal-length vectors.
Scalar Dot(std::span<const Scalar> a, std::span<const Scalar> b);

}  // namespace alid

#endif  // ALID_COMMON_DATASET_H_

#include "common/dataset.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace alid {

Dataset::Dataset(int dim, std::vector<Scalar> data)
    : dim_(dim), data_(std::move(data)) {
  ALID_CHECK(dim_ > 0);
  ALID_CHECK(data_.size() % static_cast<size_t>(dim_) == 0);
  num_points_ = data_.size() / static_cast<size_t>(dim_);
}

void Dataset::Append(std::span<const Scalar> point) {
  ALID_CHECK(static_cast<int>(point.size()) == dim_);
  data_.insert(data_.end(), point.begin(), point.end());
  ++num_points_;
}

Dataset Dataset::Subset(const IndexList& indices) const {
  Dataset out(dim_);
  out.data_.reserve(indices.size() * static_cast<size_t>(dim_));
  for (Index i : indices) {
    ALID_DCHECK(i >= 0 && i < size());
    out.Append((*this)[i]);
  }
  return out;
}

Scalar Dataset::Distance(Index i, Index j, double p) const {
  return LpDistance((*this)[i], (*this)[j], p);
}

Scalar Dataset::DistanceTo(Index i, std::span<const Scalar> q,
                           double p) const {
  return LpDistance((*this)[i], q, p);
}

Scalar Dataset::SquaredL2(Index i, Index j) const {
  return alid::SquaredL2((*this)[i], (*this)[j]);
}

Scalar Dataset::DiameterEstimate(double p) const {
  if (num_points_ == 0) return 0.0;
  std::vector<Scalar> centroid(dim_, 0.0);
  for (Index i = 0; i < size(); ++i) {
    auto row = (*this)[i];
    for (int k = 0; k < dim_; ++k) centroid[k] += row[k];
  }
  for (int k = 0; k < dim_; ++k) centroid[k] /= static_cast<Scalar>(size());
  Scalar max_r = 0.0;
  for (Index i = 0; i < size(); ++i) {
    max_r = std::max(max_r, DistanceTo(i, centroid, p));
  }
  return 2.0 * max_r;
}

Scalar LpDistance(std::span<const Scalar> a, std::span<const Scalar> b,
                  double p) {
  ALID_DCHECK(a.size() == b.size());
  if (p == 2.0) return std::sqrt(SquaredL2(a, b));
  if (p == 1.0) {
    Scalar s = 0.0;
    for (size_t k = 0; k < a.size(); ++k) s += std::abs(a[k] - b[k]);
    return s;
  }
  Scalar s = 0.0;
  for (size_t k = 0; k < a.size(); ++k) {
    s += std::pow(std::abs(a[k] - b[k]), p);
  }
  return std::pow(s, 1.0 / p);
}

Scalar SquaredL2(std::span<const Scalar> a, std::span<const Scalar> b) {
  ALID_DCHECK(a.size() == b.size());
  Scalar s = 0.0;
  for (size_t k = 0; k < a.size(); ++k) {
    const Scalar d = a[k] - b[k];
    s += d * d;
  }
  return s;
}

Scalar Dot(std::span<const Scalar> a, std::span<const Scalar> b) {
  ALID_DCHECK(a.size() == b.size());
  Scalar s = 0.0;
  for (size_t k = 0; k < a.size(); ++k) s += a[k] * b[k];
  return s;
}

}  // namespace alid

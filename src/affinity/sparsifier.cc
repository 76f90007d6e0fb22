#include "affinity/sparsifier.h"

#include <tuple>
#include <vector>

#include "common/check.h"

namespace alid {

SparseMatrix Sparsifier::FromLshCollisions(const Dataset& data,
                                           const AffinityFunction& affinity,
                                           const LshIndex& lsh) {
  ALID_CHECK(lsh.size() == data.size());
  const Index n = data.size();
  std::vector<std::tuple<Index, Index, Scalar>> triplets;
  for (Index i = 0; i < n; ++i) {
    for (Index j : lsh.QueryByIndex(i)) {
      if (j <= i) continue;  // handle each unordered pair once
      const Scalar a = affinity(data, i, j);
      triplets.emplace_back(i, j, a);
      triplets.emplace_back(j, i, a);
    }
  }
  return SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

SparseMatrix Sparsifier::Dense(const Dataset& data,
                               const AffinityFunction& affinity) {
  const Index n = data.size();
  std::vector<std::tuple<Index, Index, Scalar>> triplets;
  triplets.reserve(static_cast<size_t>(n) * (n - 1));
  for (Index i = 0; i < n; ++i) {
    for (Index j = i + 1; j < n; ++j) {
      const Scalar a = affinity(data, i, j);
      triplets.emplace_back(i, j, a);
      triplets.emplace_back(j, i, a);
    }
  }
  return SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

}  // namespace alid

#ifndef ALID_LINALG_LANCZOS_H_
#define ALID_LINALG_LANCZOS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/matrix.h"
#include "common/types.h"

namespace alid {

class ThreadPool;

/// Options of the Lanczos process.
struct LanczosOptions {
  /// Seed of the random start vector.
  uint64_t seed = 42;
  /// Optional shared worker pool. The basis updates, reorthogonalization
  /// and Ritz-vector reconstruction run chunked on it; every inner product
  /// reduces per-chunk partials in chunk order, so the decomposition is
  /// bit-identical for every pool width. (The caller's matvec is free to use
  /// the same pool — that is where the O(n^2) work lives.)
  ThreadPool* pool = nullptr;
};

/// Top-k eigenpairs as returned by LanczosTopK.
struct EigenDecompositionTopK {
  std::vector<Scalar> values;  // size k, descending
  DenseMatrix vectors;         // n x k, column j pairs with values[j]
};

/// Computes the k algebraically largest eigenpairs of an n x n symmetric
/// operator by the Lanczos process with full reorthogonalization. The
/// operator is any y = A x callback, so callers can pass a dense matrix, a
/// CSR matrix, or a normalized-Laplacian closure without materializing
/// anything new. The Krylov subspace has max(3k, 30) dimensions, capped at
/// n. Cost: O(subspace * cost(matvec) + subspace^2 * n).
EigenDecompositionTopK LanczosTopK(
    Index n, int k,
    const std::function<std::vector<Scalar>(std::span<const Scalar>)>& matvec,
    LanczosOptions options = {});

}  // namespace alid

#endif  // ALID_LINALG_LANCZOS_H_

#include "linalg/lanczos.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/dataset.h"
#include "common/parallel.h"
#include "common/random.h"
#include "linalg/jacobi.h"

namespace alid {

namespace {

// Grain of the O(n) vector kernels: one chunk for small problems (no pool
// overhead where a dot costs microseconds), splitting only when n is large
// enough for the pool to pay off.
constexpr int64_t kVectorGrain = 4096;
// Convergence tolerance on the Ritz residual estimate.
constexpr double kTolerance = 1e-9;

}  // namespace

EigenDecompositionTopK LanczosTopK(
    Index n, int k,
    const std::function<std::vector<Scalar>(std::span<const Scalar>)>& matvec,
    LanczosOptions options) {
  ALID_CHECK(n >= 1);
  ALID_CHECK(k >= 1 && k <= n);
  // Krylov subspace dimension.
  const int m = std::min<int>(std::max(3 * k, 30), n);

  Rng rng(options.seed);
  ThreadPool* pool = options.pool;

  // Lanczos basis vectors (rows of `basis` for cache friendliness).
  std::vector<std::vector<Scalar>> basis;
  basis.reserve(m);
  std::vector<Scalar> alpha, beta;  // tridiagonal coefficients

  std::vector<Scalar> q(n);
  for (auto& v : q) v = rng.Gaussian();
  {
    const Scalar norm = std::sqrt(ParallelDot(pool, q, q, kVectorGrain));
    ParallelChunks(pool, 0, n, kVectorGrain,
                   [&](int64_t, int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) q[i] /= norm;
                   });
  }

  for (int j = 0; j < m; ++j) {
    basis.push_back(q);
    std::vector<Scalar> w = matvec(q);
    ALID_CHECK(static_cast<Index>(w.size()) == n);
    const Scalar a = ParallelDot(pool, w, q, kVectorGrain);
    alpha.push_back(a);
    const Scalar b_prev = j > 0 ? beta.back() : 0.0;
    const std::vector<Scalar>* prev = j > 0 ? &basis[j - 1] : nullptr;
    ParallelChunks(pool, 0, n, kVectorGrain,
                   [&](int64_t, int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) {
                       w[i] -= a * q[i];
                       if (prev != nullptr) w[i] -= b_prev * (*prev)[i];
                     }
                   });
    // Full reorthogonalization against the whole basis (twice is enough).
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& b : basis) {
        const Scalar proj = ParallelDot(pool, w, b, kVectorGrain);
        ParallelChunks(pool, 0, n, kVectorGrain,
                       [&](int64_t, int64_t lo, int64_t hi) {
                         for (int64_t i = lo; i < hi; ++i) w[i] -= proj * b[i];
                       });
      }
    }
    const Scalar b = std::sqrt(ParallelDot(pool, w, w, kVectorGrain));
    if (b < kTolerance || j == m - 1) break;
    beta.push_back(b);
    ParallelChunks(pool, 0, n, kVectorGrain,
                   [&](int64_t, int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) q[i] = w[i] / b;
                   });
  }

  const int steps = static_cast<int>(alpha.size());
  // Diagonalize the tridiagonal Rayleigh quotient with the Jacobi solver.
  DenseMatrix t(steps, steps, 0.0);
  for (int i = 0; i < steps; ++i) {
    t(i, i) = alpha[i];
    if (i + 1 < steps) {
      t(i, i + 1) = beta[i];
      t(i + 1, i) = beta[i];
    }
  }
  EigenDecomposition tri = JacobiEigenSolver(t);

  const int kk = std::min(k, steps);
  EigenDecompositionTopK out;
  out.values.assign(tri.values.begin(), tri.values.begin() + kk);
  out.vectors = DenseMatrix(n, kk, 0.0);
  // Ritz vectors, one row range per chunk; each (i, j) element accumulates
  // over s in ascending order regardless of scheduling.
  ParallelChunks(pool, 0, n, kVectorGrain,
                 [&](int64_t, int64_t lo, int64_t hi) {
                   for (int64_t i = lo; i < hi; ++i) {
                     for (int j = 0; j < kk; ++j) {
                       Scalar acc = 0.0;
                       for (int s = 0; s < steps; ++s) {
                         acc += tri.vectors(s, j) * basis[s][i];
                       }
                       out.vectors(i, j) = acc;
                     }
                   }
                 });
  return out;
}

}  // namespace alid

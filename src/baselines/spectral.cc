#include "baselines/spectral.h"

#include <algorithm>
#include <cmath>

#include "affinity/affinity_matrix.h"
#include "common/check.h"
#include "common/matrix.h"
#include "common/parallel.h"
#include "common/random.h"
#include "baselines/kmeans.h"
#include "linalg/jacobi.h"
#include "linalg/lanczos.h"

namespace alid {

namespace {

// k-means restarts on the spectral embedding.
constexpr int kKMeansRestarts = 3;

// Row-normalizes an embedding and k-means it into `k` groups.
std::vector<int> ClusterEmbedding(DenseMatrix embedding, int k,
                                  const SpectralOptions& options) {
  const Index n = embedding.rows();
  const Index dim = embedding.cols();
  Dataset rows(static_cast<int>(dim));
  for (Index i = 0; i < n; ++i) {
    auto row = embedding.MutableRow(i);
    Scalar norm = 0.0;
    for (Scalar v : row) norm += v * v;
    norm = std::sqrt(norm);
    if (norm > 0.0) {
      for (Scalar& v : row) v /= norm;
    }
    rows.Append(row);
  }
  KMeansOptions km;
  km.seed = options.seed;
  km.restarts = kKMeansRestarts;
  km.pool = options.pool;
  return RunKMeans(rows, k, km).labels;
}

}  // namespace

SpectralResult SpectralClusterFull(const Dataset& data,
                                   const AffinityFunction& affinity,
                                   SpectralOptions options) {
  const Index n = data.size();
  const int k = options.num_clusters;
  ALID_CHECK(k >= 1 && k <= n);

  AffinityMatrix w(data, affinity, options.pool);
  std::vector<Scalar> inv_sqrt_deg(n, 0.0);
  ParallelChunks(options.pool, 0, n, /*grain=*/0,
                 [&](int64_t, int64_t lo, int64_t hi) {
                   for (int64_t i = lo; i < hi; ++i) {
                     Scalar deg = 0.0;
                     for (Scalar v : w.matrix().Row(static_cast<Index>(i))) {
                       deg += v;
                     }
                     inv_sqrt_deg[i] = deg > 0.0 ? 1.0 / std::sqrt(deg) : 0.0;
                   }
                 });

  // Top-K eigenvectors of D^{-1/2} W D^{-1/2} without forming it. Each output
  // row is one sequential dot, so the matvec — the O(n^2) cost center —
  // parallelizes over rows without perturbing a single bit. The element-wise
  // z scaling stays serial: one multiply per element is cheaper than a pool
  // dispatch.
  auto matvec = [&](std::span<const Scalar> x) {
    std::vector<Scalar> z(n), t(n);
    for (Index i = 0; i < n; ++i) z[i] = x[i] * inv_sqrt_deg[i];
    ParallelChunks(options.pool, 0, n, /*grain=*/0,
                   [&](int64_t, int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) {
                       auto row = w.matrix().Row(static_cast<Index>(i));
                       Scalar acc = 0.0;
                       for (Index j = 0; j < n; ++j) acc += row[j] * z[j];
                       t[i] = acc * inv_sqrt_deg[i];
                     }
                   });
    return t;
  };
  LanczosOptions lz;
  lz.seed = options.seed;
  lz.pool = options.pool;
  EigenDecompositionTopK eig = LanczosTopK(n, k, matvec, lz);

  SpectralResult out;
  out.labels = ClusterEmbedding(std::move(eig.vectors), k, options);
  return out;
}

SpectralResult SpectralClusterNystrom(const Dataset& data,
                                      const AffinityFunction& affinity,
                                      SpectralOptions options) {
  const Index n = data.size();
  const int k = options.num_clusters;
  const int m = std::min<Index>(options.nystrom_landmarks, n);
  ALID_CHECK(k >= 1 && k <= n);
  ALID_CHECK(m >= k);
  ThreadPool* pool = options.pool;
  constexpr int64_t grain = 0;  // the auto grain: about 64 chunks

  Rng rng(options.seed);
  IndexList landmarks = rng.SampleWithoutReplacement(n, m);
  std::vector<bool> is_landmark(n, false);
  for (Index l : landmarks) is_landmark[l] = true;
  IndexList rest;
  rest.reserve(n - m);
  for (Index i = 0; i < n; ++i) {
    if (!is_landmark[i]) rest.push_back(i);
  }
  const Index nr = static_cast<Index>(rest.size());

  // Landmark block A (with the true kernel diagonal e^0 = 1, so the Nystrom
  // extension stays positive semi-definite) and cross block B. Row i owns
  // its cells (and the mirrored (j, i) for A), so both fills parallelize
  // with one writer per cell.
  const double p = affinity.params().p;
  DenseMatrix a(m, m, 0.0);
  ParallelChunks(pool, 0, m, grain, [&](int64_t, int64_t lo, int64_t hi) {
    for (int64_t ii = lo; ii < hi; ++ii) {
      const int i = static_cast<int>(ii);
      a(i, i) = 1.0;
      for (int j = i + 1; j < m; ++j) {
        const Scalar v = affinity.FromDistance(
            data.Distance(landmarks[i], landmarks[j], p));
        a(i, j) = v;
        a(j, i) = v;
      }
    }
  });
  DenseMatrix b(m, nr, 0.0);
  ParallelChunks(pool, 0, m, grain, [&](int64_t, int64_t lo, int64_t hi) {
    for (int64_t ii = lo; ii < hi; ++ii) {
      const int i = static_cast<int>(ii);
      for (Index j = 0; j < nr; ++j) {
        b(i, j) =
            affinity.FromDistance(data.Distance(landmarks[i], rest[j], p));
      }
    }
  });

  // Approximate degrees: d = [A 1 + B 1 ; B^T 1 + B^T A^{-1} (B 1)].
  EigenDecomposition eig_a = JacobiEigenSolver(a);
  auto apply_a_power = [&](std::span<const Scalar> x, double power) {
    // y = V diag(lambda^power) V^T x, with pseudo-inversion of tiny modes.
    std::vector<Scalar> proj(m, 0.0);
    for (int j = 0; j < m; ++j) {
      Scalar s = 0.0;
      for (int i = 0; i < m; ++i) s += eig_a.vectors(i, j) * x[i];
      const Scalar lam = eig_a.values[j];
      proj[j] = lam > 1e-10 ? s * std::pow(lam, power) : 0.0;
    }
    std::vector<Scalar> y(m, 0.0);
    for (int j = 0; j < m; ++j) {
      for (int i = 0; i < m; ++i) y[i] += eig_a.vectors(i, j) * proj[j];
    }
    return y;
  };

  std::vector<Scalar> ones_r(nr, 1.0);
  std::vector<Scalar> b1 = b.MatVec(ones_r);              // B 1
  std::vector<Scalar> a1(m, 0.0);                          // A 1
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) a1[i] += a(i, j);
  }
  std::vector<Scalar> ainv_b1 = apply_a_power(b1, -1.0);   // A^{-1} B 1
  std::vector<Scalar> d(n, 0.0);
  for (int i = 0; i < m; ++i) d[landmarks[i]] = a1[i] + b1[i];
  ParallelChunks(pool, 0, nr, grain, [&](int64_t, int64_t lo, int64_t hi) {
    for (int64_t j = lo; j < hi; ++j) {
      Scalar s = 0.0;
      for (int i = 0; i < m; ++i) s += b(i, j) * (1.0 + ainv_b1[i]);
      d[rest[j]] = s;
    }
  });
  for (Index i = 0; i < n; ++i) d[i] = d[i] > 0.0 ? 1.0 / std::sqrt(d[i]) : 0.0;

  // Normalize blocks: A_ij /= sqrt(d_i d_j), B_ij likewise.
  ParallelChunks(pool, 0, m, grain, [&](int64_t, int64_t lo, int64_t hi) {
    for (int64_t ii = lo; ii < hi; ++ii) {
      const int i = static_cast<int>(ii);
      for (int j = 0; j < m; ++j) a(i, j) *= d[landmarks[i]] * d[landmarks[j]];
      for (Index j = 0; j < nr; ++j) b(i, j) *= d[landmarks[i]] * d[rest[j]];
    }
  });

  // One-shot orthogonalization: S = A + A^{-1/2} B B^T A^{-1/2}.
  eig_a = JacobiEigenSolver(a);  // re-decompose the normalized A
  DenseMatrix bbt(m, m, 0.0);
  ParallelChunks(pool, 0, m, grain, [&](int64_t, int64_t lo, int64_t hi) {
    for (int64_t ii = lo; ii < hi; ++ii) {
      const int i = static_cast<int>(ii);
      for (int j = i; j < m; ++j) {
        Scalar s = 0.0;
        for (Index t = 0; t < nr; ++t) s += b(i, t) * b(j, t);
        bbt(i, j) = s;
        bbt(j, i) = s;
      }
    }
  });
  // A^{-1/2} as a dense matrix.
  DenseMatrix a_inv_half(m, m, 0.0);
  for (int c = 0; c < m; ++c) {
    std::vector<Scalar> e(m, 0.0);
    e[c] = 1.0;
    std::vector<Scalar> col = apply_a_power(e, -0.5);
    for (int r = 0; r < m; ++r) a_inv_half(r, c) = col[r];
  }
  auto matmul = [&](const DenseMatrix& x, const DenseMatrix& y) {
    DenseMatrix z(x.rows(), y.cols(), 0.0);
    for (Index r = 0; r < x.rows(); ++r) {
      for (Index t = 0; t < x.cols(); ++t) {
        const Scalar v = x(r, t);
        if (v == 0.0) continue;
        for (Index c = 0; c < y.cols(); ++c) z(r, c) += v * y(t, c);
      }
    }
    return z;
  };
  DenseMatrix s = matmul(matmul(a_inv_half, bbt), a_inv_half);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) s(i, j) += a(i, j);
  }
  for (int i = 0; i < m; ++i) {       // symmetrize FP residue
    for (int j = i + 1; j < m; ++j) {
      const Scalar v = 0.5 * (s(i, j) + s(j, i));
      s(i, j) = v;
      s(j, i) = v;
    }
  }
  EigenDecomposition eig_s = JacobiEigenSolver(s);

  // V = [A; B^T] A^{-1/2} U Sigma^{-1/2}, top-k columns.
  DenseMatrix u_k(m, k, 0.0);
  for (int j = 0; j < k; ++j) {
    const Scalar lam = eig_s.values[j];
    const Scalar scale = lam > 1e-10 ? 1.0 / std::sqrt(lam) : 0.0;
    for (int i = 0; i < m; ++i) u_k(i, j) = eig_s.vectors(i, j) * scale;
  }
  DenseMatrix proj = matmul(a_inv_half, u_k);  // m x k
  DenseMatrix embedding(n, k, 0.0);
  // Landmark rows: A * proj ; rest rows: B^T * proj.
  DenseMatrix top = matmul(a, proj);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < k; ++j) embedding(landmarks[i], j) = top(i, j);
  }
  ParallelChunks(pool, 0, nr, grain, [&](int64_t, int64_t lo, int64_t hi) {
    for (int64_t t = lo; t < hi; ++t) {
      for (int j = 0; j < k; ++j) {
        Scalar v = 0.0;
        for (int i = 0; i < m; ++i) v += b(i, t) * proj(i, j);
        embedding(rest[t], j) = v;
      }
    }
  });

  SpectralResult out;
  out.labels = ClusterEmbedding(std::move(embedding), k, options);
  return out;
}

}  // namespace alid

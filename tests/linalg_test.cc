// Tests of the eigensolvers: Jacobi against hand-computed spectra, Lanczos
// against Jacobi on random symmetric matrices.
#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"
#include "linalg/jacobi.h"
#include "linalg/lanczos.h"

namespace alid {
namespace {

DenseMatrix RandomSymmetric(Index n, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(n, n, 0.0);
  for (Index i = 0; i < n; ++i) {
    for (Index j = i; j < n; ++j) {
      const Scalar v = rng.Gaussian();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

TEST(JacobiTest, DiagonalMatrix) {
  DenseMatrix m(3, 3, 0.0);
  m(0, 0) = 3.0;
  m(1, 1) = 1.0;
  m(2, 2) = 2.0;
  auto eig = JacobiEigenSolver(m);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.values[2], 1.0, 1e-12);
}

TEST(JacobiTest, TwoByTwoKnownSpectrum) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  DenseMatrix m(2, 2, 0.0);
  m(0, 0) = 2.0;
  m(0, 1) = 1.0;
  m(1, 0) = 1.0;
  m(1, 1) = 2.0;
  auto eig = JacobiEigenSolver(m);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-12);
  // Leading eigenvector is (1,1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(eig.vectors(0, 0)), std::sqrt(0.5), 1e-9);
}

TEST(JacobiTest, ReconstructsMatrix) {
  DenseMatrix m = RandomSymmetric(8, 3);
  auto eig = JacobiEigenSolver(m);
  // A == V diag(w) V^T.
  for (Index i = 0; i < 8; ++i) {
    for (Index j = 0; j < 8; ++j) {
      Scalar s = 0.0;
      for (Index t = 0; t < 8; ++t) {
        s += eig.vectors(i, t) * eig.values[t] * eig.vectors(j, t);
      }
      EXPECT_NEAR(s, m(i, j), 1e-8);
    }
  }
}

TEST(JacobiTest, EigenvectorsOrthonormal) {
  DenseMatrix m = RandomSymmetric(10, 4);
  auto eig = JacobiEigenSolver(m);
  for (Index a = 0; a < 10; ++a) {
    for (Index b = a; b < 10; ++b) {
      Scalar dot = 0.0;
      for (Index i = 0; i < 10; ++i) {
        dot += eig.vectors(i, a) * eig.vectors(i, b);
      }
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(LanczosTest, MatchesJacobiOnTopEigenpairs) {
  const Index n = 30;
  DenseMatrix m = RandomSymmetric(n, 7);
  auto full = JacobiEigenSolver(m);
  auto matvec = [&](std::span<const Scalar> x) { return m.MatVec(x); };
  auto top = LanczosTopK(n, 4, matvec);
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(top.values[j], full.values[j], 1e-6) << "eigenvalue " << j;
  }
}

TEST(LanczosTest, EigenvectorsSatisfyDefinition) {
  const Index n = 25;
  DenseMatrix m = RandomSymmetric(n, 11);
  auto matvec = [&](std::span<const Scalar> x) { return m.MatVec(x); };
  auto top = LanczosTopK(n, 3, matvec);
  for (int j = 0; j < 3; ++j) {
    std::vector<Scalar> v(n);
    for (Index i = 0; i < n; ++i) v[i] = top.vectors(i, j);
    auto av = m.MatVec(v);
    for (Index i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], top.values[j] * v[i], 1e-5);
    }
  }
}

TEST(LanczosTest, HandlesKEqualsN) {
  const Index n = 6;
  DenseMatrix m = RandomSymmetric(n, 2);
  auto full = JacobiEigenSolver(m);
  auto matvec = [&](std::span<const Scalar> x) { return m.MatVec(x); };
  auto top = LanczosTopK(n, n, matvec);
  ASSERT_EQ(top.values.size(), static_cast<size_t>(n));
  for (Index j = 0; j < n; ++j) {
    EXPECT_NEAR(top.values[j], full.values[j], 1e-7);
  }
}

// Property sweep: Lanczos leading eigenvalue matches Jacobi across sizes.
class LanczosSizeProperty : public ::testing::TestWithParam<int> {};

TEST_P(LanczosSizeProperty, LeadingEigenvalueMatches) {
  const Index n = GetParam();
  DenseMatrix m = RandomSymmetric(n, 100 + n);
  auto full = JacobiEigenSolver(m);
  auto matvec = [&](std::span<const Scalar> x) { return m.MatVec(x); };
  auto top = LanczosTopK(n, 1, matvec);
  EXPECT_NEAR(top.values[0], full.values[0], 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LanczosSizeProperty,
                         ::testing::Values(5, 12, 20, 40, 64));

}  // namespace
}  // namespace alid

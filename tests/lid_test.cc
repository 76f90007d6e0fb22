// Correctness tests of LID (Algorithm 1): simplex invariants, density
// monotonicity (Theorem 2), KKT/immunity conditions at convergence
// (Theorem 1), incremental (A x) maintenance (Eq. 14), and the Eq. 17 range
// update — all validated against brute-force computations on materialized
// matrices.
#include <cmath>

#include <gtest/gtest.h>

#include "affinity/affinity_function.h"
#include "affinity/lazy_affinity_oracle.h"
#include "common/random.h"
#include "core/lid.h"
#include "core/simplex.h"
#include "data/synthetic.h"

namespace alid {
namespace {

// A small scattered dataset with one clear dense pack around the origin.
Dataset PackAndOutliers(uint64_t seed = 3, int pack = 6, int outliers = 5) {
  Rng rng(seed);
  Dataset d(2);
  for (int i = 0; i < pack; ++i) {
    d.Append(std::vector<Scalar>{rng.Gaussian(0.0, 0.05),
                                 rng.Gaussian(0.0, 0.05)});
  }
  for (int i = 0; i < outliers; ++i) {
    d.Append(std::vector<Scalar>{rng.Uniform(3.0, 8.0),
                                 rng.Uniform(3.0, 8.0)});
  }
  return d;
}

// Brute-force pi(s_j, x) over the support of a Lid instance.
Scalar BruteAverageAffinity(const Dataset& data, const AffinityFunction& f,
                            const std::vector<std::pair<Index, Scalar>>& sup,
                            Index j) {
  Scalar s = 0.0;
  for (const auto& [g, w] : sup) s += w * f(data, g, j);
  return s;
}

Scalar BruteDensity(const Dataset& data, const AffinityFunction& f,
                    const std::vector<std::pair<Index, Scalar>>& sup) {
  Scalar s = 0.0;
  for (const auto& [gi, wi] : sup) {
    for (const auto& [gj, wj] : sup) s += wi * wj * f(data, gi, gj);
  }
  return s;
}

class LidFixture : public ::testing::Test {
 protected:
  LidFixture()
      : data_(PackAndOutliers()),
        affinity_({.k = 1.0, .p = 2.0}),
        oracle_(data_, affinity_) {}

  // Puts every vertex into the seed's local range so LID solves the global
  // StQP directly.
  Lid MakeGlobalLid(Index seed) {
    Lid lid(oracle_, seed, {});
    IndexList all;
    for (Index i = 0; i < data_.size(); ++i) {
      if (i != seed) all.push_back(i);
    }
    lid.UpdateRange(all);
    return lid;
  }

  Dataset data_;
  AffinityFunction affinity_;
  LazyAffinityOracle oracle_;
};

TEST_F(LidFixture, StartsAsSeedSingleton) {
  Lid lid(oracle_, 2, {});
  EXPECT_EQ(lid.beta(), IndexList{2});
  EXPECT_DOUBLE_EQ(lid.Density(), 0.0);
  EXPECT_DOUBLE_EQ(lid.WeightOf(2), 1.0);
}

TEST_F(LidFixture, RunConvergesAndStaysOnSimplex) {
  Lid lid = MakeGlobalLid(0);
  lid.Run();
  EXPECT_TRUE(lid.converged());
  Scalar sum = 0.0;
  for (const auto& [g, w] : lid.SupportWeights()) {
    EXPECT_GE(w, 0.0);
    sum += w;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(LidFixture, ConvergedSubgraphIsImmune) {
  Lid lid = MakeGlobalLid(0);
  lid.Run();
  const Scalar pi = lid.Density();
  const auto sup = lid.SupportWeights();
  // Theorem 1: at a dense subgraph, pi(s_j, x) <= pi(x) for all j, with
  // equality on the support.
  for (Index j = 0; j < data_.size(); ++j) {
    const Scalar aff = BruteAverageAffinity(data_, affinity_, sup, j);
    EXPECT_LE(aff, pi + 1e-7) << "vertex " << j << " still infective";
  }
  for (const auto& [g, w] : sup) {
    const Scalar aff = BruteAverageAffinity(data_, affinity_, sup, g);
    EXPECT_NEAR(aff, pi, 1e-7) << "support vertex " << g;
  }
}

TEST_F(LidFixture, DensityMatchesBruteForce) {
  Lid lid = MakeGlobalLid(1);
  lid.Run();
  EXPECT_NEAR(lid.Density(),
              BruteDensity(data_, affinity_, lid.SupportWeights()), 1e-9);
}

TEST_F(LidFixture, DensityIsMonotoneAcrossInvasions) {
  LidOptions opts;
  opts.max_iterations = 1;  // single invasion per Run()
  Lid lid(oracle_, 0, opts);
  IndexList all;
  for (Index i = 1; i < data_.size(); ++i) all.push_back(i);
  lid.UpdateRange(all);
  Scalar prev = lid.Density();
  for (int step = 0; step < 200 && !lid.converged(); ++step) {
    lid.Run();
    const Scalar now = lid.Density();
    EXPECT_GE(now, prev - 1e-12) << "Theorem 2 violated at step " << step;
    prev = now;
  }
}

TEST_F(LidFixture, FindsThePackNotTheOutliers) {
  Lid lid = MakeGlobalLid(0);  // seed inside the pack
  lid.Run();
  IndexList support = lid.Support();
  // The dense pack is items 0..5; outliers are 6..10.
  for (Index g : support) EXPECT_LT(g, 6) << "outlier in dominant cluster";
  EXPECT_GE(support.size(), 3u);
}

TEST_F(LidFixture, AverageAffinityToMatchesBruteForce) {
  Lid lid = MakeGlobalLid(0);
  lid.Run();
  const auto sup = lid.SupportWeights();
  for (Index j = 0; j < data_.size(); ++j) {
    EXPECT_NEAR(lid.AverageAffinityTo(j),
                BruteAverageAffinity(data_, affinity_, sup, j), 1e-9);
  }
}

TEST_F(LidFixture, UpdateRangeKeepsDensityAndWeights) {
  Lid lid(oracle_, 0, {});
  lid.UpdateRange({1, 2, 3});
  lid.Run();
  const Scalar before = lid.Density();
  const auto sup_before = lid.SupportWeights();
  lid.UpdateRange({4, 5, 6, 7});
  // x is unchanged by the range update (Eq. 17 only extends the rows).
  EXPECT_NEAR(lid.Density(), before, 1e-9);
  EXPECT_EQ(lid.SupportWeights(), sup_before);
}

TEST_F(LidFixture, UpdateRangeDropsNonSupportMembers) {
  Lid lid(oracle_, 0, {});
  lid.UpdateRange({1, 2, 3, 6, 7});  // includes outliers
  lid.Run();
  // Outliers get zero weight; after the next update they leave beta.
  lid.UpdateRange({4});
  for (Index g : lid.beta()) {
    EXPECT_TRUE(g <= 5 || lid.WeightOf(g) > 0.0 || g == 4)
        << "non-support vertex " << g << " kept in beta";
  }
}

TEST_F(LidFixture, RangeUpdateThenRunImprovesDensity) {
  Lid lid(oracle_, 0, {});
  lid.UpdateRange({1, 2});
  lid.Run();
  const Scalar small_pi = lid.Density();
  lid.UpdateRange({3, 4, 5});
  lid.Run();
  EXPECT_GE(lid.Density(), small_pi - 1e-12);
}

TEST_F(LidFixture, ColumnsOnlyComputedForInvadedVertices) {
  oracle_.ResetCounters();
  Lid lid = MakeGlobalLid(0);
  lid.Run();
  // Far fewer kernel evaluations than the full n^2 matrix.
  const int64_t n = data_.size();
  EXPECT_LT(oracle_.entries_computed(), n * n);
}

// A warm start with m members and e extras fills the m member columns over
// beta once: m(m-1)/2 member pairs (each copied into its mirror entry) plus
// m*e member-extra pairs, and never the diagonal.
TEST_F(LidFixture, WarmStartEvaluatesEachPairOnce) {
  const IndexList members{0, 1, 2, 3};
  const IndexList extra{4, 6, 7};
  oracle_.ResetCounters();
  Lid lid(oracle_, members, {0.4, 0.3, 0.2, 0.1}, extra);
  const int64_t m = 4, e = 3;
  EXPECT_EQ(oracle_.entries_computed(), m * (m - 1) / 2 + m * e);
  lid.Run();
  // The whole detection touches at most every unordered pair of beta once.
  EXPECT_LE(oracle_.entries_computed(), (m + e) * (m + e - 1) / 2);
  EXPECT_EQ(oracle_.entries_computed(), 20);
}

// A cold detection's exact kernel-evaluation count: the seed's column (no
// diagonal), the invaded columns' rows not yet held by a mirror, the
// screening rows of the remaining candidates, and an UpdateRange that takes
// those rows instead of evaluating them again. Pinned, so a regression to
// per-column recomputation fails here and not only in a bench.
TEST_F(LidFixture, ColdDetectionEvaluatesEachPairOnce) {
  oracle_.ResetCounters();
  Lid lid(oracle_, 0, {});
  lid.UpdateRange({1, 2, 3});
  EXPECT_EQ(oracle_.entries_computed(), 3);  // a_{1..3, 0}; a_00 is 0
  lid.Run();
  const int64_t after_run = oracle_.entries_computed();
  EXPECT_EQ(after_run, 6);
  const int64_t alpha = static_cast<int64_t>(lid.Support().size());
  const IndexList rest{4, 5, 6, 7, 8, 9, 10};
  const IndexList kept = lid.Screen(rest, lid.Density() + 1e-10);
  EXPECT_EQ(oracle_.entries_computed(),
            after_run + alpha * static_cast<int64_t>(rest.size()));
  const int64_t after_screen = oracle_.entries_computed();
  lid.UpdateRange(kept);
  EXPECT_EQ(oracle_.entries_computed(), after_screen);
  lid.Run();
  const int64_t n = data_.size();
  EXPECT_LE(oracle_.entries_computed(), n * (n - 1) / 2);
  EXPECT_EQ(oracle_.entries_computed(), 35);
}

// Screening reuses nothing it cannot: a kept row becomes the candidate's
// psi row, and AverageAffinityTo never sends the diagonal to the oracle.
TEST_F(LidFixture, ScreenMatchesAverageAffinityTo) {
  Lid lid(oracle_, 0, {});
  lid.UpdateRange({1, 2, 3});
  lid.Run();
  const Scalar threshold = lid.Density() + 1e-10;
  IndexList expected;
  for (Index j = 4; j < data_.size(); ++j) {
    if (lid.AverageAffinityTo(j) > threshold) expected.push_back(j);
  }
  IndexList rest{4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(lid.Screen(rest, threshold), expected);
  const IndexList support = lid.Support();
  oracle_.ResetCounters();
  lid.AverageAffinityTo(support.front());
  EXPECT_EQ(oracle_.entries_computed(),
            static_cast<int64_t>(support.size()) - 1);
}

TEST_F(LidFixture, MemoryChargeReleasedOnDestruction) {
  oracle_.ResetCounters();
  {
    Lid lid = MakeGlobalLid(0);
    lid.Run();
    EXPECT_GT(oracle_.current_bytes(), 0);
  }
  EXPECT_EQ(oracle_.current_bytes(), 0);
}

TEST_F(LidFixture, WarmStartFromConvergedSupportIsAFixedPoint) {
  Lid cold = MakeGlobalLid(0);
  cold.Run();
  ASSERT_TRUE(cold.converged());
  IndexList members;
  std::vector<Scalar> weights;
  for (const auto& [g, w] : cold.SupportWeights()) {
    members.push_back(g);
    weights.push_back(w);
  }
  Lid warm(oracle_, members, weights, {}, {});
  EXPECT_EQ(warm.beta(), members);
  EXPECT_NEAR(warm.Density(), cold.Density(), 1e-12);
  // x* is immune against its own support (Theorem 1): nothing to invade.
  EXPECT_EQ(warm.Run(), 0);
  EXPECT_TRUE(warm.converged());
  EXPECT_NEAR(warm.Density(), cold.Density(), 1e-12);
  EXPECT_EQ(warm.Support(), cold.Support());
}

TEST_F(LidFixture, WarmStartResumesWithExtrasAtZeroWeight) {
  Lid cold(oracle_, 0, {});
  cold.UpdateRange({1, 2});
  cold.Run();
  const Scalar before = cold.Density();
  IndexList members;
  std::vector<Scalar> weights;
  for (const auto& [g, w] : cold.SupportWeights()) {
    members.push_back(g);
    weights.push_back(2.0 * w);  // unnormalized: the constructor rescales
  }
  const IndexList extra{3, 4, 5, 6};
  Lid warm(oracle_, members, weights, extra, {});
  for (Index g : extra) EXPECT_EQ(warm.WeightOf(g), 0.0);
  EXPECT_NEAR(warm.Density(), before, 1e-12);
  warm.Run();
  EXPECT_TRUE(warm.converged());
  // The warm state is the cold run's Eq. 17 update over the same extras, so
  // both resume to the same subgraph.
  cold.UpdateRange(extra);
  cold.Run();
  EXPECT_EQ(warm.Support(), cold.Support());
  EXPECT_NEAR(warm.Density(), cold.Density(), 1e-12);
  EXPECT_GE(warm.Density(), before - 1e-12);
  EXPECT_NEAR(warm.Density(),
              BruteDensity(data_, affinity_, warm.SupportWeights()), 1e-9);
  for (Index g : warm.Support()) EXPECT_LT(g, 6) << "outlier invaded";
}

// Property sweep: for every seed, the converged local dense subgraph is
// immune against the whole range (Theorem 1) and lives on the simplex.
class LidSeedProperty : public ::testing::TestWithParam<int> {};

TEST_P(LidSeedProperty, ConvergenceInvariantsHoldFromAnySeed) {
  Dataset data = PackAndOutliers(77, 7, 6);
  AffinityFunction affinity({.k = 1.0, .p = 2.0});
  LazyAffinityOracle oracle(data, affinity);
  const Index seed = GetParam() % data.size();
  Lid lid(oracle, seed, {});
  IndexList all;
  for (Index i = 0; i < data.size(); ++i) {
    if (i != seed) all.push_back(i);
  }
  lid.UpdateRange(all);
  lid.Run();
  ASSERT_TRUE(lid.converged());
  const Scalar pi = lid.Density();
  const auto sup = lid.SupportWeights();
  Scalar sum = 0.0;
  for (const auto& [g, w] : sup) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (Index j = 0; j < data.size(); ++j) {
    EXPECT_LE(BruteAverageAffinity(data, affinity, sup, j), pi + 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSeeds, LidSeedProperty, ::testing::Range(0, 13));

// Property sweep over kernel scales: invariants hold as the affinity
// landscape sharpens.
class LidScaleProperty : public ::testing::TestWithParam<double> {};

TEST_P(LidScaleProperty, ImmunityHoldsAcrossKernelScales) {
  Dataset data = PackAndOutliers(5, 8, 4);
  AffinityFunction affinity({.k = GetParam(), .p = 2.0});
  LazyAffinityOracle oracle(data, affinity);
  Lid lid(oracle, 0, {});
  IndexList all;
  for (Index i = 1; i < data.size(); ++i) all.push_back(i);
  lid.UpdateRange(all);
  lid.Run();
  const Scalar pi = lid.Density();
  for (Index j = 0; j < data.size(); ++j) {
    EXPECT_LE(lid.AverageAffinityTo(j), pi + 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(KernelScales, LidScaleProperty,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 5.0));

}  // namespace
}  // namespace alid

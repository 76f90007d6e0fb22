// Correctness tests of LID (Algorithm 1): simplex invariants, density
// monotonicity (Theorem 2), KKT/immunity conditions at convergence
// (Theorem 1), incremental (A x) maintenance (Eq. 14), and the Eq. 17 range
// update — all validated against brute-force computations on materialized
// matrices — and the folded Eq. 6 selection against the full scan.
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "affinity/affinity_function.h"
#include "affinity/lazy_affinity_oracle.h"
#include "common/random.h"
#include "core/lid.h"
#include "core/simplex.h"
#include "data/synthetic.h"
#include "obs/metrics.h"

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
  Lid MakeGlobalLid(Index seed, LidOptions options = {}) {
    Lid lid(oracle_, seed, options);
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

int64_t GlobalCounter(const std::string& name) {
  for (const obs::MetricSample& s : obs::MetricsRegistry::Global().Snapshot()) {
    if (s.name == name) return s.value;
  }
  return 0;
}

// The registry's LID totals move by exactly one Run()'s work: its return
// value, that many passes over beta, and at least the one full scan of the
// cold first iteration (pi = 0 fails the Sterbenz guard). Only a run that
// stops at max_iterations unconverged counts in `lid_capped_runs`.
TEST_F(LidFixture, RunAddsItsWorkToTheGlobalRegistry) {
  Lid lid = MakeGlobalLid(0);
  const int64_t iterations = GlobalCounter("lid_iterations");
  const int64_t entries = GlobalCounter("lid_iteration_entries");
  const int64_t scans = GlobalCounter("lid_select_scans");
  const int64_t capped = GlobalCounter("lid_capped_runs");
  const int iters = lid.Run();
  ASSERT_GT(iters, 0);
  ASSERT_TRUE(lid.converged());
  EXPECT_EQ(GlobalCounter("lid_iterations") - iterations, iters);
  EXPECT_EQ(GlobalCounter("lid_iteration_entries") - entries,
            static_cast<int64_t>(iters) *
                static_cast<int64_t>(lid.beta().size()));
  EXPECT_GE(GlobalCounter("lid_select_scans") - scans, 1);
  EXPECT_EQ(GlobalCounter("lid_capped_runs"), capped);

  Lid one_step = MakeGlobalLid(0, {.max_iterations = 1});
  EXPECT_EQ(one_step.Run(), 1);
  ASSERT_FALSE(one_step.converged());
  EXPECT_EQ(GlobalCounter("lid_capped_runs") - capped, 1);
}

// The three-pass loop's Eq. 6 scan, kept verbatim as the reference the
// folded selection must equal: the first index with the largest |r| over
// the infective vertices and the weak support vertices.
int ReferenceSelect(const std::vector<Scalar>& ax, const std::vector<Scalar>& x,
                    Scalar pi) {
  int best = -1;
  Scalar best_abs = kLidTolerance;
  for (int i = 0; i < static_cast<int>(ax.size()); ++i) {
    const Scalar r = ax[i] - pi;
    if (r > 0.0 || (r < 0.0 && x[i] > 0.0)) {
      const Scalar a = std::abs(r);
      if (a > best_abs) {
        best_abs = a;
        best = i;
      }
    }
  }
  return best;
}

struct Folded {
  int pick;
  bool scanned;
};

Folded FoldedSelect(const std::vector<Scalar>& ax,
                    const std::vector<Scalar>& x, Scalar pi) {
  bool scanned = false;
  const int pick = LidSelect(ax, x, pi, LidFindExtremes(ax, x), &scanned);
  return {pick, scanned};
}

constexpr Scalar kUlp1 = std::numeric_limits<Scalar>::epsilon();  // 2^-52

TEST(LidSelectTest, EqualMagnitudeAcrossSetsPicksTheFirstIndex) {
  // |r| = 0.5 for the infective vertex 0 and the weak support vertex 2.
  const std::vector<Scalar> ax_hi_first{1.5, 1.0, 0.5};
  const std::vector<Scalar> x_hi_first{0.0, 0.5, 0.5};
  Folded f = FoldedSelect(ax_hi_first, x_hi_first, 1.0);
  EXPECT_EQ(ReferenceSelect(ax_hi_first, x_hi_first, 1.0), 0);
  EXPECT_EQ(f.pick, 0);
  EXPECT_FALSE(f.scanned);

  const std::vector<Scalar> ax_lo_first{0.5, 1.0, 1.5};
  const std::vector<Scalar> x_lo_first{0.5, 0.5, 0.0};
  f = FoldedSelect(ax_lo_first, x_lo_first, 1.0);
  EXPECT_EQ(ReferenceSelect(ax_lo_first, x_lo_first, 1.0), 0);
  EXPECT_EQ(f.pick, 0);
  EXPECT_FALSE(f.scanned);
}

// Two distinct (A x)_i above 2 pi whose r_i round to one value: the scan
// keeps the first, the argmax is the second, so only the full scan is
// right.
TEST(LidSelectTest, RoundingTieAboveTwicePiFallsBackToTheScan) {
  const Scalar pi = 1.5 * kUlp1;
  const std::vector<Scalar> ax{1.0 + 3.0 * kUlp1, 1.0 + 4.0 * kUlp1, pi};
  const std::vector<Scalar> x{0.0, 0.0, 1.0};
  ASSERT_NE(ax[0], ax[1]);
  ASSERT_EQ(ax[0] - pi, ax[1] - pi);
  EXPECT_EQ(LidFindExtremes(ax, x).hi, 1);
  EXPECT_EQ(ReferenceSelect(ax, x, pi), 0);
  const Folded f = FoldedSelect(ax, x, pi);
  EXPECT_EQ(f.pick, 0);
  EXPECT_TRUE(f.scanned);
}

// The same on the weak side: two support values below pi/2 whose
// pi - (A x)_i round to one value.
TEST(LidSelectTest, RoundingTieBelowHalfPiFallsBackToTheScan) {
  const Scalar pi = 1.0 + 4.0 * kUlp1;
  const std::vector<Scalar> ax{2.5 * kUlp1, 1.5 * kUlp1, pi};
  const std::vector<Scalar> x{0.3, 0.3, 0.4};
  ASSERT_NE(ax[0], ax[1]);
  ASSERT_EQ(pi - ax[0], pi - ax[1]);
  EXPECT_EQ(LidFindExtremes(ax, x).lo, 1);
  EXPECT_EQ(ReferenceSelect(ax, x, pi), 0);
  const Folded f = FoldedSelect(ax, x, pi);
  EXPECT_EQ(f.pick, 0);
  EXPECT_TRUE(f.scanned);
}

// The first iteration after a cold UpdateRange: x is the seed alone, so
// pi = 0 and every affinity to the seed is infective.
TEST(LidSelectTest, ZeroDensityFallsBackToTheScan) {
  const std::vector<Scalar> ax{0.0, 0.3, 0.7, 0.7};
  const std::vector<Scalar> x{1.0, 0.0, 0.0, 0.0};
  const Folded f = FoldedSelect(ax, x, 0.0);
  EXPECT_EQ(ReferenceSelect(ax, x, 0.0), 2);
  EXPECT_EQ(f.pick, 2);
  EXPECT_TRUE(f.scanned);
}

// pi = +inf makes every finite support r_i = -inf, all tied: the scan
// keeps the first, the argmin is the second.
TEST(LidSelectTest, InfiniteDensityFallsBackToTheScan) {
  const Scalar top = std::numeric_limits<Scalar>::max();
  const Scalar pi = std::numeric_limits<Scalar>::infinity();
  const std::vector<Scalar> ax{top, 0.75 * top};
  const std::vector<Scalar> x{0.5, 0.5};
  EXPECT_EQ(LidFindExtremes(ax, x).lo, 1);
  EXPECT_EQ(ReferenceSelect(ax, x, pi), 0);
  const Folded f = FoldedSelect(ax, x, pi);
  EXPECT_EQ(f.pick, 0);
  EXPECT_TRUE(f.scanned);
}

TEST(LidSelectTest, AllZeroProductsSelectNothing) {
  const std::vector<Scalar> ax(4, 0.0);
  const std::vector<Scalar> x{0.25, 0.25, 0.5, 0.0};
  const Folded f = FoldedSelect(ax, x, 0.0);
  EXPECT_EQ(ReferenceSelect(ax, x, 0.0), -1);
  EXPECT_EQ(f.pick, -1);
}

// |r| must exceed kLidTolerance strictly, on both sides.
TEST(LidSelectTest, CandidateExactlyAtTheToleranceIsNotSelected) {
  const Scalar tol = kLidTolerance;
  const std::vector<Scalar> ax_up{tol, 2.0 * tol};
  const std::vector<Scalar> x_up{1.0, 0.0};
  ASSERT_EQ(ax_up[1] - tol, tol);
  EXPECT_EQ(ReferenceSelect(ax_up, x_up, tol), -1);
  Folded f = FoldedSelect(ax_up, x_up, tol);
  EXPECT_EQ(f.pick, -1);
  EXPECT_FALSE(f.scanned);

  const std::vector<Scalar> ax_down{tol, 2.0 * tol, 3.0 * tol};
  const std::vector<Scalar> x_down{0.5, 0.5, 0.0};
  ASSERT_EQ(2.0 * tol - ax_down[0], tol);
  EXPECT_EQ(ReferenceSelect(ax_down, x_down, 2.0 * tol), -1);
  f = FoldedSelect(ax_down, x_down, 2.0 * tol);
  EXPECT_EQ(f.pick, -1);
  EXPECT_FALSE(f.scanned);

  const std::vector<Scalar> ax_over{tol, std::nextafter(2.0 * tol, 1.0)};
  EXPECT_EQ(ReferenceSelect(ax_over, x_up, tol), 1);
  EXPECT_EQ(FoldedSelect(ax_over, x_up, tol).pick, 1);
}

// Random (A x, x, pi) built to tie: values a few ulps around multiples of
// pi, half the vectors inside the guard and half across it, repeated
// values, zero weights, and now and then 0, an infinity or a NaN. The folded rule equals the scan on every
// vector, both of its paths run, and the cases it covers include ones
// where picking the extremes without the guard would be wrong.
TEST(LidSelectTest, FoldedSelectionEqualsTheScanOnRandomVectors) {
  Rng rng(20260);
  const Scalar kInf = std::numeric_limits<Scalar>::infinity();
  const Scalar kNaN = std::numeric_limits<Scalar>::quiet_NaN();
  // The first six multiples lie inside the guard's [pi/2, 2 pi].
  const Scalar kMultiples[] = {0.5, 0.75, 1.0, 1.25, 1.5,
                               2.0, 0.0,  0.25, 3.0, 1e6};
  constexpr int kCases = 200000;
  int scanned = 0;
  int guard_needed = 0;
  std::vector<Scalar> ax;
  std::vector<Scalar> x;
  for (int c = 0; c < kCases; ++c) {
    Scalar pi;
    switch (rng.UniformInt(0, 5)) {
      case 0: pi = 0.0; break;
      case 1: pi = 1.5 * kUlp1 * rng.UniformInt(1, 8); break;
      case 2: pi = 1.0 + kUlp1 * rng.UniformInt(0, 8); break;
      default: pi = std::ldexp(rng.Uniform(0.5, 1.0), rng.UniformInt(-40, 4));
    }
    const bool inside = rng.UniformInt(0, 1) == 0;
    const int b = rng.UniformInt(1, 9);
    ax.assign(b, 0.0);
    x.assign(b, 0.0);
    for (int i = 0; i < b; ++i) {
      x[i] = rng.UniformInt(0, 2) == 0 ? 0.0 : rng.Uniform(0.1, 1.0);
      const int kind = rng.UniformInt(0, 99);
      if (kind < 10 && i > 0) {
        ax[i] = ax[rng.UniformInt(0, i - 1)];  // an exact repeat
        continue;
      }
      if (inside) {
        ax[i] = pi * kMultiples[rng.UniformInt(0, 5)];
      } else if (kind < 15) {
        ax[i] = std::ldexp(1.0, rng.UniformInt(-3, 1)) +
                kUlp1 * rng.UniformInt(0, 6);  // ulps above a power of two
      } else if (kind < 17) {
        ax[i] = kUlp1 * 0.5 * rng.UniformInt(0, 8);
      } else if (kind == 17) {
        ax[i] = rng.UniformInt(0, 1) == 0 ? kInf : kNaN;
      } else {
        ax[i] = pi * kMultiples[rng.UniformInt(0, 9)];
      }
      for (int step = rng.UniformInt(-3, 3); step != 0;
           step += step > 0 ? -1 : 1) {
        ax[i] = std::nextafter(ax[i], step > 0 ? kInf : -kInf);
      }
    }
    if (rng.UniformInt(0, 199) == 0) pi = rng.UniformInt(0, 1) ? kInf : kNaN;

    const int expected = ReferenceSelect(ax, x, pi);
    const LidExtremes e = LidFindExtremes(ax, x);
    bool used_scan = false;
    const int pick = LidSelect(ax, x, pi, e, &used_scan);
    ASSERT_EQ(pick, expected) << "case " << c << " pi " << pi;
    scanned += used_scan;
    // The extremes' own index where the scan picks elsewhere: a case only
    // the guard keeps right.
    if (expected >= 0 && expected != e.hi && expected != e.lo) ++guard_needed;
  }
  EXPECT_GT(scanned, kCases / 10);
  EXPECT_LT(scanned, kCases * 9 / 10);
  EXPECT_GT(guard_needed, 100);
}

}  // namespace
}  // namespace alid

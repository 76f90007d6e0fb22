// Unit tests for the affinity substrate: the Eq. 1 kernel, the materialized
// matrix, the lazy column oracle and the sparsifiers.
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "affinity/affinity_function.h"
#include "affinity/affinity_matrix.h"
#include "affinity/lazy_affinity_oracle.h"
#include "affinity/sparsifier.h"
#include "common/memory_tracker.h"
#include "common/random.h"
#include "data/synthetic.h"
#include "lsh/lsh_index.h"

namespace alid {
namespace {

Dataset SmallLine() {
  // Four points on a line: 0, 1, 2, 10.
  return Dataset(1, {0.0, 1.0, 2.0, 10.0});
}

TEST(AffinityFunctionTest, LaplacianKernelValues) {
  AffinityFunction f({.k = 1.0, .p = 2.0});
  Dataset d = SmallLine();
  EXPECT_DOUBLE_EQ(f(d, 0, 1), std::exp(-1.0));
  EXPECT_DOUBLE_EQ(f(d, 0, 2), std::exp(-2.0));
}

TEST(AffinityFunctionTest, DiagonalIsZero) {
  AffinityFunction f({.k = 2.0, .p = 2.0});
  Dataset d = SmallLine();
  EXPECT_DOUBLE_EQ(f(d, 2, 2), 0.0);
}

TEST(AffinityFunctionTest, SymmetricByConstruction) {
  AffinityFunction f({.k = 0.7, .p = 1.0});
  Dataset d = SmallLine();
  EXPECT_DOUBLE_EQ(f(d, 0, 3), f(d, 3, 0));
}

TEST(AffinityFunctionTest, ScalingFactorSharpensDecay) {
  AffinityFunction slow({.k = 0.1, .p = 2.0});
  AffinityFunction fast({.k = 5.0, .p = 2.0});
  Dataset d = SmallLine();
  EXPECT_GT(slow(d, 0, 3), fast(d, 0, 3));
}

TEST(AffinityFunctionTest, DistanceRoundTrip) {
  AffinityFunction f({.k = 3.0, .p = 2.0});
  const Scalar a = f.FromDistance(1.7);
  EXPECT_NEAR(f.ToDistance(a), 1.7, 1e-12);
}

TEST(AffinityFunctionTest, SuggestScalingFactorHitsTarget) {
  Rng rng(5);
  Dataset d(4);
  for (int i = 0; i < 200; ++i) {
    std::vector<Scalar> p(4);
    for (auto& v : p) v = rng.Gaussian();
    d.Append(p);
  }
  const double k = AffinityFunction::SuggestScalingFactor(d, 2.0, 0.5, 500);
  // With k tuned, the median pair should land near affinity 0.5.
  AffinityFunction f({.k = k, .p = 2.0});
  int above = 0, total = 0;
  for (Index i = 0; i < 40; ++i) {
    for (Index j = i + 1; j < 40; ++j) {
      above += f(d, i, j) > 0.5;
      ++total;
    }
  }
  const double frac = static_cast<double>(above) / total;
  EXPECT_GT(frac, 0.25);
  EXPECT_LT(frac, 0.75);
}

TEST(AffinityFunctionDeathTest, SuggestScalingFactorRejectsEmptySample) {
  Dataset d = SmallLine();
  // sample_size <= 0 used to read dists[dists.size() / 2] of an empty
  // vector; now it aborts with a message instead of returning garbage.
  EXPECT_DEATH(AffinityFunction::SuggestScalingFactor(d, 2.0, 0.5, 0),
               "at least one sampled distance");
  EXPECT_DEATH(AffinityFunction::SuggestScalingFactor(d, 2.0, 0.5, -7),
               "at least one sampled distance");
}

TEST(AffinityFunctionTest, SuggestScalingFactorSingleSampleIsFinite) {
  Dataset d = SmallLine();
  // The smallest legal sample: one distance is its own median.
  const double k = AffinityFunction::SuggestScalingFactor(d, 2.0, 0.5, 1);
  EXPECT_TRUE(std::isfinite(k));
  EXPECT_GT(k, 0.0);
}

TEST(AffinityMatrixTest, MatchesKernelEntrywise) {
  AffinityFunction f({.k = 1.0, .p = 2.0});
  Dataset d = SmallLine();
  AffinityMatrix a(d, f);
  for (Index i = 0; i < d.size(); ++i) {
    for (Index j = 0; j < d.size(); ++j) {
      EXPECT_DOUBLE_EQ(a(i, j), f(d, i, j)) << i << "," << j;
    }
  }
  EXPECT_EQ(a.entries_computed(), 6);  // n(n-1)/2 kernel evaluations
}

TEST(AffinityMatrixTest, ChargesMemoryTracker) {
  MemoryTracker::Global().Reset();
  AffinityFunction f({.k = 1.0, .p = 2.0});
  Dataset d = SmallLine();
  {
    AffinityMatrix a(d, f);
    EXPECT_EQ(MemoryTracker::Global().current_bytes(),
              static_cast<int64_t>(16 * sizeof(Scalar)));
  }
  EXPECT_EQ(MemoryTracker::Global().current_bytes(), 0);
}

TEST(LazyAffinityOracleTest, EntryMatchesKernelAndCounts) {
  AffinityFunction f({.k = 1.0, .p = 2.0});
  Dataset d = SmallLine();
  LazyAffinityOracle o(d, f);
  EXPECT_DOUBLE_EQ(o.Entry(0, 1), std::exp(-1.0));
  EXPECT_DOUBLE_EQ(o.Entry(1, 1), 0.0);
  EXPECT_EQ(o.entries_computed(), 2);
}

TEST(LazyAffinityOracleTest, ColumnFragment) {
  AffinityFunction f({.k = 1.0, .p = 2.0});
  Dataset d = SmallLine();
  LazyAffinityOracle o(d, f);
  IndexList rows{0, 2, 3};
  auto col = o.Column(rows, 1);
  ASSERT_EQ(col.size(), 3u);
  EXPECT_DOUBLE_EQ(col[0], std::exp(-1.0));
  EXPECT_DOUBLE_EQ(col[1], std::exp(-1.0));
  EXPECT_DOUBLE_EQ(col[2], std::exp(-9.0));
  EXPECT_EQ(o.entries_computed(), 3);
}

TEST(LazyAffinityOracleTest, ChargeDischargePeak) {
  AffinityFunction f({.k = 1.0, .p = 2.0});
  Dataset d = SmallLine();
  LazyAffinityOracle o(d, f);
  o.Charge(100);
  o.Charge(200);
  EXPECT_EQ(o.current_bytes(), 300);
  o.Discharge(250);
  EXPECT_EQ(o.current_bytes(), 50);
  EXPECT_EQ(o.peak_bytes(), 300);
  o.ResetCounters();
  EXPECT_EQ(o.peak_bytes(), 0);
}

// The oracle's stateless contract. The suite is named after the shared
// column cache the oracle once carried; with that cache removed, each case
// checks that the oracle needs none: values are recomputed bit-identically
// on every request, entries_computed counts every request (the Table 1
// count), and the cache reads the repository benchmark still compiles
// against stay 0.
LabeledData CacheSuiteData(Index n = 120) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 8;
  cfg.num_clusters = 3;
  cfg.seed = 11;
  return MakeSynthetic(cfg);
}

IndexList RowRange(Index begin, Index end) {
  IndexList rows;
  for (Index i = begin; i < end; ++i) rows.push_back(i);
  return rows;
}

TEST(ColumnCacheTest, LookupAfterInsertHitsSymmetrically) {
  LabeledData data = CacheSuiteData();
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  LazyAffinityOracle oracle(data.data, affinity);
  // a_ij == a_ji bit-for-bit, and both orders are true kernel work.
  for (Index i = 0; i < 10; ++i) {
    const Index j = 119 - i;
    EXPECT_EQ(oracle.Entry(i, j), oracle.Entry(j, i)) << i;
  }
  EXPECT_EQ(oracle.entries_computed(), 20);
  // A column fragment agrees with the transposed single entries.
  const IndexList rows = RowRange(0, 10);
  const std::vector<Scalar> column = oracle.Column(rows, 100);
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(column[r], oracle.Entry(100, rows[r])) << r;
  }
  EXPECT_EQ(oracle.entries_computed(), 40);
  EXPECT_EQ(oracle.cache_hits(), 0);
}

TEST(ColumnCacheTest, OracleCountsHitsSeparatelyFromEntriesComputed) {
  // Repeat work is true kernel work: it shows up in entries_computed, and
  // the constant cache_hits read never moves.
  LabeledData data = CacheSuiteData();
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  LazyAffinityOracle oracle(data.data, affinity);

  const IndexList rows = RowRange(0, 40);
  auto first = oracle.Column(rows, 100);
  EXPECT_EQ(oracle.entries_computed(), 40);
  EXPECT_EQ(oracle.cache_hits(), 0);

  auto second = oracle.Column(rows, 100);
  EXPECT_EQ(oracle.entries_computed(), 80);
  EXPECT_EQ(oracle.cache_hits(), 0);
  EXPECT_EQ(first, second);

  oracle.Entry(100, 5);
  EXPECT_EQ(oracle.entries_computed(), 81);
  EXPECT_EQ(oracle.cache_hits(), 0);
}

TEST(ColumnCacheTest, CachedValuesMatchUncachedOracle) {
  // Two oracles over the same data, asked repeatedly, return exactly the
  // kernel of Eq. 1 evaluated on the current rows.
  LabeledData data = CacheSuiteData();
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  LazyAffinityOracle a(data.data, affinity);
  LazyAffinityOracle b(data.data, affinity);
  const IndexList rows = RowRange(10, 60);
  for (Index col : {0, 5, 99, 100}) {
    const std::vector<Scalar> column = a.Column(rows, col);
    EXPECT_EQ(column, b.Column(rows, col)) << col;
    EXPECT_EQ(column, a.Column(rows, col)) << col;
    for (size_t r = 0; r < rows.size(); ++r) {
      EXPECT_EQ(column[r], affinity(data.data, rows[r], col)) << col;
    }
  }
}

TEST(ColumnCacheTest, DisableRestoresStatelessOracle) {
  // The oracle is stateless from construction: each repeat of the same
  // entry is evaluated and counted, and ResetCounters leaves nothing behind.
  LabeledData data = CacheSuiteData();
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  LazyAffinityOracle oracle(data.data, affinity);
  const Scalar value = oracle.Entry(1, 2);
  EXPECT_EQ(oracle.Entry(1, 2), value);
  EXPECT_EQ(oracle.Entry(1, 2), value);
  EXPECT_EQ(oracle.entries_computed(), 3);
  EXPECT_EQ(oracle.cache_hits(), 0);
  oracle.ResetCounters();
  EXPECT_EQ(oracle.entries_computed(), 0);
  EXPECT_EQ(oracle.Entry(1, 2), value);
  EXPECT_EQ(oracle.entries_computed(), 1);
}

TEST(ColumnCacheTest, OracleEvictionUnderTightBudgetStaysCorrectAndCounted) {
  // A working set far above any per-oracle storage: values stay exact on
  // every pass, nothing is evicted because nothing is stored, and the count
  // is exactly the requests — 3 passes x 40 columns x 100 rows.
  LabeledData data = CacheSuiteData(200);
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  LazyAffinityOracle oracle(data.data, affinity);
  LazyAffinityOracle reference(data.data, affinity);

  const IndexList rows = RowRange(0, 100);
  for (int pass = 0; pass < 3; ++pass) {
    for (Index col = 100; col < 140; ++col) {
      EXPECT_EQ(oracle.Column(rows, col), reference.Column(rows, col)) << col;
    }
  }
  EXPECT_EQ(oracle.cache_evictions(), 0);
  EXPECT_EQ(oracle.cache_hits(), 0);
  EXPECT_EQ(oracle.entries_computed(), 3 * 40 * 100);
  // The oracle holds no affinity storage of its own: only detections charge
  // bytes (LID's per-run column memo).
  EXPECT_EQ(oracle.peak_bytes(), 0);
}

TEST(ColumnCacheTest, ConcurrentMixedUseIsConsistent) {
  LabeledData data = CacheSuiteData(200);
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  LazyAffinityOracle oracle(data.data, affinity);
  LazyAffinityOracle reference(data.data, affinity);

  const IndexList rows = RowRange(0, 80);
  constexpr int kThreads = 4;
  constexpr int kReps = 20;
  std::vector<std::thread> threads;
  std::atomic<bool> mismatch{false};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < kReps; ++rep) {
        const Index col = 100 + (t * 20 + rep) % 50;
        if (oracle.Column(rows, col) != reference.Column(rows, col)) {
          mismatch.store(true);
        }
        if (oracle.Entry(col, rows[rep]) != reference.Entry(rows[rep], col)) {
          mismatch.store(true);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(mismatch.load());
  // Shared by four threads, the count is still exact: every column row and
  // every single entry was one kernel evaluation.
  EXPECT_EQ(oracle.entries_computed(),
            kThreads * kReps * static_cast<int64_t>(rows.size() + 1));
  EXPECT_EQ(oracle.cache_hits(), 0);
}

TEST(SparsifierTest, DenseCsrMatchesAffinityMatrix) {
  AffinityFunction f({.k = 1.0, .p = 2.0});
  Dataset d = SmallLine();
  AffinityMatrix dense(d, f);
  SparseMatrix csr = Sparsifier::Dense(d, f);
  for (Index i = 0; i < d.size(); ++i) {
    for (Index j = 0; j < d.size(); ++j) {
      EXPECT_NEAR(csr.At(i, j), dense(i, j), 1e-15);
    }
  }
}

TEST(SparsifierTest, EnnKeepsNearestNeighbours) {
  AffinityFunction f({.k = 1.0, .p = 2.0});
  Dataset d = SmallLine();
  SparseMatrix m = Sparsifier::FromExactNearestNeighbors(d, f, 1);
  // Point 0's nearest neighbour is 1; symmetric entries must exist.
  EXPECT_GT(m.At(0, 1), 0.0);
  EXPECT_GT(m.At(1, 0), 0.0);
  // The far point 3 keeps only its own nearest (2), nothing to 0 unless
  // induced by symmetrization of 0's list.
  EXPECT_DOUBLE_EQ(m.At(0, 3), 0.0);
}

TEST(SparsifierTest, EnnIsSymmetric) {
  SyntheticConfig cfg;
  cfg.n = 60;
  cfg.dim = 4;
  cfg.num_clusters = 3;
  cfg.regime = SyntheticRegime::kProportional;
  cfg.omega = 0.5;
  LabeledData data = MakeSynthetic(cfg);
  AffinityFunction f({.k = data.suggested_k, .p = 2.0});
  SparseMatrix m = Sparsifier::FromExactNearestNeighbors(data.data, f, 5);
  for (Index i = 0; i < m.rows(); ++i) {
    auto idx = m.RowIndices(i);
    for (Index j : idx) {
      EXPECT_NEAR(m.At(i, j), m.At(j, i), 1e-15);
    }
  }
}

TEST(SparsifierTest, LshCollisionsKeepClusterEdgesAndStaySparse) {
  SyntheticConfig cfg;
  cfg.n = 400;
  cfg.dim = 16;
  cfg.num_clusters = 4;
  cfg.regime = SyntheticRegime::kProportional;
  cfg.omega = 0.5;
  cfg.mean_box = 200.0;
  LabeledData data = MakeSynthetic(cfg);
  AffinityFunction f({.k = data.suggested_k, .p = 2.0});
  LshParams lp;
  lp.num_tables = 6;
  lp.num_projections = 6;
  lp.segment_length = data.suggested_lsh_r;
  LshIndex lsh(data.data, lp);
  SparseMatrix m = Sparsifier::FromLshCollisions(data.data, f, lsh);
  // Sparse: far fewer than n^2 entries.
  EXPECT_LT(m.nnz(), static_cast<int64_t>(cfg.n) * cfg.n / 4);
  // Dense within clusters: each ground-truth item should keep some edges.
  int with_edges = 0, truth = 0;
  for (Index i = 0; i < m.rows(); ++i) {
    if (data.labels[i] < 0) continue;
    ++truth;
    if (!m.RowIndices(i).empty()) ++with_edges;
  }
  EXPECT_GT(with_edges, truth * 8 / 10);
}

}  // namespace
}  // namespace alid

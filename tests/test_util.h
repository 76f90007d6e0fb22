#ifndef ALID_TESTS_TEST_UTIL_H_
#define ALID_TESTS_TEST_UTIL_H_

// Helpers shared by the test binaries (each tests/*.cc builds standalone, so
// everything here is header-only).
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "affinity/lazy_affinity_oracle.h"
#include "core/cluster.h"
#include "data/labeled_data.h"
#include "lsh/lsh_index.h"
#include "serve/cluster_server.h"

namespace alid {

/// The standard oracle + LSH pipeline the integration/determinism/stress
/// tests run ALID and PALID through.
struct TestPipeline {
  explicit TestPipeline(const LabeledData& labeled) {
    affinity = std::make_unique<AffinityFunction>(
        AffinityParams{.k = labeled.suggested_k, .p = 2.0});
    oracle = std::make_unique<LazyAffinityOracle>(labeled.data, *affinity);
    LshParams lp;
    lp.num_tables = 8;
    lp.num_projections = 6;
    lp.segment_length = labeled.suggested_lsh_r;
    lsh = std::make_unique<LshIndex>(labeled.data, lp);
  }
  std::unique_ptr<AffinityFunction> affinity;
  std::unique_ptr<LazyAffinityOracle> oracle;
  std::unique_ptr<LshIndex> lsh;
};

/// Full structural equality of two detection results, including cluster
/// order: the parallel runtime promises deterministically ordered output,
/// not merely the same set of clusters.
inline void ExpectIdenticalDetections(const DetectionResult& a,
                                      const DetectionResult& b) {
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t c = 0; c < a.clusters.size(); ++c) {
    EXPECT_EQ(a.clusters[c].seed, b.clusters[c].seed) << "cluster " << c;
    EXPECT_EQ(a.clusters[c].members, b.clusters[c].members) << "cluster " << c;
    EXPECT_EQ(a.clusters[c].weights, b.clusters[c].weights) << "cluster " << c;
    EXPECT_EQ(a.clusters[c].density, b.clusters[c].density) << "cluster " << c;
  }
}

/// x^T A x of the simplex `weights` over the rows `members` of `data`,
/// summed in one fixed double-loop order — the reference the snapshot tests
/// hold every exported cluster's reported density against.
inline Scalar QuadraticDensity(const Dataset& data,
                               const AffinityFunction& fn,
                               std::span<const Index> members,
                               std::span<const Scalar> weights) {
  Scalar density = 0.0;
  for (size_t t = 0; t < members.size(); ++t) {
    for (size_t u = 0; u < members.size(); ++u) {
      density += weights[t] * weights[u] * fn(data, members[t], members[u]);
    }
  }
  return density;
}

/// Malformed requests fail typed whatever the server holds: a ragged
/// `points` span, a negative top_k, and a NaN or infinite coordinate each
/// answer kInvalidRequest, generation 0, and default-filled entries (one per
/// whole row, on the side top_k selects). `point` is one valid row.
inline void ExpectInvalidRequestsRejected(const ClusterServer& server,
                                          std::span<const Scalar> point) {
  const auto expect_invalid = [](const QueryResponse& r, size_t rows,
                                 bool ranked) {
    EXPECT_EQ(r.status, QueryStatus::kInvalidRequest);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.generation, 0u);
    ASSERT_EQ(r.assignments.size(), ranked ? 0u : rows);
    ASSERT_EQ(r.ranked.size(), ranked ? rows : 0u);
    for (const QueryOutcome& a : r.assignments) EXPECT_EQ(a, QueryOutcome{});
    for (const auto& list : r.ranked) EXPECT_TRUE(list.empty());
  };
  std::vector<Scalar> ragged(point.begin(), point.end());
  ragged.push_back(0.0);  // one row plus a stray scalar
  expect_invalid(server.Query({.points = ragged}), 1, false);
  expect_invalid(server.Query({.points = ragged, .top_k = 2}), 1, true);
  expect_invalid(server.Query({.points = point, .top_k = -1}), 1, false);
  for (const Scalar bad : {std::numeric_limits<Scalar>::quiet_NaN(),
                           std::numeric_limits<Scalar>::infinity(),
                           -std::numeric_limits<Scalar>::infinity()}) {
    std::vector<Scalar> two(point.begin(), point.end());
    two.insert(two.end(), point.begin(), point.end());
    two[point.size() + point.size() / 2] = bad;  // second row only
    expect_invalid(server.Query({.points = two}), 2, false);
    expect_invalid(server.Query({.points = two, .top_k = 3}), 2, true);
  }
}

}  // namespace alid

#endif  // ALID_TESTS_TEST_UTIL_H_

#ifndef ALID_TESTS_TEST_UTIL_H_
#define ALID_TESTS_TEST_UTIL_H_

// Helpers shared by the test binaries (each tests/*.cc builds standalone, so
// everything here is header-only).
#include <memory>

#include <gtest/gtest.h>

#include "affinity/lazy_affinity_oracle.h"
#include "core/cluster.h"
#include "data/labeled_data.h"
#include "lsh/lsh_index.h"

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

}  // namespace alid

#endif  // ALID_TESTS_TEST_UTIL_H_

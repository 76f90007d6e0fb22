// Tests of the LSH index's order-free contract: the order of its outputs is
// unspecified (lsh/lsh_index.h), so no answer may depend on it. An index
// whose buckets were reordered by removing and re-inserting a seeded random
// subset keeps every key, and ALID, PALID, seed sampling and CIVS must give
// bit-identical results on it and on an untouched index.
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/alid.h"
#include "core/civs.h"
#include "core/palid.h"
#include "data/synthetic.h"
#include "lsh/lsh_index.h"
#include "test_util.h"

namespace alid {
namespace {

// A small delta makes the CIVS cut to the delta nearest bind, so a
// consumer that kept candidates in query order would see the reordering.
constexpr int kDelta = 8;

class LshOrderFreeTest : public ::testing::Test {
 protected:
  LshOrderFreeTest() {
    SyntheticConfig cfg;
    cfg.n = 600;
    cfg.dim = 12;
    cfg.num_clusters = 4;
    cfg.regime = SyntheticRegime::kProportional;
    cfg.omega = 0.6;
    cfg.mean_box = 300.0;
    cfg.seed = 4;
    data_ = MakeSynthetic(cfg);
    affinity_ = std::make_unique<AffinityFunction>(
        AffinityParams{.k = data_.suggested_k, .p = 2.0});
    LshParams lp;
    lp.num_tables = 8;
    lp.num_projections = 6;
    lp.segment_length = data_.suggested_lsh_r;
    untouched_ = std::make_unique<LshIndex>(data_.data, lp);
    reordered_ = std::make_unique<LshIndex>(data_.data, lp);
    // Remove half the items in a seeded random order, then re-insert them
    // in the reverse order: each lands at the back of its buckets.
    Rng rng(2024);
    const IndexList subset =
        rng.SampleWithoutReplacement(data_.size(), data_.size() / 2);
    for (Index i : subset) reordered_->RemoveItem(i);
    for (auto it = subset.rbegin(); it != subset.rend(); ++it) {
      reordered_->InsertItem(*it);
    }
    alid_options_.civs.delta = kDelta;
  }

  LazyAffinityOracle Oracle() const {
    return LazyAffinityOracle(data_.data, *affinity_);
  }

  LabeledData data_;
  std::unique_ptr<AffinityFunction> affinity_;
  std::unique_ptr<LshIndex> untouched_;
  std::unique_ptr<LshIndex> reordered_;
  AlidOptions alid_options_;
};

TEST_F(LshOrderFreeTest, ReinsertionKeepsKeysButReordersBuckets) {
  ASSERT_EQ(reordered_->live_count(), untouched_->live_count());
  int reordered_queries = 0;
  for (Index i = 0; i < data_.size(); ++i) {
    for (int t = 0; t < untouched_->num_tables(); ++t) {
      ASSERT_EQ(reordered_->ItemKey(t, i), untouched_->ItemKey(t, i)) << i;
    }
    auto got = reordered_->QueryByIndex(i);
    auto want = untouched_->QueryByIndex(i);
    if (got != want) ++reordered_queries;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "item " << i;
  }
  EXPECT_GT(reordered_queries, static_cast<int>(data_.size()) / 4);
}

TEST_F(LshOrderFreeTest, AlidDetectAllIsBitIdentical) {
  const LazyAffinityOracle oracle_a = Oracle();
  const LazyAffinityOracle oracle_b = Oracle();
  const DetectionResult want =
      AlidDetector(oracle_a, *untouched_, alid_options_).DetectAll();
  const DetectionResult got =
      AlidDetector(oracle_b, *reordered_, alid_options_).DetectAll();
  ASSERT_GT(want.clusters.size(), 0u);
  ExpectIdenticalDetections(got, want);
  EXPECT_EQ(oracle_b.entries_computed(), oracle_a.entries_computed());
}

TEST_F(LshOrderFreeTest, PalidDetectIsBitIdentical) {
  PalidOptions options;
  options.num_executors = 2;
  options.alid = alid_options_;
  const LazyAffinityOracle oracle_a = Oracle();
  const LazyAffinityOracle oracle_b = Oracle();
  const Palid untouched(oracle_a, *untouched_, options);
  const Palid reordered(oracle_b, *reordered_, options);
  ASSERT_FALSE(untouched.SampleSeeds().empty());
  EXPECT_EQ(reordered.SampleSeeds(), untouched.SampleSeeds());
  PalidStats want_stats;
  PalidStats got_stats;
  const DetectionResult want = untouched.Detect(&want_stats);
  const DetectionResult got = reordered.Detect(&got_stats);
  ASSERT_GT(want.clusters.size(), 0u);
  ExpectIdenticalDetections(got, want);
  EXPECT_EQ(got_stats.entries_computed, want_stats.entries_computed);
}

TEST_F(LshOrderFreeTest, CivsRetrieveKeepsTheDeltaNearest) {
  const LazyAffinityOracle oracle = Oracle();
  CivsOptions options;
  options.delta = kDelta;
  const Scalar radius = 3.0 * data_.suggested_lsh_r;
  int reordered_unions = 0;
  for (const IndexList& cluster : data_.true_clusters) {
    std::vector<std::pair<Index, Scalar>> support;
    IndexList queried;
    for (int m = 0; m < 5; ++m) {
      support.emplace_back(cluster[m], 0.2);
      queried.push_back(cluster[m]);
    }
    Roi roi;
    roi.valid = true;
    roi.center.assign(data_.data[cluster[0]].begin(),
                      data_.data[cluster[0]].end());
    roi.r_in = radius;
    roi.r_out = radius;
    const IndexList want = CivsRetrieve(oracle, *untouched_, roi, radius,
                                        support, nullptr, options);
    const IndexList got = CivsRetrieve(oracle, *reordered_, roi, radius,
                                       support, nullptr, options);
    ASSERT_EQ(want.size(), static_cast<size_t>(kDelta));  // the cut binds
    EXPECT_EQ(got, want);
    std::vector<Index> union_a;
    std::vector<Index> union_b;
    untouched_->QueryByIndexBatch(queried, &union_a);
    reordered_->QueryByIndexBatch(queried, &union_b);
    if (union_a != union_b) ++reordered_unions;
  }
  EXPECT_GT(reordered_unions, 0);
}

}  // namespace
}  // namespace alid

// Tests of the p-stable LSH index: recall on planted clusters, selectivity
// against noise, bucket iteration and determinism.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/synthetic.h"
#include "lsh/lsh_index.h"

namespace alid {
namespace {

LabeledData TightClusters(Index n = 300, int dim = 8, int clusters = 3) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = dim;
  cfg.num_clusters = clusters;
  cfg.regime = SyntheticRegime::kProportional;
  cfg.omega = 0.6;
  cfg.mean_box = 300.0;
  cfg.overlap_clusters = false;  // collision stats need separated clusters
  cfg.seed = 9;
  return MakeSynthetic(cfg);
}

LshParams DefaultParams(const LabeledData& data) {
  LshParams p;
  p.num_tables = 8;
  p.num_projections = 6;
  p.segment_length = data.suggested_lsh_r;
  return p;
}

TEST(LshIndexTest, QueryExcludesSelf) {
  LabeledData data = TightClusters();
  LshIndex lsh(data.data, DefaultParams(data));
  auto res = lsh.QueryByIndex(0);
  EXPECT_EQ(std::count(res.begin(), res.end(), 0), 0);
}

TEST(LshIndexTest, SameClusterRecallIsHigh) {
  LabeledData data = TightClusters();
  LshIndex lsh(data.data, DefaultParams(data));
  // For members of cluster 0, most same-cluster items should collide.
  const IndexList& truth = data.true_clusters[0];
  double recall_sum = 0.0;
  for (Index i : truth) {
    auto res = lsh.QueryByIndex(i);
    std::set<Index> set(res.begin(), res.end());
    int hit = 0;
    for (Index j : truth) {
      if (j != i && set.count(j)) ++hit;
    }
    recall_sum += static_cast<double>(hit) / (truth.size() - 1);
  }
  EXPECT_GT(recall_sum / truth.size(), 0.8);
}

TEST(LshIndexTest, CrossClusterCollisionsAreRare) {
  LabeledData data = TightClusters();
  LshIndex lsh(data.data, DefaultParams(data));
  const IndexList& c0 = data.true_clusters[0];
  const IndexList& c1 = data.true_clusters[1];
  int cross = 0, total = 0;
  for (Index i : c0) {
    auto res = lsh.QueryByIndex(i);
    std::set<Index> set(res.begin(), res.end());
    for (Index j : c1) {
      cross += set.count(j) != 0;
      ++total;
    }
  }
  EXPECT_LT(static_cast<double>(cross) / total, 0.05);
}

TEST(LshIndexTest, QueryByPointMatchesQueryByIndexBuckets) {
  LabeledData data = TightClusters();
  LshIndex lsh(data.data, DefaultParams(data));
  // Querying with an item's own coordinates returns its bucket mates (and
  // possibly the item itself).
  auto by_index = lsh.QueryByIndex(5);
  std::vector<Index> by_point;
  lsh.QueryByPoint(data.data[5], &by_point);
  std::set<Index> a(by_index.begin(), by_index.end());
  std::set<Index> b(by_point.begin(), by_point.end());
  b.erase(5);
  EXPECT_EQ(a, b);
}

TEST(LshIndexTest, VisitBucketsSeesClusterSizedBuckets) {
  LabeledData data = TightClusters();
  LshIndex lsh(data.data, DefaultParams(data));
  int big_buckets = 0;
  size_t biggest = 0;
  lsh.VisitBuckets(6, [&](std::span<const Index> items) {
    ++big_buckets;
    biggest = std::max(biggest, items.size());
  });
  EXPECT_GT(big_buckets, 0);
  // At least one bucket should capture a large chunk of some cluster.
  EXPECT_GE(biggest, data.true_clusters[0].size() / 2);
}

TEST(LshIndexTest, DeterministicAcrossInstances) {
  LabeledData data = TightClusters();
  LshIndex a(data.data, DefaultParams(data));
  LshIndex b(data.data, DefaultParams(data));
  for (Index i = 0; i < 20; ++i) {
    auto ra = a.QueryByIndex(i);
    auto rb = b.QueryByIndex(i);
    std::sort(ra.begin(), ra.end());
    std::sort(rb.begin(), rb.end());
    EXPECT_EQ(ra, rb);
  }
}

TEST(LshIndexTest, MemoryBytesAccounted) {
  LabeledData data = TightClusters();
  LshIndex lsh(data.data, DefaultParams(data));
  EXPECT_GT(lsh.MemoryBytes(), 0u);
}

TEST(LshIndexTest, MeanCandidatesDiagnosticRuns) {
  LabeledData data = TightClusters();
  LshIndex lsh(data.data, DefaultParams(data));
  const double mean = lsh.MeanCandidatesPerItem(100);
  EXPECT_GE(mean, 0.0);
  EXPECT_LT(mean, static_cast<double>(data.size()));
}

// Property sweep over the segment length r: recall and candidate volume both
// grow with r (the Fig. 6 mechanism: larger r => denser sparsified matrix).
class LshSegmentLengthProperty : public ::testing::TestWithParam<double> {};

TEST_P(LshSegmentLengthProperty, CandidateVolumeGrowsWithR) {
  LabeledData data = TightClusters();
  LshParams small = DefaultParams(data);
  small.segment_length = data.suggested_lsh_r * GetParam();
  LshParams large = small;
  large.segment_length = small.segment_length * 4.0;
  LshIndex lsh_small(data.data, small);
  LshIndex lsh_large(data.data, large);
  EXPECT_LE(lsh_small.MeanCandidatesPerItem(150),
            lsh_large.MeanCandidatesPerItem(150) + 1.0);
}

INSTANTIATE_TEST_SUITE_P(SegmentScales, LshSegmentLengthProperty,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0));

TEST(LshIndexTest, PointQueryOutParamMatchesAllocatingForm) {
  LabeledData data = TightClusters();
  LshIndex lsh(data.data, DefaultParams(data));
  const int tables = lsh.num_tables();
  // The allocating reference: a scan of every item's keys against the
  // point's, table by table.
  std::vector<uint64_t> item_keys(static_cast<size_t>(data.size()) * tables);
  for (Index j = 0; j < data.size(); ++j) {
    lsh.ComputeItemKeys(j, &item_keys[static_cast<size_t>(j) * tables]);
  }
  std::vector<uint64_t> point_keys(static_cast<size_t>(tables));
  std::vector<Index> out;
  for (Index i = 0; i < 25; ++i) {
    lsh.QueryByPoint(data.data[i], &out);
    lsh.ComputePointKeys(data.data[i], point_keys.data());
    std::vector<Index> allocated;
    for (Index j = 0; j < data.size(); ++j) {
      for (int t = 0; t < tables; ++t) {
        if (item_keys[static_cast<size_t>(j) * tables + t] == point_keys[t]) {
          allocated.push_back(j);
          break;
        }
      }
    }
    auto sorted = out;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, allocated) << "point " << i;
    // Repeated calls re-use the scratch and stay self-consistent.
    std::vector<Index> again;
    lsh.QueryByPoint(data.data[i], &again);
    EXPECT_EQ(out, again);
  }
}

// Seeded fuzz of the streaming mutations: random interleavings of
// RemoveItem / re-insertion (with recomputed keys) must leave the index
// answering every query exactly like a freshly built index from which the
// currently removed slots were removed once — no ghost bucket entries, no
// lost items, no drift in live bookkeeping.
class LshRemoveReinsertFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LshRemoveReinsertFuzz, InterleavedRemovalsMatchFreshIndex) {
  LabeledData data = TightClusters(240);
  const LshParams params = DefaultParams(data);
  LshIndex fuzzed(data.data, params);

  Rng rng(GetParam());
  const Index n = data.size();
  std::vector<uint8_t> removed(n, 0);
  std::vector<Index> removed_list;
  std::vector<uint64_t> keys(params.num_tables);
  for (int step = 0; step < 600; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 2));
    if (op == 0 || removed_list.empty()) {
      // Remove a random live item (if any are left).
      if (static_cast<size_t>(n) == removed_list.size()) continue;
      Index target = static_cast<Index>(rng.UniformInt(0, n - 1));
      while (removed[target] != 0) target = (target + 1) % n;
      fuzzed.RemoveItem(target);
      removed[target] = 1;
      removed_list.push_back(target);
    } else if (op == 1) {
      // Re-insert a random removed slot (its row is unchanged, so the
      // recomputed keys are the original ones — the stream's slot re-use
      // path with an identical occupant).
      const size_t pick = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(removed_list.size()) - 1));
      const Index target = removed_list[pick];
      fuzzed.ComputeItemKeys(target, keys.data());
      fuzzed.InsertItemWithKeys(target, keys);
      removed[target] = 0;
      removed_list[pick] = removed_list.back();
      removed_list.pop_back();
    } else {
      // Query a random live item mid-interleaving; results must only ever
      // contain live items.
      if (static_cast<size_t>(n) == removed_list.size()) continue;
      Index probe = static_cast<Index>(rng.UniformInt(0, n - 1));
      while (removed[probe] != 0) probe = (probe + 1) % n;
      for (Index j : fuzzed.QueryByIndex(probe)) {
        ASSERT_EQ(removed[j], 0) << "ghost item " << j;
      }
    }
  }

  // Reference: a fresh index over the same data minus the removed set.
  LshIndex fresh(data.data, params);
  for (Index i = 0; i < n; ++i) {
    if (removed[i] != 0) fresh.RemoveItem(i);
  }
  ASSERT_EQ(fuzzed.live_count(), fresh.live_count());
  ASSERT_EQ(fuzzed.size(), fresh.size());
  for (Index i = 0; i < n; ++i) {
    ASSERT_EQ(fuzzed.IsItemRemoved(i), fresh.IsItemRemoved(i)) << i;
    if (removed[i] != 0) continue;
    auto got = fuzzed.QueryByIndex(i);
    auto want = fresh.QueryByIndex(i);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(got, want) << "item " << i;
  }
  // Batched queries agree too (the CIVS path over the surviving items).
  IndexList live;
  for (Index i = 0; i < n && static_cast<int>(live.size()) < 40; ++i) {
    if (removed[i] == 0) live.push_back(i);
  }
  std::vector<Index> got_batch;
  std::vector<Index> want_batch;
  fuzzed.QueryByIndexBatch(live, &got_batch);
  fresh.QueryByIndexBatch(live, &want_batch);
  std::sort(got_batch.begin(), got_batch.end());
  std::sort(want_batch.begin(), want_batch.end());
  EXPECT_EQ(got_batch, want_batch);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LshRemoveReinsertFuzz,
                         ::testing::Values(1u, 17u, 404u, 9001u));

}  // namespace
}  // namespace alid

// Tests of the p-stable LSH index: recall on planted clusters, selectivity
// against noise, bucket iteration, determinism, and bit-identity of the
// tiled projection keys with the per-table row-major hashing loop on every
// SIMD path.
#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/random.h"
#include "data/synthetic.h"
#include "lsh/lsh_index.h"
#include "simd/simd_dispatch.h"

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
    lsh.ComputePointKeys(data.data[j],
                         &item_keys[static_cast<size_t>(j) * tables]);
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
      fuzzed.InsertItem(target);
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

// The per-table row-major hasher the tiled index replaced, kept as the
// oracle of its keys: each table draws its projection matrix (row-major,
// num_projections x dim) and then its offsets from one Rng(seed) stream,
// each projection is one serial dot product over the full dimension, and a
// table's key folds its floors word by word, h = (h ^ floor) *
// 0x9E3779B97F4A7C15, finalized by SplitMix64.
class RowMajorReferenceHasher {
 public:
  RowMajorReferenceHasher(int dim, const LshParams& params)
      : dim_(dim), params_(params) {
    Rng rng(params.seed);
    tables_.resize(static_cast<size_t>(params.num_tables));
    for (auto& table : tables_) {
      table.projections.resize(
          static_cast<size_t>(params.num_projections) * dim);
      for (auto& v : table.projections) v = rng.Gaussian();
      table.offsets.resize(static_cast<size_t>(params.num_projections));
      for (auto& b : table.offsets) b = rng.Uniform(0.0, params.segment_length);
    }
  }

  // Projection p of table t, floored: the bucket coordinate.
  int32_t Floor(int t, int p, std::span<const Scalar> point) const {
    const Table& table = tables_[static_cast<size_t>(t)];
    const Scalar* proj =
        table.projections.data() + static_cast<size_t>(p) * dim_;
    Scalar dot = 0.0;
    for (int k = 0; k < dim_; ++k) dot += proj[k] * point[k];
    return SaturatingFloor((dot + table.offsets[p]) / params_.segment_length);
  }

  Scalar Projection(int t, int p, int k) const {
    return tables_[static_cast<size_t>(t)]
        .projections[static_cast<size_t>(p) * dim_ + k];
  }

  uint64_t Key(int t, std::span<const Scalar> point) const {
    int32_t floors[LshIndex::kMaxProjections] = {};
    for (int p = 0; p < params_.num_projections; ++p) {
      floors[p] = Floor(t, p, point);
    }
    uint64_t h = 0;
    for (int p = 0; p < params_.num_projections; ++p) {
      h = (h ^ static_cast<uint32_t>(floors[p])) * 0x9E3779B97F4A7C15ull;
    }
    return SplitMix64(h);
  }

 private:
  struct Table {
    std::vector<Scalar> projections;
    std::vector<Scalar> offsets;
  };

  static int32_t SaturatingFloor(Scalar v) {
    constexpr Scalar kMin = std::numeric_limits<int32_t>::min();
    constexpr Scalar kMax = std::numeric_limits<int32_t>::max();
    const Scalar f = std::floor(v);
    if (!(f >= kMin)) return std::numeric_limits<int32_t>::min();
    if (f > kMax) return std::numeric_limits<int32_t>::max();
    return static_cast<int32_t>(f);
  }

  int dim_;
  LshParams params_;
  std::vector<Table> tables_;
};

// Random rows; the SaturatingFloor edges (NaN, +-inf and +-1e300
// coordinates, alone and mixed into ordinary rows); and, for every
// projection, the two adjacent rows on either side of one of its bucket
// edges, of the edge where its floor reaches INT32_MAX and of the edge
// where it leaves INT32_MIN. A random row's projection sits far from an
// edge in ulps, so it would hide a kernel that is off in the last bits (an
// FMA, a reordered sum) or a floor that is off at the saturation bounds; an
// edge row's reference floor flips if the projection moves by about an ulp,
// so such a kernel changes some of these rows' keys.
Dataset KeyProbeRows(int dim, const LshParams& params,
                     const RowMajorReferenceHasher& reference,
                     uint64_t seed) {
  constexpr Scalar kInf = std::numeric_limits<Scalar>::infinity();
  constexpr int32_t kMinFloor = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMaxFloor = std::numeric_limits<int32_t>::max();
  const Scalar kEdges[] = {std::numeric_limits<Scalar>::quiet_NaN(), kInf,
                           -kInf, 1e300, -1e300};
  Rng rng(seed);
  Dataset rows(dim);
  std::vector<Scalar> row(static_cast<size_t>(dim));
  for (int i = 0; i < 40; ++i) {
    for (auto& v : row) v = rng.Uniform(-20.0, 20.0);
    rows.Append(row);
  }
  for (const Scalar edge : kEdges) {
    std::fill(row.begin(), row.end(), edge);
    rows.Append(row);
    for (auto& v : row) v = rng.Uniform(-20.0, 20.0);
    row[static_cast<size_t>(dim / 2)] = edge;
    rows.Append(row);
  }
  for (int t = 0; t < params.num_tables; ++t) {
    for (int p = 0; p < params.num_projections; ++p) {
      // The floor is monotone in coordinate k (rounded multiply and add
      // are monotone), so bisect k down to two adjacent doubles on either
      // side of an edge: `below` holds at lo and fails at hi.
      for (auto& v : row) v = rng.Uniform(-20.0, 20.0);
      const int k = (t + p) % dim;
      const Scalar projection = reference.Projection(t, p, k);
      const Scalar toward = projection > 0.0 ? 1.0 : -1.0;
      const auto floor_at = [&](Scalar v) {
        row[static_cast<size_t>(k)] = v;
        return reference.Floor(t, p, row);
      };
      const auto append_edge = [&](Scalar lo, Scalar hi, auto below) {
        while (std::nextafter(lo, hi) != hi) {
          const Scalar mid = lo + (hi - lo) / 2;
          (below(floor_at(mid)) ? lo : hi) = mid;
        }
        floor_at(lo);
        rows.Append(row);
        floor_at(hi);
        rows.Append(row);
      };
      const Scalar start = row[static_cast<size_t>(k)];
      const int32_t start_floor = floor_at(start);
      Scalar next = start;
      do {
        next += toward * params.segment_length;
      } while (floor_at(next) == start_floor);
      append_edge(start, next, [&](int32_t f) { return f == start_floor; });
      // Coordinate k alone carries the projection well past either
      // saturation bound.
      const Scalar scale = params.segment_length / std::abs(projection);
      const Scalar far = toward * 1e10 * scale;
      append_edge(start, far, [](int32_t f) { return f < kMaxFloor; });
      append_edge(-far, start, [](int32_t f) { return f == kMinFloor; });
    }
  }
  return rows;
}

TEST(LshIndexTest, KeysMatchRowMajorReferenceOnEveryIsa) {
  // 8 x 6 and 8 x 12 fill whole tiles; 3 x 5 = 15 lanes leaves a ragged
  // final tile and puts tables across tile boundaries. ComputePointKeys
  // projects groups of 8 tables per call, so 1, 3, 9 and 17 tables leave a
  // short last group (9 and 17 after one or two full ones); one projection
  // per table and kMaxProjections bound the group's buffer from both sides.
  std::vector<std::pair<int, int>> shapes = {{8, 6}, {8, 12}, {3, 5}};
  for (const int tables : {1, 9, 17}) shapes.emplace_back(tables, 3);
  for (const int p : {1, LshIndex::kMaxProjections}) shapes.emplace_back(3, p);
  for (const int dim : {1, 7, 16, 64}) {
    for (const auto& [tables, projections] : shapes) {
      LshParams params;
      params.num_tables = tables;
      params.num_projections = projections;
      params.segment_length = 3.5;
      params.seed = 77 + dim;
      const RowMajorReferenceHasher reference(dim, params);
      const Dataset rows = KeyProbeRows(dim, params, reference, 300 + dim);
      for (SimdIsa isa : AvailableSimdIsas()) {
        ScopedSimdIsaOverride pin(isa);
        SCOPED_TRACE(testing::Message()
                     << "isa=" << SimdIsaName(isa) << " dim=" << dim
                     << " shape=" << tables << "x" << projections);
        const LshIndex eager(rows, params);
        const LshIndex dataset_free(dim, params);
        std::vector<uint64_t> point_keys(static_cast<size_t>(tables));
        std::vector<uint64_t> free_keys(static_cast<size_t>(tables));
        for (Index i = 0; i < rows.size(); ++i) {
          eager.ComputePointKeys(rows[i], point_keys.data());
          dataset_free.ComputePointKeys(rows[i], free_keys.data());
          for (int t = 0; t < tables; ++t) {
            const uint64_t want = reference.Key(t, rows[i]);
            const size_t at = static_cast<size_t>(t);
            ASSERT_EQ(point_keys[at], want) << "ComputePointKeys " << i;
            ASSERT_EQ(free_keys[at], want) << "dataset-free " << i;
            ASSERT_EQ(eager.ItemKey(t, i), want) << "ItemKey " << i;
          }
        }
      }
    }
  }
}

TEST(LshIndexTest, InsertedItemsMatchTheEagerIndex) {
  // The streaming path: rows appended one at a time to a growing dataset
  // and filed with InsertItem hash, and collide, exactly like the eager
  // index over the finished dataset.
  LabeledData data = TightClusters();
  const LshParams params = DefaultParams(data);
  Dataset grown(data.data.dim());
  LshIndex streamed(grown, params);
  for (Index i = 0; i < data.size(); ++i) {
    grown.Append(data.data[i]);
    streamed.InsertItem(i);
  }
  const LshIndex eager(data.data, params);
  ASSERT_EQ(streamed.size(), eager.size());
  ASSERT_EQ(streamed.live_count(), eager.live_count());
  for (Index i = 0; i < data.size(); ++i) {
    for (int t = 0; t < params.num_tables; ++t) {
      ASSERT_EQ(streamed.ItemKey(t, i), eager.ItemKey(t, i)) << i;
    }
    ASSERT_EQ(streamed.QueryByIndex(i), eager.QueryByIndex(i)) << i;
  }
}

TEST(LshIndexDeathTest, DatasetFreeIndexNeverInserts) {
  // The snapshot hasher has no rows to hash.
  LshIndex hasher(4, LshParams{});
  EXPECT_DEATH(hasher.InsertItem(0), "data_ != nullptr");
}

TEST(LshIndexDeathTest, ConstructorsRejectNonPositiveDim) {
  // Both constructors check the dimension up front: the eager one must not
  // size its projections from an empty dataset's dim.
  const Dataset empty(0);
  EXPECT_DEATH(LshIndex(empty, LshParams{}), "dim_ > 0");
  EXPECT_DEATH(LshIndex(-1, LshParams{}), "dim_ > 0");
}

TEST(LshIndexDeathTest, PointEntryPointsRejectAWrongDimension) {
  // Checked in every build type: a Release build must not read past a
  // short span, nor silently hash a prefix of a long one.
  LabeledData data = TightClusters();
  LshIndex lsh(data.data, DefaultParams(data));
  const size_t dim = static_cast<size_t>(data.data.dim());
  const std::vector<Scalar> short_point(dim - 1);
  const std::vector<Scalar> long_point(dim + 1);
  std::vector<uint64_t> keys(static_cast<size_t>(lsh.num_tables()));
  std::vector<Index> out;
  EXPECT_DEATH(lsh.ComputePointKeys(short_point, keys.data()),
               "point dimension");
  EXPECT_DEATH(lsh.ComputePointKeys(long_point, keys.data()),
               "point dimension");
  EXPECT_DEATH(lsh.QueryByPoint(short_point, &out), "point dimension");
  EXPECT_DEATH(lsh.QueryByPoint(long_point, &out), "point dimension");
}

}  // namespace
}  // namespace alid

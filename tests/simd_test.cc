// Tests of the SIMD kernel subsystem: runtime dispatch sanity, SoA tile
// layout, bit-identity of every compiled-in ISA's tile kernels against the
// scalar oracle and against the row-major reference loops, and end-to-end
// bit-identity of the stream (absorb) and serve (Assign/TopK) decisions
// across ISA paths — the contract that lets the vector path be the default.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/dataset.h"
#include "common/random.h"
#include "core/online_alid.h"
#include "data/synthetic.h"
#include "serve/cluster_snapshot.h"
#include "simd/simd_dispatch.h"
#include "simd/soa_block.h"
#include "test_util.h"

namespace alid {
namespace {

// Bitwise double equality (EXPECT_EQ would accept -0.0 == +0.0).
void ExpectSameBits(Scalar a, Scalar b, const char* what, int where) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  EXPECT_EQ(ba, bb) << what << " lane/index " << where << ": " << a
                    << " vs " << b;
}

Dataset RandomRows(Index n, int dim, uint64_t seed) {
  Rng rng(seed);
  Dataset d(dim);
  std::vector<Scalar> row(dim);
  for (Index i = 0; i < n; ++i) {
    for (auto& v : row) v = rng.Uniform(-50.0, 50.0);
    d.Append(row);
  }
  return d;
}

// Tiles of every row of `rows`, in row order.
SoaBlock AllRowsBlock(const Dataset& rows) {
  IndexList all(static_cast<size_t>(rows.size()));
  for (Index i = 0; i < rows.size(); ++i) all[static_cast<size_t>(i)] = i;
  SoaBlock block;
  block.GatherRows(rows, all);
  return block;
}

// The norms the tile path must reproduce bit for bit: the two with ISA
// kernels, and two that run LpDistance's general pow loop per lane.
constexpr double kNorms[] = {2.0, 1.0, 3.0, 1.5};

std::vector<Scalar> RandomQuery(int dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<Scalar> q(dim);
  for (auto& v : q) v = rng.Uniform(-50.0, 50.0);
  return q;
}

TEST(SimdDispatchTest, ScalarIsAlwaysAvailableAndListedFirst) {
  const auto isas = AvailableSimdIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), SimdIsa::kScalar);
  ASSERT_NE(SimdOpsFor(SimdIsa::kScalar), nullptr);
  EXPECT_STREQ(SimdOpsFor(SimdIsa::kScalar)->name, "scalar");
}

TEST(SimdDispatchTest, ActiveOpsComeFromAnAvailableIsa) {
  const SimdKernelOps* active = ActiveSimdOps();
  ASSERT_NE(active, nullptr);
  bool found = false;
  for (SimdIsa isa : AvailableSimdIsas()) {
    if (SimdOpsFor(isa) == active) {
      found = true;
      EXPECT_EQ(isa, ActiveSimdIsa());
      EXPECT_STREQ(SimdIsaName(isa), active->name);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SimdDispatchTest, EveryAvailableIsaHasOpsAndAName) {
  for (SimdIsa isa : AvailableSimdIsas()) {
    const SimdKernelOps* ops = SimdOpsFor(isa);
    ASSERT_NE(ops, nullptr) << SimdIsaName(isa);
    EXPECT_NE(ops->tile_squared_l2, nullptr) << SimdIsaName(isa);
    EXPECT_NE(ops->tile_l1, nullptr) << SimdIsaName(isa);
    EXPECT_NE(ops->tile_dot, nullptr) << SimdIsaName(isa);
    EXPECT_STREQ(ops->name, SimdIsaName(isa));
  }
}

// The ALID_SIMD pin this process runs under, or nullptr when the variable is
// unset, empty or "auto" and dispatch is free.
const char* SimdPin() {
  const char* pin = std::getenv("ALID_SIMD");
  if (pin == nullptr || *pin == '\0' || std::string(pin) == "auto") {
    return nullptr;
  }
  return pin;
}

TEST(SimdDispatchTest, EnvPinSelectsANamedAvailableIsaElseScalar) {
  // The CI legs rerun this binary under ALID_SIMD=scalar and under the
  // retired ALID_SIMD=avx512. A pin that names an available ISA is active;
  // any other pin resolves to scalar, never to a different vector path. An
  // unpinned run leaves dispatch free, and the test asserts nothing.
  const char* pin = SimdPin();
  if (pin == nullptr) return;
  SimdIsa want = SimdIsa::kScalar;
  for (SimdIsa isa : AvailableSimdIsas()) {
    if (std::string(pin) == SimdIsaName(isa)) want = isa;
  }
  EXPECT_EQ(ActiveSimdIsa(), want) << "ALID_SIMD=" << pin;
  EXPECT_EQ(ActiveSimdOps(), SimdOpsFor(want)) << "ALID_SIMD=" << pin;
}

TEST(SimdDispatchTest, AnAvx2CpuRunsTheAvx2Path) {
  // AVX2 is the one x86 vector path. Were kernel_avx2.cc built without
  // -mavx2 it would compile to a nullptr accessor: every bit-identity test
  // would stay green on the scalar path while hashing ran several times
  // slower.
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2") == 0) {
    GTEST_SKIP() << "the CPU reports no AVX2";
  }
  EXPECT_NE(SimdOpsFor(SimdIsa::kAvx2), nullptr);
  if (SimdPin() == nullptr) {
    EXPECT_EQ(ActiveSimdIsa(), SimdIsa::kAvx2);
  }
#else
  GTEST_SKIP() << "not an x86-64 build";
#endif
}

TEST(SimdDispatchTest, ScopedOverridePinsAndRestores) {
  const SimdIsa before = ActiveSimdIsa();
  {
    ScopedSimdIsaOverride pin(SimdIsa::kScalar);
    EXPECT_EQ(ActiveSimdIsa(), SimdIsa::kScalar);
    EXPECT_EQ(ActiveSimdOps(), SimdOpsFor(SimdIsa::kScalar));
  }
  EXPECT_EQ(ActiveSimdIsa(), before);
}

TEST(SoaBlockTest, TilesAreDimensionMajorWithZeroPaddedTail) {
  const int dim = 5;
  const Index n = 11;  // 1 full tile + 3 live lanes in the second
  Dataset rows = RandomRows(n, dim, 7);
  SoaBlock block;
  block.GatherRows(rows, [] {
    IndexList all;
    for (Index i = 0; i < 11; ++i) all.push_back(i);
    return all;
  }());
  ASSERT_EQ(block.count(), n);
  ASSERT_EQ(block.dim(), dim);
  ASSERT_EQ(block.num_tiles(), 2);
  for (Index t = 0; t < block.num_tiles(); ++t) {
    const Scalar* tile = block.tile(t);
    for (int k = 0; k < dim; ++k) {
      for (int l = 0; l < kSimdTileLanes; ++l) {
        const Index member = t * kSimdTileLanes + l;
        const Scalar want = member < n ? rows[member][k] : 0.0;
        ExpectSameBits(tile[k * kSimdTileLanes + l], want, "tile layout",
                       k * kSimdTileLanes + l);
      }
    }
  }
}

TEST(SoaBlockTest, CopyRowRoundTripsEveryMemberBitForBit) {
  const int dim = 7;
  const Index n = 2 * kSimdTileLanes + 3;  // a ragged final tile
  Dataset rows = RandomRows(n, dim, 19);
  const SoaBlock block = AllRowsBlock(rows);
  ASSERT_EQ(block.num_tiles(), 3);
  std::vector<Scalar> out(static_cast<size_t>(dim));
  for (Index i = 0; i < n; ++i) {
    block.CopyRow(i, out.data());
    for (int k = 0; k < dim; ++k) {
      ExpectSameBits(out[static_cast<size_t>(k)], rows[i][k], "CopyRow",
                     static_cast<int>(i) * dim + k);
    }
  }
}

// Every compiled-in ISA's tile kernels must produce bit-identical outputs to
// the scalar ops AND to the row-major reference accumulation, across odd
// dimensions and ragged final tiles — and tile_dot across every tile count
// that exercises a different mix of side-by-side tile groups.
TEST(SimdKernelTest, TileKernelsBitIdenticalToScalarReference) {
  for (const int dim : {1, 7, 16, 64, 128}) {
    for (const int num_tiles : {1, 2, 3, 4, 5, 6, 7, 12}) {
      const int lanes = num_tiles * kSimdTileLanes;
      Rng rng(500 + dim * 13 + num_tiles);
      std::vector<Scalar> tiles(static_cast<size_t>(lanes) * dim);
      for (auto& v : tiles) v = rng.Gaussian();
      const std::vector<Scalar> x = RandomQuery(dim, 700 + dim);
      // Row-major reference: each lane's dot product from 0.0 in ascending
      // dimension order, separate multiply and add — the p-stable
      // projection loop tile_dot replaces.
      std::vector<Scalar> ref(static_cast<size_t>(lanes));
      for (int j = 0; j < lanes; ++j) {
        const Scalar* lane =
            tiles.data() +
            static_cast<size_t>(j / kSimdTileLanes) * dim * kSimdTileLanes +
            j % kSimdTileLanes;
        Scalar dot = 0.0;
        for (int k = 0; k < dim; ++k) {
          dot += lane[static_cast<size_t>(k) * kSimdTileLanes] * x[k];
        }
        ref[static_cast<size_t>(j)] = dot;
      }
      for (SimdIsa isa : AvailableSimdIsas()) {
        std::vector<Scalar> out(static_cast<size_t>(lanes));
        SimdOpsFor(isa)->tile_dot(tiles.data(), num_tiles, dim, x.data(),
                                  out.data());
        SCOPED_TRACE(testing::Message()
                     << "tile_dot isa=" << SimdIsaName(isa) << " dim=" << dim
                     << " tiles=" << num_tiles);
        for (int j = 0; j < lanes; ++j) {
          ExpectSameBits(out[static_cast<size_t>(j)],
                         ref[static_cast<size_t>(j)], "tile_dot", j);
        }
      }
    }
  }

  for (const int dim : {1, 3, 8, 17}) {
    for (const Index n : {1, 7, 8, 9, 24, 29}) {
      Dataset rows = RandomRows(n, dim, 100 + dim * 31 + n);
      const std::vector<Scalar> query = RandomQuery(dim, 900 + n);
      const SoaBlock block = AllRowsBlock(rows);
      for (Index t = 0; t < block.num_tiles(); ++t) {
        // Row-major reference: ascending-dimension separate subtract /
        // multiply / add, exactly the Dataset::SquaredL2 loop (the whole
        // build compiles with -ffp-contract=off, this test included).
        Scalar ref_sq[kSimdTileLanes] = {0};
        Scalar ref_l1[kSimdTileLanes] = {0};
        for (int l = 0; l < kSimdTileLanes; ++l) {
          const Index member = t * kSimdTileLanes + l;
          if (member >= n) continue;
          Scalar acc2 = 0.0, acc1 = 0.0;
          for (int k = 0; k < dim; ++k) {
            const Scalar diff = rows[member][k] - query[k];
            acc2 += diff * diff;
            acc1 += std::abs(diff);
          }
          ref_sq[l] = acc2;
          ref_l1[l] = acc1;
        }
        for (SimdIsa isa : AvailableSimdIsas()) {
          const SimdKernelOps* ops = SimdOpsFor(isa);
          Scalar out_sq[kSimdTileLanes], out_l1[kSimdTileLanes];
          ops->tile_squared_l2(block.tile(t), dim, query.data(), out_sq);
          ops->tile_l1(block.tile(t), dim, query.data(), out_l1);
          SCOPED_TRACE(testing::Message()
                       << "isa=" << SimdIsaName(isa) << " dim=" << dim
                       << " n=" << n << " tile=" << t);
          for (int l = 0; l < kSimdTileLanes; ++l) {
            if (t * kSimdTileLanes + l >= n) continue;
            ExpectSameBits(out_sq[l], ref_sq[l], "squared_l2", l);
            ExpectSameBits(out_l1[l], ref_l1[l], "l1", l);
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, TileDistancesBitIdenticalToLpDistance) {
  const int dim = 9;
  const Index n = 21;
  Dataset rows = RandomRows(n, dim, 41);
  const std::vector<Scalar> query = RandomQuery(dim, 42);
  const SoaBlock block = AllRowsBlock(rows);
  for (const double p : kNorms) {
    for (SimdIsa isa : AvailableSimdIsas()) {
      const SimdKernelOps* ops = SimdOpsFor(isa);
      for (Index t = 0; t < block.num_tiles(); ++t) {
        Scalar out[kSimdTileLanes];
        TileDistances(*ops, block, t, query.data(), p, out);
        for (int l = 0; l < kSimdTileLanes; ++l) {
          const Index member = t * kSimdTileLanes + l;
          if (member >= n) continue;
          SCOPED_TRACE(testing::Message() << "isa=" << SimdIsaName(isa)
                                          << " p=" << p << " member="
                                          << member);
          ExpectSameBits(out[l], LpDistance(rows[member], query, p),
                         "TileDistances", l);
        }
      }
    }
  }
}

TEST(SimdKernelTest, GatheredDistancesBitIdenticalToDatasetDistanceTo) {
  const int dim = 12;
  Dataset rows = RandomRows(64, dim, 77);
  const std::vector<Scalar> query = RandomQuery(dim, 78);
  // An arbitrary non-contiguous gather with duplicates and a ragged tail.
  const IndexList items{3, 60, 7, 7, 0, 31, 12, 45, 63, 2, 18};
  for (const double p : kNorms) {
    for (SimdIsa isa : AvailableSimdIsas()) {
      std::vector<Scalar> out(items.size());
      GatheredDistances(*SimdOpsFor(isa), rows, items, query, p, out.data());
      for (size_t i = 0; i < items.size(); ++i) {
        SCOPED_TRACE(testing::Message() << "isa=" << SimdIsaName(isa)
                                        << " p=" << p << " i=" << i);
        ExpectSameBits(out[i], rows.DistanceTo(items[i], query, p),
                       "GatheredDistances", static_cast<int>(i));
      }
    }
  }
}

TEST(SimdKernelTest, WeightedKernelSumBitIdenticalToScalarLoop) {
  const int dim = 10;
  const Index n = 19;
  Dataset rows = RandomRows(n, dim, 55);
  const std::vector<Scalar> query = RandomQuery(dim, 56);
  Rng rng(57);
  std::vector<Scalar> weights(n);
  for (auto& w : weights) w = rng.Uniform(0.0, 1.0);
  const SoaBlock block = AllRowsBlock(rows);
  for (const double p : kNorms) {
    AffinityFunction fn({.k = 0.37, .p = p});
    // The member-order serial accumulation of the row-major scalar path.
    Scalar want = 0.0;
    for (Index i = 0; i < n; ++i) {
      want += weights[i] * fn.FromDistance(rows.DistanceTo(i, query, p));
    }
    for (SimdIsa isa : AvailableSimdIsas()) {
      const Scalar got =
          SoaWeightedKernelSum(*SimdOpsFor(isa), block, weights, fn,
                               query.data());
      SCOPED_TRACE(testing::Message() << "isa=" << SimdIsaName(isa)
                                      << " p=" << p);
      ExpectSameBits(got, want, "SoaWeightedKernelSum", 0);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end bit-identity across ISA paths.

LabeledData Workload(Index n = 420, uint64_t seed = 91) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 10;
  cfg.num_clusters = 4;
  cfg.omega = 0.6;
  cfg.mean_box = 300.0;
  // Overlapping clusters put arrivals in LSH reach of losing candidates.
  cfg.overlap_clusters = true;
  cfg.seed = seed;
  return MakeSynthetic(cfg);
}

OnlineAlidOptions StreamOptions(const LabeledData& data) {
  OnlineAlidOptions opts;
  opts.affinity = {.k = data.suggested_k, .p = 2.0};
  opts.lsh.segment_length = data.suggested_lsh_r;
  opts.refresh_interval = 96;
  return opts;
}

// The shuffled dataset followed by `probes` near-miss arrivals — jittered
// copies of data rows, some of which collide with a cluster's LSH buckets
// while scoring far below its absorb threshold (same mix as
// snapshot_export_test's streams).
std::vector<Scalar> ArrivalMix(const LabeledData& data, Index probes) {
  const int dim = data.data.dim();
  Rng rng(5);
  std::vector<Scalar> flat;
  for (Index i : rng.Permutation(data.size())) {
    const auto row = data.data[i];
    flat.insert(flat.end(), row.begin(), row.end());
  }
  for (Index q = 0; q < probes; ++q) {
    const auto row =
        data.data[static_cast<Index>(rng.UniformInt(0, data.size() - 1))];
    const double magnitude = (1 << (q % 5)) * 0.5;  // 0.5x .. 8x jitter
    for (int d = 0; d < dim; ++d) {
      flat.push_back(row[d] + rng.Gaussian() * magnitude);
    }
  }
  return flat;
}

std::unique_ptr<OnlineAlid> RunStream(const LabeledData& data,
                                      const OnlineAlidOptions& opts,
                                      Index batch,
                                      const std::vector<Scalar>& flat) {
  const int dim = data.data.dim();
  auto online = std::make_unique<OnlineAlid>(dim, opts);
  const Index count = static_cast<Index>(flat.size()) / dim;
  for (Index begin = 0; begin < count; begin += batch) {
    const Index size = std::min<Index>(batch, count - begin);
    online->InsertBatch(std::span<const Scalar>(
        flat.data() + static_cast<size_t>(begin) * dim,
        static_cast<size_t>(size) * dim));
  }
  online->Refresh();
  return online;
}

void ExpectIdenticalStreams(const OnlineAlid& a, const OnlineAlid& b) {
  DetectionResult da, db;
  da.clusters = a.clusters();
  db.clusters = b.clusters();
  ExpectIdenticalDetections(da, db);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.alive(), b.alive());
  const StreamStats& sa = a.stats();
  const StreamStats& sb = b.stats();
  EXPECT_EQ(sa.arrivals, sb.arrivals);
  EXPECT_EQ(sa.absorbed, sb.absorbed);
  EXPECT_EQ(sa.pooled, sb.pooled);
  EXPECT_EQ(sa.evicted, sb.evicted);
  EXPECT_EQ(sa.redetections, sb.redetections);
  EXPECT_EQ(sa.clusters_born, sb.clusters_born);
  EXPECT_EQ(sa.clusters_dissolved, sb.clusters_dissolved);
}

// The tentpole's headline contract: a stream run entirely on the scalar
// oracle path and a stream run on the dispatched vector path make the same
// absorb/pool/evict decisions, produce the same clusters (weights and
// densities bit-equal).
TEST(SimdStreamTest, StreamBitIdenticalAcrossIsaPaths) {
  LabeledData data = Workload();
  const std::vector<Scalar> flat = ArrivalMix(data, 120);
  const Index batch = 37;

  for (const Index window : {Index{0}, Index{260}}) {
    OnlineAlidOptions opts = StreamOptions(data);
    opts.window = window;  // 260: evictions + repairs happen mid-stream

    std::unique_ptr<OnlineAlid> scalar;
    {
      ScopedSimdIsaOverride pin(SimdIsa::kScalar);
      scalar = RunStream(data, opts, batch, flat);
    }
    ASSERT_GT(scalar->clusters().size(), 0u);

    for (SimdIsa isa : AvailableSimdIsas()) {
      ScopedSimdIsaOverride pin(isa);
      std::unique_ptr<OnlineAlid> vec = RunStream(data, opts, batch, flat);
      SCOPED_TRACE(testing::Message()
                   << "isa=" << SimdIsaName(isa) << " window=" << window);
      ExpectIdenticalStreams(*scalar, *vec);
      for (Index i = 0; i < scalar->size(); ++i) {
        ASSERT_EQ(scalar->IsAlive(i), vec->IsAlive(i)) << "slot " << i;
        ASSERT_EQ(scalar->ClusterOf(i), vec->ClusterOf(i)) << "slot " << i;
      }
    }
  }
}

// Flat serve query mix: jittered data rows sweeping through the
// collide-but-fail band (between "absorbs" and "no LSH collision at all"),
// with far-off uniform noise mixed in.
std::vector<Scalar> ServeQueries(const LabeledData& data, int count) {
  const int dim = data.data.dim();
  Rng rng(11);
  std::vector<Scalar> queries;
  for (int q = 0; q < count; ++q) {
    if (q % 6 == 5) {
      for (int d = 0; d < dim; ++d) {
        queries.push_back(rng.Uniform(-900.0, 900.0));
      }
    } else {
      const auto row =
          data.data[static_cast<Index>(rng.UniformInt(0, data.size() - 1))];
      const double magnitude = 2.0 * (q % 5);  // 0, 2, 4, 6, 8
      for (int d = 0; d < dim; ++d) {
        queries.push_back(row[d] + rng.Gaussian() * magnitude);
      }
    }
  }
  return queries;
}

void ExpectSameOutcome(const QueryOutcome& a, const QueryOutcome& b,
                       Index q) {
  EXPECT_EQ(a.cluster, b.cluster) << "query " << q;
  ExpectSameBits(a.affinity, b.affinity, "affinity", static_cast<int>(q));
  ExpectSameBits(a.margin, b.margin, "margin", static_cast<int>(q));
}

TEST(SimdServeTest, AssignAndTopKBitIdenticalAcrossIsaPaths) {
  LabeledData data = Workload(460, 23);
  auto online =
      RunStream(data, StreamOptions(data), 37, ArrivalMix(data, 0));
  const auto snap = ClusterSnapshot::FromStream(*online);
  ASSERT_GT(snap->num_clusters(), 1);
  const int dim = data.data.dim();
  const std::vector<Scalar> queries = ServeQueries(data, 300);
  const Index count = static_cast<Index>(queries.size()) / dim;

  std::vector<QueryOutcome> expected(count);
  std::vector<std::vector<ScoredCluster>> expected_topk(count);
  {
    ScopedSimdIsaOverride pin(SimdIsa::kScalar);
    for (Index q = 0; q < count; ++q) {
      const std::span<const Scalar> point(queries.data() + q * dim, dim);
      expected[q] = snap->Assign(point);
      expected_topk[q] = snap->TopKClusters(point, 3);
    }
  }

  for (SimdIsa isa : AvailableSimdIsas()) {
    ScopedSimdIsaOverride pin(isa);
    SCOPED_TRACE(testing::Message() << "isa=" << SimdIsaName(isa));
    for (Index q = 0; q < count; ++q) {
      const std::span<const Scalar> point(queries.data() + q * dim, dim);
      ExpectSameOutcome(snap->Assign(point), expected[q], q);
      const auto topk = snap->TopKClusters(point, 3);
      ASSERT_EQ(topk.size(), expected_topk[q].size()) << "query " << q;
      for (size_t r = 0; r < topk.size(); ++r) {
        EXPECT_EQ(topk[r].cluster, expected_topk[q][r].cluster)
            << "query " << q << " rank " << r;
        ExpectSameBits(topk[r].affinity, expected_topk[q][r].affinity,
                       "topk affinity", static_cast<int>(r));
        EXPECT_EQ(topk[r].absorbable, expected_topk[q][r].absorbable)
            << "query " << q << " rank " << r;
      }
    }
  }
}

}  // namespace
}  // namespace alid

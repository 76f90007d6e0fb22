// Shard-parallel ingest & serve: hash-partitioned intra-process shards
// (src/shard/) at fixed total work.
//
// Sweeps shard count S in {1, 2, 4, 8} x executors {1, 8} over the SAME
// arrival stream: every configuration ingests identical bytes, so the wall
// columns isolate what sharding buys — S independent ingest pipelines whose
// serial phases overlap on the pool. The S >= 4 sweeps are marked
// gate_speedup (the 1-executor row is the serial no-pool baseline); the
// S = 1 rows double as the overhead control, and the record carries
// shard_s1_overhead_ratio — min-wall S=1 sharded over min-wall plain
// OnlineAlid — which CI pins at <= 1.05 (the S == 1 fast path must stay a
// pure delegation).
//
// After the sweep, one router phase at S = 4 publishes the sharded
// snapshot bundle, fans out an assignment and a top-k query batch, times
// 2000 single-point requests (router_single_query_us_p50, reported, not
// gated), and emits the boundary-cluster report; the router's registry
// fields (incl. the CI-gated shard_fanout_queries counter) embed in the
// record.
#include "bench_util.h"
#include "registry.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/online_alid.h"
#include "data/synthetic.h"
#include "shard/shard_router.h"
#include "shard/sharded_stream.h"

namespace alid::bench {
namespace {

struct ShardRow {
  int shards = 1;
  int executors = 1;
  double wall_seconds = 0.0;
  double speedup = 0.0;  // vs the 1-executor row of the same S
  double items_per_second = 0.0;
  double p50_batch_seconds = 0.0;
  double p95_batch_seconds = 0.0;
  int64_t arrivals = 0;
  int64_t absorbed = 0;
  int64_t evicted = 0;
  int64_t hot_shard_arrivals = 0;   // max per-shard arrivals (skew)
  int64_t cold_shard_arrivals = 0;  // min per-shard arrivals
  int clusters = 0;
  bool gated = false;
};

OnlineAlidOptions BaseOptions(const LabeledData& data, Index window) {
  OnlineAlidOptions opts;
  opts.affinity = {.k = data.suggested_k, .p = 2.0};
  opts.lsh.segment_length = data.suggested_lsh_r;
  // Short enough that every shard's slice of the stream detects its
  // clusters early and later arrivals take the absorb hot path — the
  // interval is per-shard arrivals, so high S slows the per-shard clock.
  opts.refresh_interval = 64;
  opts.window = window;
  return opts;
}

std::vector<Scalar> ArrivalStream(const LabeledData& data) {
  Rng rng(17);
  const std::vector<Index> order = rng.Permutation(data.size());
  std::vector<Scalar> flat;
  flat.reserve(static_cast<size_t>(data.size()) * data.data.dim());
  for (Index i : order) {
    const auto row = data.data[i];
    flat.insert(flat.end(), row.begin(), row.end());
  }
  return flat;
}

double PlainIngestWall(const LabeledData& data,
                       const std::vector<Scalar>& arrivals, Index batch,
                       Index window) {
  OnlineAlid online(data.data.dim(), BaseOptions(data, window));
  const int dim = data.data.dim();
  const Index count = static_cast<Index>(arrivals.size()) / dim;
  WallTimer timer;
  for (Index begin = 0; begin < count; begin += batch) {
    const Index size = std::min<Index>(batch, count - begin);
    online.InsertBatch(std::span<const Scalar>(
        arrivals.data() + static_cast<size_t>(begin) * dim,
        static_cast<size_t>(size) * dim));
  }
  online.Refresh();
  return timer.Seconds();
}

// Builds (or rebuilds) one sharded stream over the arrival sequence and
// fills a sweep row. `out` (optional) receives the finished stream for the
// router phase.
ShardRow RunSharded(const LabeledData& data,
                    const std::vector<Scalar>& arrivals, Index batch,
                    Index window, int shards, int executors,
                    std::unique_ptr<ShardedStream>* out = nullptr,
                    std::unique_ptr<ThreadPool>* pool_out = nullptr) {
  ShardRow row;
  row.shards = shards;
  row.executors = executors;

  std::unique_ptr<ThreadPool> pool;
  if (executors > 1) pool = std::make_unique<ThreadPool>(executors);

  ShardedStreamOptions opts;
  opts.base = BaseOptions(data, window);
  opts.base.pool = pool.get();
  opts.num_shards = shards;
  auto stream = std::make_unique<ShardedStream>(data.data.dim(), opts);

  const int dim = data.data.dim();
  const Index count = static_cast<Index>(arrivals.size()) / dim;
  std::vector<double> batch_seconds;
  WallTimer timer;
  for (Index begin = 0; begin < count; begin += batch) {
    const Index size = std::min<Index>(batch, count - begin);
    WallTimer batch_timer;
    stream->InsertBatch(std::span<const Scalar>(
        arrivals.data() + static_cast<size_t>(begin) * dim,
        static_cast<size_t>(size) * dim));
    batch_seconds.push_back(batch_timer.Seconds());
  }
  stream->Refresh();
  row.wall_seconds = timer.Seconds();

  const StreamStats stats = stream->stats();
  row.arrivals = stats.arrivals;
  row.items_per_second =
      row.wall_seconds > 0.0
          ? static_cast<double>(stats.arrivals) / row.wall_seconds
          : 0.0;
  row.p50_batch_seconds = Percentile(batch_seconds, 0.50);
  row.p95_batch_seconds = Percentile(batch_seconds, 0.95);
  row.absorbed = stats.absorbed;
  row.evicted = stats.evicted;
  row.clusters = stats.clusters_alive;
  for (int s = 0; s < shards; ++s) {
    const int64_t size = static_cast<int64_t>(stream->shard(s).size());
    row.hot_shard_arrivals = std::max(row.hot_shard_arrivals, size);
    row.cold_shard_arrivals =
        s == 0 ? size : std::min(row.cold_shard_arrivals, size);
  }
  if (out != nullptr) *out = std::move(stream);
  if (pool_out != nullptr) *pool_out = std::move(pool);
  return row;
}

void PrintRow(const ShardRow& r) {
  std::printf("%-7d %-6d %-9.3f %-9.2f %-9.1f %-10.4f %-10.4f %-8lld "
              "%-8lld %-9lld %-9lld %-9d\n",
              r.shards, r.executors, r.wall_seconds, r.speedup,
              r.items_per_second, r.p50_batch_seconds, r.p95_batch_seconds,
              static_cast<long long>(r.absorbed),
              static_cast<long long>(r.evicted),
              static_cast<long long>(r.hot_shard_arrivals),
              static_cast<long long>(r.cold_shard_arrivals), r.clusters);
}

void Run(BenchContext& ctx) {
  std::printf("Sharded ingest: shard count x executors at fixed total work "
              "(scale %.2f)\n", ctx.scale());
  SyntheticConfig cfg;
  cfg.n = ctx.Scaled(1600);
  cfg.dim = 16;
  cfg.num_clusters = 8;
  cfg.omega = 0.6;
  cfg.mean_box = 400.0;
  cfg.overlap_clusters = false;
  cfg.seed = 1005;
  LabeledData data = MakeSynthetic(cfg);
  const Index batch = 256;
  const Index window = ctx.Scaled(900);
  const std::vector<Scalar> arrivals = ArrivalStream(data);
  std::printf("n=%d arrivals, dim=%d, batch=%d, window=%d\n", data.size(),
              cfg.dim, batch, window);

  // S = 1 overhead control, serial on both sides (min of 3 — the
  // noise-robust estimator on shared runners). The sharded wrapper at
  // S == 1 delegates straight to one OnlineAlid, so the ratio measures
  // pure wrapper cost; CI pins it <= 1.05.
  double plain_wall = PlainIngestWall(data, arrivals, batch, window);
  double s1_wall =
      RunSharded(data, arrivals, batch, window, 1, 1).wall_seconds;
  for (int i = 0; i < 2; ++i) {
    plain_wall =
        std::min(plain_wall, PlainIngestWall(data, arrivals, batch, window));
    s1_wall = std::min(
        s1_wall,
        RunSharded(data, arrivals, batch, window, 1, 1).wall_seconds);
  }
  const double overhead_ratio =
      plain_wall > 0.0 ? s1_wall / plain_wall : 1.0;
  std::printf("S=1 overhead: plain %.3fs vs sharded %.3fs (x%.4f)\n",
              plain_wall, s1_wall, overhead_ratio);

  PrintHeader("shard sweep (identical arrival bytes per configuration)");
  std::printf("%-7s %-6s %-9s %-9s %-9s %-10s %-10s %-8s %-8s %-9s %-9s "
              "%-9s\n",
              "shards", "execs", "wall(s)", "speedup", "items/s", "p50(s)",
              "p95(s)", "absorb", "evict", "hot", "cold", "clusters");
  std::vector<ShardRow> rows;
  std::unique_ptr<ShardedStream> served;
  std::unique_ptr<ThreadPool> served_pool;
  for (int shards : {1, 2, 4, 8}) {
    double base_wall = 0.0;
    for (int executors : {1, 8}) {
      const bool keep = shards == 4 && executors == 8;
      ShardRow row =
          RunSharded(data, arrivals, batch, window, shards, executors,
                     keep ? &served : nullptr, keep ? &served_pool : nullptr);
      if (executors == 1) {
        base_wall = row.wall_seconds;
        row.speedup = 1.0;
      } else {
        row.speedup = row.wall_seconds > 0.0 && base_wall > 0.0
                          ? base_wall / row.wall_seconds
                          : 0.0;
      }
      // Only the S >= 4 sweeps carry the 2x CI ratio gate: sharding is the
      // axis under test, and two shards cannot promise 2x wall.
      row.gated = shards >= 4;
      PrintRow(row);
      rows.push_back(row);
    }
  }

  // Router phase on the S=4 pooled stream: one sharded publish, an
  // assignment fan-out, a top-k fan-out, and the boundary report.
  ShardRouter router(data.data.dim(), 4, {.pool = served_pool.get()});
  WallTimer publish_timer;
  const uint64_t generation = router.PublishFromStream(*served);
  const double publish_seconds = publish_timer.Seconds();
  const Index num_queries = std::min<Index>(data.size(), 400);
  std::vector<Scalar> queries;
  for (Index i = 0; i < num_queries; ++i) {
    const auto row = data.data[i];
    queries.insert(queries.end(), row.begin(), row.end());
  }
  WallTimer query_timer;
  const QueryResponse assigned = router.Query({.points = queries});
  const double query_wall = query_timer.Seconds();
  const QueryResponse ranked = router.Query({.points = queries, .top_k = 3});
  // Single-point requests, alternating assignment and top-3: the per-request
  // cost of the fan-out (one hash per point, every shard scored).
  const int single_requests = 2000;
  std::vector<double> single_us;
  single_us.reserve(single_requests);
  for (int r = 0; r < single_requests; ++r) {
    const Index q = static_cast<Index>(r) % num_queries;
    const std::span<const Scalar> point(
        queries.data() + static_cast<size_t>(q) * cfg.dim,
        static_cast<size_t>(cfg.dim));
    WallTimer single_timer;
    const QueryResponse single =
        router.Query({.points = point, .top_k = r % 2 == 0 ? 0 : 3});
    single_us.push_back(single_timer.Seconds() * 1e6);
    if (!single.ok()) std::printf("router: single request %d failed\n", r);
  }
  const double single_p50_us = Percentile(single_us, 0.50);
  int64_t assigned_points = 0;
  for (const QueryOutcome& a : assigned.assignments) {
    assigned_points += a.cluster >= 0 ? 1 : 0;
  }
  const std::vector<BoundaryPair> boundary =
      router.BoundaryClusters(BaseOptions(data, window).affinity);
  Scalar max_cross = 0.0;
  for (const BoundaryPair& pair : boundary) {
    max_cross = std::max(max_cross, pair.cross_density);
  }
  std::printf("router: generation %llu, %d/%d assigned, %d ranked batches, "
              "%zu boundary pairs (max cross density %.4f), single-point "
              "request p50 %.2f us\n",
              static_cast<unsigned long long>(generation),
              static_cast<int>(assigned_points), num_queries,
              static_cast<int>(ranked.ranked.size()), boundary.size(),
              max_cross, single_p50_us);

  std::printf("\nExpected shape: for a fixed S the state is bit-identical "
              "down the executor column (tests/shard_test.cc), so only wall "
              "time moves; S >= 4 with 8 executors overlaps the per-shard "
              "serial phases — the speedup the single-stream barrier "
              "pipeline cannot reach — while the S=1 rows stay within 5%% "
              "of the plain stream. hot/cold show the hash partition's "
              "natural skew; boundary pairs are the cross-shard cluster "
              "halves a reconciliation pass would merge.\n");

  std::string json;
  AppendF(json,
          "{\"bench\":\"shard\",\"n\":%d,\"dim\":%d,\"batch\":%d,"
          "\"window\":%d,\"plain_wall_seconds\":%.6f,"
          "\"s1_wall_seconds\":%.6f,\"shard_s1_overhead_ratio\":%.4f,"
          "\"publish_wall_seconds\":%.6f,\"query_wall_seconds\":%.6f,"
          "\"router_single_query_us_p50\":%.3f,"
          "\"assigned_points\":%lld,\"boundary_pairs\":%zu,"
          "\"boundary_max_cross_density\":%.6f,%s,\"rows\":[",
          data.size(), cfg.dim, batch, window, plain_wall, s1_wall,
          overhead_ratio, publish_seconds, query_wall, single_p50_us,
          static_cast<long long>(assigned_points), boundary.size(),
          max_cross, router.metrics().ToJsonFields().c_str());
  for (size_t i = 0; i < rows.size(); ++i) {
    const ShardRow& r = rows[i];
    AppendF(json,
            "%s{\"method\":\"sharded(S=%d)\",\"shards\":%d,"
            "\"executors\":%d,\"wall_seconds\":%.6f,\"speedup\":%.4f,"
            "\"items_per_second\":%.2f,\"p50_batch_seconds\":%.6f,"
            "\"p95_batch_seconds\":%.6f,\"ingest_p95_seconds\":%.6f,"
            "\"arrivals\":%lld,\"absorbed\":%lld,\"evicted\":%lld,"
            "\"hot_shard_arrivals\":%lld,\"cold_shard_arrivals\":%lld,"
            "\"clusters\":%d%s}",
            i == 0 ? "" : ",", r.shards, r.shards, r.executors,
            r.wall_seconds, r.speedup, r.items_per_second,
            r.p50_batch_seconds, r.p95_batch_seconds, r.p95_batch_seconds,
            static_cast<long long>(r.arrivals),
            static_cast<long long>(r.absorbed),
            static_cast<long long>(r.evicted),
            static_cast<long long>(r.hot_shard_arrivals),
            static_cast<long long>(r.cold_shard_arrivals), r.clusters,
            r.gated ? ",\"gate_speedup\":true" : "");
  }
  json += "]}";
  ctx.EmitJson(json);
}

ALID_BENCHMARK("shard", "runtime,shard,speedup", "shard", Run);

}  // namespace
}  // namespace alid::bench

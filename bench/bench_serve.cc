// Cluster-serving QPS/latency — the read side of the runtime: assignment
// queries against an immutable, LSH-accelerated ClusterSnapshot published
// through the server's RCU swap.
//
// The workload streams a bursty synthetic source through OnlineAlid, exports
// snapshots along the way, and then hammers the final snapshot with a mixed
// query stream (jittered cluster points + far noise). The sweep crosses
// query batch size {1, 64} with executors {1, 8} on one shared
// work-stealing pool and reports QPS and p50/p95/p99 per-query latency; a
// "swap" row re-runs the batched-parallel configuration while a publisher
// thread hot-swaps the intermediate snapshots underneath the readers — the
// snapshot-isolation cost under churn — and an "asof" row addresses a
// retained historical generation through the server's history ring (the
// generation-addressed time-travel path). Batched results are bit-identical
// across the executor axis (tests/serve_test.cc), so only the wall-clock
// columns move — on a 1-core host only scheduling columns do.
//
// Before the sweep, the candidate stage is timed in isolation on the final
// snapshot: query_hash_ns_p50 (QueryKeys per point) and query_mark_ns_p50
// (a keyed Assign on far-noise probes, which marks no cluster and scores
// none — the candidate-directory lookup alone).
//
// The last line is a single-line JSON record of the sweep for the bench
// trajectory (machine-readable, stable key names).
#include "bench_util.h"
#include "registry.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "common/random.h"
#include "core/online_alid.h"
#include "data/synthetic.h"
#include "obs/trace.h"
#include "serve/cluster_server.h"
#include "serve/cluster_snapshot.h"

namespace alid::bench {
namespace {

struct ServeRow {
  const char* mode;  // "steady", "swap" or "asof"
  Index batch;
  int executors;
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50_query_seconds = 0.0;
  double p95_query_seconds = 0.0;
  double p99_query_seconds = 0.0;
  double speedup = 0.0;  // vs the 1-executor row of the same (mode, batch)
  int64_t assigned = 0;
  int64_t unassigned = 0;
  int64_t swaps = 0;
  // The server's per-instance metrics registry as comma-joined JSON fields
  // (queries/assigned/publish and history gauges) — captured while
  // the server is alive; rows use a fresh server each, so the registry
  // totals ARE the row's deltas.
  std::string registry_fields;
};

// Runs the query workload against `server` (generation != 0 addresses a
// retained historical generation — the as-of path); per-call wall times
// divided by the call's batch size give the per-query latency profile.
ServeRow RunQueries(const ClusterServer& server,
                    const std::vector<Scalar>& queries, int dim, Index batch,
                    int executors, const char* mode,
                    uint64_t generation = 0) {
  ServeRow row;
  row.mode = mode;
  row.batch = batch;
  row.executors = executors;
  const Index count = static_cast<Index>(queries.size()) / dim;
  std::vector<double> latencies;
  latencies.reserve(static_cast<size_t>(count / batch) + 1);
  const std::span<const Scalar> all(queries);

  WallTimer wall;
  for (Index begin = 0; begin < count; begin += batch) {
    const Index size = std::min<Index>(batch, count - begin);
    WallTimer call;
    const QueryResponse response = server.Query(
        {.points = all.subspan(static_cast<size_t>(begin) * dim,
                               static_cast<size_t>(size) * dim),
         .generation = generation});
    for (const QueryOutcome& r : response.assignments) {
      row.assigned += r.cluster >= 0 ? 1 : 0;
    }
    latencies.push_back(call.Seconds() / static_cast<double>(size));
  }
  row.wall_seconds = wall.Seconds();
  row.unassigned = count - row.assigned;
  row.qps = row.wall_seconds > 0.0
                ? static_cast<double>(count) / row.wall_seconds
                : 0.0;
  row.p50_query_seconds = Percentile(latencies, 0.50);
  row.p95_query_seconds = Percentile(latencies, 0.95);
  row.p99_query_seconds = Percentile(latencies, 0.99);
  row.registry_fields = server.metrics().ToJsonFields();
  return row;
}

void PrintRow(const ServeRow& r) {
  std::printf("%-7s %-6d %-6d %-9.3f %-9.2f %-11.1f %-12.3e %-12.3e "
              "%-12.3e %-9lld %-7lld\n",
              r.mode, r.batch, r.executors, r.wall_seconds, r.speedup, r.qps,
              r.p50_query_seconds, r.p95_query_seconds, r.p99_query_seconds,
              static_cast<long long>(r.assigned),
              static_cast<long long>(r.swaps));
}

// Per-point costs of a query's candidate stage on `snapshot`, each the p50
// over batches of kLayerBatch calls (per-call timer overhead would rival
// the work):
//   hash_ns — QueryKeys, the point's bucket keys, over the query mix;
//   mark_ns — a keyed Assign with precomputed keys on far-noise probes that
//             share no bucket with any cluster, so it marks no candidate
//             and scores none: the directory lookup alone.
struct QueryLayerTimes {
  double hash_ns_p50 = 0.0;
  double mark_ns_p50 = 0.0;
  Index mark_probes = 0;  // far-noise probes that marked no cluster
};

// Row i of a row-major point matrix.
std::span<const Scalar> Row(const std::vector<Scalar>& flat, Index i, int dim) {
  return std::span<const Scalar>(flat).subspan(
      static_cast<size_t>(i) * static_cast<size_t>(dim),
      static_cast<size_t>(dim));
}

QueryLayerTimes TimeQueryLayers(const ClusterSnapshot& snapshot,
                                const std::vector<Scalar>& queries, int dim) {
  constexpr int kLayerBatch = 16;
  constexpr int kLayerSamples = 2000;
  constexpr int kProbeAttempts = 1024;
  const Index count = static_cast<Index>(queries.size()) / dim;
  const size_t tables = snapshot.QueryKeys(Row(queries, 0, dim)).size();
  QueryLayerTimes times;
  std::vector<double> per_point_ns;
  Index next = 0;
  for (int sample = 0; sample < kLayerSamples; ++sample) {
    WallTimer timer;
    for (int i = 0; i < kLayerBatch; ++i) {
      KeepAlive(snapshot.QueryKeys(Row(queries, next, dim))[0]);
      next = (next + 1) % count;
    }
    per_point_ns.push_back(timer.Seconds() * 1e9 / kLayerBatch);
  }
  times.hash_ns_p50 = Percentile(per_point_ns, 0.50);

  // Far-noise probes and their keys; a probe that lands in some cluster's
  // bucket would be scored, so it is dropped.
  std::vector<Scalar> probes;
  std::vector<uint64_t> probe_keys;
  std::vector<Scalar> point(static_cast<size_t>(dim));
  Rng rng(31);
  for (int attempt = 0; attempt < kProbeAttempts; ++attempt) {
    for (Scalar& v : point) v = rng.Uniform(-900.0, 900.0);
    const std::span<const uint64_t> keys = snapshot.QueryKeys(point);
    if (!snapshot.TopKClusters(point, keys, snapshot.num_clusters()).empty()) {
      continue;
    }
    probes.insert(probes.end(), point.begin(), point.end());
    probe_keys.insert(probe_keys.end(), keys.begin(), keys.end());
  }
  times.mark_probes = static_cast<Index>(probe_keys.size() / tables);
  if (times.mark_probes == 0) return times;
  per_point_ns.clear();
  next = 0;
  for (int sample = 0; sample < kLayerSamples; ++sample) {
    WallTimer timer;
    for (int i = 0; i < kLayerBatch; ++i) {
      const std::span<const uint64_t> keys =
          std::span<const uint64_t>(probe_keys)
              .subspan(static_cast<size_t>(next) * tables, tables);
      KeepAlive(snapshot.Assign(Row(probes, next, dim), keys).cluster);
      next = (next + 1) % times.mark_probes;
    }
    per_point_ns.push_back(timer.Seconds() * 1e9 / kLayerBatch);
  }
  times.mark_ns_p50 = Percentile(per_point_ns, 0.50);
  return times;
}

void EmitServeJson(BenchContext& ctx, const std::vector<ServeRow>& rows,
                   Index n, Index queries, int clusters, Index members,
                   double publish_p95_seconds, int64_t rows_reused,
                   int64_t clusters_reused, int64_t bytes_shared,
                   int64_t bytes_copied, int64_t history_ring_bytes,
                   double trace_base_seconds, double trace_wall_seconds,
                   double trace_overhead_ratio, const QueryLayerTimes& layers) {
  std::string json;
  AppendF(json,
          "{\"bench\":\"serve\",\"n\":%d,\"queries\":%d,"
          "\"clusters\":%d,\"members\":%d,"
          "\"publish_p95_seconds\":%.6f,\"rows_reused\":%lld,"
          "\"clusters_reused\":%lld,\"bytes_shared\":%lld,"
          "\"bytes_copied\":%lld,\"history_ring_bytes\":%lld,"
          "\"trace_base_seconds\":%.6f,\"trace_wall_seconds\":%.6f,"
          "\"trace_overhead_ratio\":%.4f,\"query_hash_ns_p50\":%.1f,"
          "\"query_mark_ns_p50\":%.1f,\"query_mark_probes\":%d,\"rows\":[",
          n, queries, clusters, members, publish_p95_seconds,
          static_cast<long long>(rows_reused),
          static_cast<long long>(clusters_reused),
          static_cast<long long>(bytes_shared),
          static_cast<long long>(bytes_copied),
          static_cast<long long>(history_ring_bytes), trace_base_seconds,
          trace_wall_seconds, trace_overhead_ratio, layers.hash_ns_p50,
          layers.mark_ns_p50, layers.mark_probes);
  // The wall/latency/derived keys are emitted by hand; the counter keys
  // (queries, assigned, publish ledger, history and pool gauges)
  // come from each row's embedded registry export — the manual list must
  // never overlap the registry's names (--schema-check rejects duplicates).
  for (size_t i = 0; i < rows.size(); ++i) {
    const ServeRow& r = rows[i];
    AppendF(
        json,
        "%s{\"mode\":\"%s\",\"batch\":%d,\"executors\":%d,"
        "\"wall_seconds\":%.6f,\"speedup\":%.4f,\"qps\":%.2f,"
        "\"p50_query_seconds\":%.9f,\"p95_query_seconds\":%.9f,"
        "\"p99_query_seconds\":%.9f,\"unassigned\":%lld,"
        "\"swaps\":%lld,%s}",
        i == 0 ? "" : ",", r.mode, r.batch, r.executors, r.wall_seconds,
        r.speedup, r.qps, r.p50_query_seconds, r.p95_query_seconds,
        r.p99_query_seconds, static_cast<long long>(r.unassigned),
        static_cast<long long>(r.swaps), r.registry_fields.c_str());
  }
  json += "]}";
  ctx.EmitJson(json);
}

void Run(BenchContext& ctx) {
  std::printf("Cluster serving: QPS / latency x batch x executors "
              "(scale %.2f)\n", ctx.scale());
  SyntheticConfig cfg;
  cfg.n = ctx.Scaled(1600);
  cfg.dim = 16;
  cfg.num_clusters = 4;
  cfg.omega = 0.6;
  cfg.mean_box = 300.0;
  cfg.overlap_clusters = false;
  cfg.seed = 907;
  LabeledData data = MakeSynthetic(cfg);
  Rng rng(23);
  const std::vector<Index> order = rng.Permutation(data.size());

  // Stream the source and export snapshots along the way: intermediate
  // states feed the swap-under-load row, the final state the steady rows.
  OnlineAlidOptions opts;
  opts.affinity = {.k = data.suggested_k, .p = 2.0};
  opts.lsh.segment_length = data.suggested_lsh_r;
  opts.refresh_interval = 256;
  OnlineAlid online(data.data.dim(), opts);
  const int dim = data.data.dim();
  std::vector<std::shared_ptr<const ClusterSnapshot>> snapshots;
  std::vector<double> publish_seconds;
  int64_t rows_reused = 0;
  int64_t clusters_reused = 0;
  int64_t bytes_shared = 0;
  int64_t bytes_copied = 0;
  const auto publish = [&] {
    WallTimer publish_timer;
    // Chained incremental export — the production ingest->publish loop:
    // each generation *shares* the arena blocks of every cluster the batch
    // left untouched (a refcount bump, no copy).
    snapshots.push_back(ClusterSnapshot::FromStream(
        online, nullptr, snapshots.empty() ? nullptr : snapshots.back()));
    publish_seconds.push_back(publish_timer.Seconds());
    rows_reused += snapshots.back()->build_info().rows_reused;
    clusters_reused += snapshots.back()->build_info().clusters_reused;
    bytes_shared += snapshots.back()->build_info().bytes_shared;
    bytes_copied += snapshots.back()->build_info().bytes_copied;
  };
  std::vector<Scalar> flat;
  for (Index pos = 0; pos < data.size(); ++pos) {
    const auto point = data.data[order[pos]];
    flat.insert(flat.end(), point.begin(), point.end());
    if (static_cast<Index>(flat.size()) == 256 * dim) {
      online.InsertBatch(flat);
      flat.clear();
      online.Refresh();
      publish();
    }
  }
  if (!flat.empty()) online.InsertBatch(flat);
  online.Refresh();
  publish();
  // Steady-state tail: localized batches (jittered members of one planted
  // burst) leave most clusters untouched between publishes — the regime
  // where the incremental export pays O(changed clusters), not O(window).
  {
    Rng jitter(99);
    const IndexList& burst = data.true_clusters.front();
    for (int round = 0; round < 6; ++round) {
      flat.clear();
      for (int q = 0; q < 64; ++q) {
        const auto row = data.data[burst[static_cast<size_t>(
            jitter.UniformInt(0, static_cast<int>(burst.size()) - 1))]];
        for (int d = 0; d < dim; ++d) {
          flat.push_back(row[d] + jitter.Gaussian() * 0.05);
        }
      }
      online.InsertBatch(flat);
      publish();
    }
  }
  const auto& final_snapshot = snapshots.back();
  std::printf("streamed n=%d -> %d clusters over %d support members, %zu "
              "snapshots exported (publish p95 %.6fs, %lld rows / %lld "
              "clusters re-used, %lld bytes shared vs %lld copied)\n",
              data.size(), final_snapshot->num_clusters(),
              final_snapshot->num_members(), snapshots.size(),
              Percentile(publish_seconds, 0.95),
              static_cast<long long>(rows_reused),
              static_cast<long long>(clusters_reused),
              static_cast<long long>(bytes_shared),
              static_cast<long long>(bytes_copied));

  // Query mix: jittered copies of random rows (assignable) + far uniform
  // noise (unassignable), in one fixed shuffled stream. Sized so each
  // row's wall time clears bench_compare's noise floor and the QPS
  // trajectory is actually gated.
  const Index num_queries = ctx.Scaled(100000);
  std::vector<Scalar> queries;
  queries.reserve(static_cast<size_t>(num_queries) * dim);
  for (Index q = 0; q < num_queries; ++q) {
    const double mix = rng.Uniform();
    if (mix < 0.6) {
      // Assignable: tight jitter around a data row.
      const auto row =
          data.data[static_cast<Index>(rng.UniformInt(0, data.size() - 1))];
      for (int d = 0; d < dim; ++d) {
        queries.push_back(row[d] + rng.Gaussian() * 0.05);
      }
    } else if (mix < 0.8) {
      // Near-miss band: collides with a cluster's buckets but scores far
      // below its absorb threshold.
      const auto row =
          data.data[static_cast<Index>(rng.UniformInt(0, data.size() - 1))];
      const double magnitude = 2.0 + rng.Uniform() * 6.0;
      for (int d = 0; d < dim; ++d) {
        queries.push_back(row[d] + rng.Gaussian() * magnitude);
      }
    } else {
      for (int d = 0; d < dim; ++d) {
        queries.push_back(rng.Uniform(-900.0, 900.0));
      }
    }
  }

  // Tracing-overhead row: the batched single-executor query workload timed
  // with the span recorder off and then on (best of 3 each — min is the
  // noise-robust estimator on shared runners). Disable()/Enable() keep the
  // buffered --trace-out spans of earlier benches (only a capacity change
  // re-arms the rings); CI pins the ratio below 1.05 via bench_compare's
  // --require-max gate.
  double trace_base_seconds = 0.0;
  double trace_wall_seconds = 0.0;
  {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    const bool was_enabled = recorder.enabled();
    ClusterServer server(dim, {});
    server.Publish(final_snapshot);
    const auto query_wall = [&] {
      return RunQueries(server, queries, dim, 64, 1, "overhead")
          .wall_seconds;
    };
    recorder.Disable();
    trace_base_seconds = query_wall();
    for (int i = 0; i < 2; ++i) {
      trace_base_seconds = std::min(trace_base_seconds, query_wall());
    }
    recorder.Enable();
    trace_wall_seconds = query_wall();
    for (int i = 0; i < 2; ++i) {
      trace_wall_seconds = std::min(trace_wall_seconds, query_wall());
    }
    if (!was_enabled) recorder.Disable();
  }
  const double trace_overhead_ratio =
      trace_base_seconds > 0.0 ? trace_wall_seconds / trace_base_seconds
                               : 1.0;
  std::printf("tracing overhead: %.3fs off vs %.3fs on (x%.4f)\n",
              trace_base_seconds, trace_wall_seconds, trace_overhead_ratio);

  // The candidate stage in isolation: hashing a point, and the directory
  // lookup of a point whose buckets hold no cluster.
  const QueryLayerTimes layers = TimeQueryLayers(*final_snapshot, queries, dim);
  std::printf("candidate stage: hash %.1f ns/point, mark %.1f ns/point "
              "(%d far-noise probes)\n",
              layers.hash_ns_p50, layers.mark_ns_p50, layers.mark_probes);

  PrintHeader("steady-state serving (single published snapshot)");
  std::printf("%-7s %-6s %-6s %-9s %-9s %-11s %-12s %-12s %-12s %-9s %-7s\n",
              "mode", "batch", "execs", "wall(s)", "speedup", "qps",
              "p50(s)", "p95(s)", "p99(s)", "assigned", "swaps");
  std::vector<ServeRow> rows;
  for (Index batch : {Index{1}, Index{64}}) {
    double base_wall = 0.0;
    for (int executors : {1, 8}) {
      std::unique_ptr<ThreadPool> pool;
      if (executors > 1) pool = std::make_unique<ThreadPool>(executors);
      ClusterServer server(dim, {.pool = pool.get()});
      server.Publish(final_snapshot);
      ServeRow row =
          RunQueries(server, queries, dim, batch, executors, "steady");
      if (executors == 1) {
        base_wall = row.wall_seconds;
        row.speedup = 1.0;
      } else {
        row.speedup = row.wall_seconds > 0.0 && base_wall > 0.0
                          ? base_wall / row.wall_seconds
                          : 0.0;
      }
      PrintRow(row);
      rows.push_back(row);
    }
  }

  PrintHeader("snapshot swaps under query load (RCU publication)");
  {
    ThreadPool pool(8);
    ClusterServer server(dim, {.pool = &pool});
    server.Publish(snapshots.front());
    std::atomic<bool> done{false};
    std::atomic<int64_t> swaps{0};
    // The publisher cycles through the exported stream states as fast as it
    // can — every swap retires a whole snapshot under live readers.
    std::thread publisher([&] {
      size_t next = 0;
      while (!done.load(std::memory_order_acquire)) {
        server.Publish(snapshots[next % snapshots.size()]);
        swaps.fetch_add(1, std::memory_order_relaxed);
        next++;
        std::this_thread::yield();
      }
    });
    ServeRow row = RunQueries(server, queries, dim, 64, 8, "swap");
    done.store(true, std::memory_order_release);
    publisher.join();
    row.swaps = swaps.load();
    const ServeRow* steady = nullptr;
    for (const ServeRow& r : rows) {
      if (r.batch == 64 && r.executors == 8) steady = &r;
    }
    row.speedup = steady != nullptr && row.wall_seconds > 0.0
                      ? steady->wall_seconds / row.wall_seconds
                      : 0.0;  // vs the swap-free twin: the isolation cost
    PrintRow(row);
    rows.push_back(row);
  }

  PrintHeader("as-of queries against a retained generation (history ring)");
  int64_t history_ring_bytes = 0;
  {
    ThreadPool pool(8);
    ClusterServer server(dim, {.pool = &pool, .history_capacity = 8});
    for (const auto& snap : snapshots) server.Publish(snap);
    // The last tail publishes retired into the ring; address the
    // second-to-last generation — a real time-travel lookup on every call.
    const uint64_t retired = snapshots[snapshots.size() - 2]->generation();
    ServeRow row = RunQueries(server, queries, dim, 64, 8, "asof", retired);
    history_ring_bytes = server.stats().history_ring_bytes;
    const ServeRow* steady = nullptr;
    for (const ServeRow& r : rows) {
      if (r.batch == 64 && r.executors == 8 &&
          std::string_view(r.mode) == "steady") {
        steady = &r;
      }
    }
    row.speedup = steady != nullptr && row.wall_seconds > 0.0
                      ? steady->wall_seconds / row.wall_seconds
                      : 0.0;  // vs current-generation twin: the ring-scan cost
    PrintRow(row);
    rows.push_back(row);
    std::printf("history ring: %d generations retained, %lld extra bytes "
                "(blocks shared with the current snapshot are free)\n",
                server.stats().generations_retained,
                static_cast<long long>(history_ring_bytes));
  }

  std::printf("\nExpected shape: batched queries amortize the snapshot "
              "acquire and fan out across executors (the batch answers from "
              "ONE snapshot either way); the swap row tracks its steady "
              "twin closely because readers never block on publication — "
              "retired snapshots die with their last in-flight reader; the "
              "as-of row pays only the ring scan on top, because a retained "
              "snapshot answers exactly like it did when current.\n");
  EmitServeJson(ctx, rows, data.size(), num_queries,
                final_snapshot->num_clusters(), final_snapshot->num_members(),
                Percentile(publish_seconds, 0.95), rows_reused,
                clusters_reused, bytes_shared, bytes_copied,
                history_ring_bytes, trace_base_seconds, trace_wall_seconds,
                trace_overhead_ratio, layers);
}

ALID_BENCHMARK("serve", "runtime,serve,speedup", "serve", Run);

}  // namespace
}  // namespace alid::bench

// Streaming ingest — the windowed OnlineAlid (the paper's Section-6
// future-work direction grown into a served workload).
//
// Sweeps arrival rate (batch size) × sliding-window size: each
// configuration streams the same shuffled workload through OnlineAlid once
// and reports ingest throughput, p50/p95 per-batch latency, and the stream
// counters (absorbed / pooled / evicted / refreshes / redetections). A
// single stream runs every batch on its calling thread and posts no pool
// job, so there is no executor axis: each row runs without a pool and
// carries "executors":1, the key the trajectory gate pairs rows on.
//
// The last line is a single-line JSON record of the sweep for the bench
// trajectory (machine-readable, stable key names).
#include "bench_util.h"
#include "registry.h"
#include "scenarios.h"

#include <algorithm>
#include <memory>
#include <string>

#include "common/random.h"
#include "core/online_alid.h"
#include "data/synthetic.h"
#include "obs/trace.h"
#include "serve/cluster_snapshot.h"

namespace alid::bench {
namespace {

struct StreamRow {
  Index batch;
  Index window;
  double wall_seconds = 0.0;
  double items_per_second = 0.0;
  double p50_batch_seconds = 0.0;
  double p95_batch_seconds = 0.0;  // == ingest_p95_seconds (both emitted)
  // Stdout-table and derived columns only — the full counter set reaches
  // the JSON through registry_fields below.
  int64_t absorbed = 0;
  int64_t evicted = 0;
  int64_t redetections = 0;
  int64_t entries_computed = 0;  // the stream oracle's kernel evaluations
  int clusters = 0;
  double avg_f = 0.0;  // live window against the planted bursts, at ingest end
  // Publish phase (measured outside the ingest wall): steady-state
  // localized batches followed by one incremental snapshot export each.
  double publish_p95_seconds = 0.0;
  int64_t rows_reused = 0;
  int64_t clusters_reused = 0;
  // The stream's per-instance metrics registry as comma-joined JSON fields
  // (absorbed/pooled/evicted/...) — captured while
  // the stream is alive, embedded verbatim in the row record so every
  // counter key the trajectory carries comes from the registry exporter.
  std::string registry_fields;
};

// Shuffled dataset rows followed by a band of near-miss probes (jittered
// copies at magnitudes spanning the collide-but-fail region): arrivals that
// reach candidate clusters through the LSH but absorb into none of them.
std::vector<Scalar> ArrivalStream(const LabeledData& data,
                                  const std::vector<Index>& order) {
  const int dim = data.data.dim();
  std::vector<Scalar> flat;
  flat.reserve(static_cast<size_t>(data.size()) * dim * 6 / 5);
  for (Index i : order) {
    const auto row = data.data[i];
    flat.insert(flat.end(), row.begin(), row.end());
  }
  Rng rng(31);
  const Index probes = data.size() / 5;
  for (Index q = 0; q < probes; ++q) {
    const auto row =
        data.data[static_cast<Index>(rng.UniformInt(0, data.size() - 1))];
    const double magnitude = 2.0 + 6.0 * static_cast<double>(q % 16) / 15.0;
    for (int d = 0; d < dim; ++d) {
      flat.push_back(row[d] + rng.Gaussian() * magnitude);
    }
  }
  return flat;
}

// The planted burst of every arrival of ArrivalStream (-1 for noise and for
// the near-miss probes).
std::vector<int> ArrivalSources(const LabeledData& data,
                                const std::vector<Index>& order,
                                Index arrivals) {
  std::vector<int> sources(static_cast<size_t>(arrivals), -1);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    sources[pos] = data.labels[order[pos]];
  }
  return sources;
}

StreamRow RunStream(const LabeledData& data,
                    const std::vector<Scalar>& arrivals,
                    const std::vector<int>& arrival_sources, Index batch,
                    Index window) {
  StreamRow row;
  row.batch = batch;
  row.window = window;

  OnlineAlidOptions opts;
  opts.affinity = {.k = data.suggested_k, .p = 2.0};
  opts.lsh.segment_length = data.suggested_lsh_r;
  opts.refresh_interval = 256;
  opts.window = window;
  OnlineAlid online(data.data.dim(), opts);

  const int dim = data.data.dim();
  const Index count = static_cast<Index>(arrivals.size()) / dim;
  std::vector<Scalar> flat;
  SlotSources sources;
  std::vector<double> batch_seconds;
  WallTimer timer;
  for (Index begin = 0; begin < count; begin += batch) {
    const Index size = std::min<Index>(batch, count - begin);
    WallTimer batch_timer;
    const std::vector<Index> slots = online.InsertBatch(
        std::span<const Scalar>(
            arrivals.data() + static_cast<size_t>(begin) * dim,
            static_cast<size_t>(size) * dim));
    batch_seconds.push_back(batch_timer.Seconds());
    sources.Record(slots,
                   std::span<const int>(arrival_sources).subspan(begin, size));
  }
  online.Refresh();
  row.wall_seconds = timer.Seconds();
  row.avg_f = sources.LiveAvgF(online);

  const StreamStats stats = online.stats();
  row.items_per_second = row.wall_seconds > 0.0
                             ? static_cast<double>(stats.arrivals) /
                                   row.wall_seconds
                             : 0.0;
  row.p50_batch_seconds = Percentile(batch_seconds, 0.50);
  row.p95_batch_seconds = Percentile(batch_seconds, 0.95);
  row.absorbed = stats.absorbed;
  row.evicted = stats.evicted;
  row.redetections = stats.redetections;
  row.entries_computed = online.oracle().entries_computed();
  row.clusters = static_cast<int>(online.clusters().size());

  // Publish phase, measured outside the ingest wall: a steady-state tail of
  // localized batches (jittered members of ONE planted burst plus the
  // publish itself) so most clusters stand still between generations — the
  // regime where the incremental export turns publish cost into O(changed
  // clusters). Each batch is followed by one chained FromStream export.
  const IndexList& burst = data.true_clusters.front();
  Rng jitter(99);
  std::vector<double> publish_seconds;
  std::shared_ptr<const ClusterSnapshot> snapshot;
  const int dim_publish = data.data.dim();
  for (int round = 0; round < 8; ++round) {
    flat.clear();
    for (int q = 0; q < 64; ++q) {
      const auto row_data = data.data[burst[static_cast<size_t>(
          jitter.UniformInt(0, static_cast<int>(burst.size()) - 1))]];
      for (int d = 0; d < dim_publish; ++d) {
        flat.push_back(row_data[d] + jitter.Gaussian() * 0.2);
      }
    }
    online.InsertBatch(flat);
    WallTimer publish_timer;
    snapshot = ClusterSnapshot::FromStream(online, nullptr, snapshot);
    publish_seconds.push_back(publish_timer.Seconds());
    row.rows_reused += snapshot->build_info().rows_reused;
    row.clusters_reused += snapshot->build_info().clusters_reused;
  }
  row.publish_p95_seconds = Percentile(publish_seconds, 0.95);
  // Counter totals at end of run (ingest + publish tail), straight from the
  // stream's registry: the trajectory's counter keys are the exporter's
  // output, so a re-homed counter cannot silently drop out of the JSON.
  row.registry_fields = online.metrics().ToJsonFields();
  return row;
}

void PrintRow(const StreamRow& r) {
  std::printf("%-6d %-7d %-9.3f %-8.1f %-10.4f %-10.4f %-8lld %-8lld "
              "%-9lld %.3f\n",
              r.batch, r.window, r.wall_seconds, r.items_per_second,
              r.p50_batch_seconds, r.p95_batch_seconds,
              static_cast<long long>(r.absorbed),
              static_cast<long long>(r.evicted),
              static_cast<long long>(r.redetections), r.avg_f);
}

void EmitStreamJson(BenchContext& ctx, const std::vector<StreamRow>& rows,
                    Index n, double trace_base_seconds,
                    double trace_wall_seconds, double trace_overhead_ratio) {
  std::string json;
  AppendF(json,
          "{\"bench\":\"stream\",\"n\":%d,"
          "\"trace_base_seconds\":%.6f,\"trace_wall_seconds\":%.6f,"
          "\"trace_overhead_ratio\":%.4f,\"rows\":[",
          n, trace_base_seconds, trace_wall_seconds, trace_overhead_ratio);
  // The wall/latency/derived keys are emitted by hand; every counter and
  // gauge key (absorbed, evicted, redetections, ...)
  // comes from the embedded registry export — the manual list must never
  // overlap the registry's names (--schema-check rejects duplicate keys).
  for (size_t i = 0; i < rows.size(); ++i) {
    const StreamRow& r = rows[i];
    AppendF(
        json,
        "%s{\"batch\":%d,\"window\":%d,\"executors\":1,"
        "\"wall_seconds\":%.6f,\"items_per_second\":%.2f,"
        "\"p50_batch_seconds\":%.6f,\"p95_batch_seconds\":%.6f,"
        "\"ingest_p95_seconds\":%.6f,\"publish_p95_seconds\":%.6f,"
        "\"rows_reused\":%lld,\"clusters_reused\":%lld,"
        "\"entries_computed\":%lld,\"clusters\":%d,\"avg_f\":%.4f,%s}",
        i == 0 ? "" : ",", r.batch, r.window, r.wall_seconds,
        r.items_per_second, r.p50_batch_seconds,
        r.p95_batch_seconds, r.p95_batch_seconds, r.publish_p95_seconds,
        static_cast<long long>(r.rows_reused),
        static_cast<long long>(r.clusters_reused),
        static_cast<long long>(r.entries_computed), r.clusters, r.avg_f,
        r.registry_fields.c_str());
  }
  json += "]}";
  ctx.EmitJson(json);
}

void Run(BenchContext& ctx) {
  std::printf("Streaming ingest: batch x window sweep (scale %.2f)\n",
              ctx.scale());
  SyntheticConfig cfg;
  cfg.n = ctx.Scaled(1600);
  cfg.dim = 16;
  cfg.num_clusters = 4;
  cfg.omega = 0.6;
  cfg.mean_box = 300.0;
  cfg.overlap_clusters = false;
  cfg.seed = 905;
  LabeledData data = MakeSynthetic(cfg);
  Rng rng(17);
  const std::vector<Index> order = rng.Permutation(data.size());
  const std::vector<Scalar> arrivals = ArrivalStream(data, order);
  const std::vector<int> sources = ArrivalSources(
      data, order, static_cast<Index>(arrivals.size()) / data.data.dim());
  std::printf("n=%d arrivals (+%d near-miss probes), %zu planted bursts\n",
              data.size(),
              static_cast<int>(arrivals.size()) / data.data.dim() -
                  data.size(),
              data.true_clusters.size());

  // Tracing-overhead row: the same modest ingest configuration timed with
  // the span recorder off and then on (best of 3 each — min is the
  // noise-robust estimator on shared runners). The hooks are a single
  // relaxed load per span when disabled and one ring write when enabled,
  // so the ratio stays ~1.0; CI pins it below 1.05 via bench_compare's
  // --require-max trace_overhead_ratio gate. Disable()/Enable() keep the
  // buffered --trace-out spans of earlier benches (only a capacity change
  // re-arms the rings).
  double trace_base_seconds = 0.0;
  double trace_wall_seconds = 0.0;
  {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    const bool was_enabled = recorder.enabled();
    const auto ingest_wall = [&] {
      return RunStream(data, arrivals, sources, 256, 0).wall_seconds;
    };
    recorder.Disable();
    trace_base_seconds = ingest_wall();
    for (int i = 0; i < 2; ++i) {
      trace_base_seconds = std::min(trace_base_seconds, ingest_wall());
    }
    recorder.Enable();
    trace_wall_seconds = ingest_wall();
    for (int i = 0; i < 2; ++i) {
      trace_wall_seconds = std::min(trace_wall_seconds, ingest_wall());
    }
    if (!was_enabled) recorder.Disable();
  }
  const double trace_overhead_ratio =
      trace_base_seconds > 0.0 ? trace_wall_seconds / trace_base_seconds
                               : 1.0;
  std::printf("tracing overhead: %.3fs off vs %.3fs on (x%.4f)\n",
              trace_base_seconds, trace_wall_seconds, trace_overhead_ratio);

  const std::vector<Index> batches{32, 256};
  const std::vector<Index> windows{0, ctx.Scaled(800)};
  std::vector<StreamRow> rows;
  for (Index window : windows) {
    PrintHeader(window == 0 ? "unbounded stream (window = 0)"
                            : "sliding window");
    std::printf("%-6s %-7s %-9s %-8s %-10s %-10s %-8s %-8s %-9s %s\n",
                "batch", "window", "wall(s)", "items/s", "p50(s)", "p95(s)",
                "absorb", "evict", "redetect", "avg_f");
    for (Index batch : batches) {
      StreamRow row = RunStream(data, arrivals, sources, batch, window);
      PrintRow(row);
      rows.push_back(row);
    }
  }

  std::printf("\nExpected shape: larger batches coalesce more arrivals "
              "into each warm re-detection of a touched cluster, and the "
              "window bounds "
              "evictions — and with them the index footprint — "
              "independent of stream length. The publish columns "
              "time the incremental snapshot export over a steady-state "
              "tail: rows_reused > 0 is the proof the publish path pays "
              "O(changed clusters), not O(window).\n");
  EmitStreamJson(ctx, rows, data.size(), trace_base_seconds,
                 trace_wall_seconds, trace_overhead_ratio);
}

ALID_BENCHMARK("stream", "runtime,stream", "stream", Run);

}  // namespace
}  // namespace alid::bench

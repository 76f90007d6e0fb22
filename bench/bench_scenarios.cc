// Adversarial stream scenarios (bench/scenarios.h) on the windowed
// OnlineAlid runtime — the workloads the steady synthetic streams never
// produce:
//
//   scenario_drift       walking centers; the interesting columns are
//                        redetections, clusters_born/dissolved and avg_f
//                        (the stream must follow each moved cluster while
//                        the window expires its trail).
//   scenario_burst       birth/death storms; the interesting columns are
//                        clusters_born/dissolved and the publish columns —
//                        rows_reused collapses in a storm because almost
//                        every cluster changed between publishes.
//   scenario_heavy_tail  Zipf cluster sizes; the interesting columns are
//                        redetections and entries_computed (kernel
//                        evaluations the head cluster's re-detections
//                        cost).
//
// Every row also carries avg_f: the live window at stream end scored
// against the planted source of each arrival (ScenarioBatch::source).
//
// Each scenario streams its batch sequence once through OnlineAlid with a
// sliding window and a chained incremental publish every few batches, and
// emits one JSON record with a single row carrying the wall/p95 keys
// bench_compare.py gates. A single stream runs every batch on its calling
// thread and posts no pool job, so the run has no pool and no executor
// axis; the row keeps "executors":1, the key the trajectory gate pairs
// rows on.
#include "bench_util.h"
#include "registry.h"
#include "scenarios.h"

#include <cmath>
#include <memory>

#include "core/online_alid.h"
#include "serve/cluster_snapshot.h"

namespace alid::bench {
namespace {

struct ScenarioRun {
  double wall_seconds = 0.0;
  double items_per_second = 0.0;
  double p50_batch_seconds = 0.0;
  double p95_batch_seconds = 0.0;
  double publish_p95_seconds = 0.0;
  int64_t arrivals = 0;
  int64_t absorbed = 0;
  int64_t pooled = 0;
  int64_t evicted = 0;
  int64_t refreshes = 0;
  int64_t redetections = 0;
  int64_t clusters_born = 0;
  int64_t clusters_dissolved = 0;
  int64_t rows_reused = 0;
  int64_t clusters_reused = 0;
  int64_t entries_computed = 0;
  int clusters = 0;
  double avg_f = 0.0;  ///< Live window against the planted sources.
};

struct ScenarioSpec {
  int dim = 16;
  double spread = 1.0;
  int num_batches = 0;
  Index window = 0;        ///< Sliding window (0 = unbounded).
  int publish_every = 4;   ///< Batches between incremental publishes.
  std::function<ScenarioBatch(int)> batch;
};

// Streams the scenario's batch sequence through one OnlineAlid instance
// (the generators are pure in batch_index, so every run sees the same
// batches).
ScenarioRun StreamScenario(const ScenarioSpec& spec) {
  ScenarioRun run;

  // Same suggestion convention as the data generators: intra-cluster
  // distance ~ sqrt(2 d) * spread -> affinity ~0.9, LSH segment 3x that.
  const double intra =
      std::sqrt(2.0 * static_cast<double>(spec.dim)) * spec.spread;
  OnlineAlidOptions opts;
  opts.affinity = {.k = -std::log(0.9) / intra, .p = 2.0};
  opts.lsh.segment_length = 3.0 * intra;
  opts.refresh_interval = 256;
  opts.window = spec.window;
  OnlineAlid online(spec.dim, opts);

  std::vector<double> batch_seconds;
  std::vector<double> publish_seconds;
  std::shared_ptr<const ClusterSnapshot> snapshot;
  SlotSources sources;
  WallTimer timer;
  for (int t = 0; t < spec.num_batches; ++t) {
    const ScenarioBatch batch = spec.batch(t);
    if (batch.rows > 0) {
      WallTimer batch_timer;
      const std::vector<Index> slots = online.InsertBatch(batch.points);
      batch_seconds.push_back(batch_timer.Seconds());
      sources.Record(slots, batch.source);
    }
    if ((t + 1) % spec.publish_every == 0 || t + 1 == spec.num_batches) {
      WallTimer publish_timer;
      snapshot = ClusterSnapshot::FromStream(online, nullptr, snapshot);
      publish_seconds.push_back(publish_timer.Seconds());
      run.rows_reused += snapshot->build_info().rows_reused;
      run.clusters_reused += snapshot->build_info().clusters_reused;
    }
  }
  online.Refresh();
  run.wall_seconds = timer.Seconds();

  const StreamStats& stats = online.stats();
  run.arrivals = stats.arrivals;
  run.items_per_second =
      run.wall_seconds > 0.0
          ? static_cast<double>(stats.arrivals) / run.wall_seconds
          : 0.0;
  run.p50_batch_seconds = Percentile(batch_seconds, 0.50);
  run.p95_batch_seconds = Percentile(batch_seconds, 0.95);
  run.publish_p95_seconds = Percentile(publish_seconds, 0.95);
  run.absorbed = stats.absorbed;
  run.pooled = stats.pooled;
  run.evicted = stats.evicted;
  run.refreshes = stats.refreshes;
  run.redetections = stats.redetections;
  run.clusters_born = stats.clusters_born;
  run.clusters_dissolved = stats.clusters_dissolved;
  run.entries_computed = online.oracle().entries_computed();
  run.clusters = static_cast<int>(online.clusters().size());
  run.avg_f = sources.LiveAvgF(online);
  return run;
}

void AppendRunRow(std::string& json, const ScenarioRun& r) {
  AppendF(json,
          "{\"executors\":1,\"wall_seconds\":%.6f,"
          "\"items_per_second\":%.2f,\"p50_batch_seconds\":%.6f,"
          "\"p95_batch_seconds\":%.6f,\"ingest_p95_seconds\":%.6f,"
          "\"publish_p95_seconds\":%.6f,\"arrivals\":%lld,"
          "\"absorbed\":%lld,\"pooled\":%lld,\"evicted\":%lld,"
          "\"refreshes\":%lld,\"redetections\":%lld,"
          "\"clusters_born\":%lld,\"clusters_dissolved\":%lld,"
          "\"rows_reused\":%lld,\"clusters_reused\":%lld,"
          "\"entries_computed\":%lld,\"clusters\":%d,\"avg_f\":%.4f}",
          r.wall_seconds, r.items_per_second, r.p50_batch_seconds,
          r.p95_batch_seconds, r.p95_batch_seconds, r.publish_p95_seconds,
          static_cast<long long>(r.arrivals),
          static_cast<long long>(r.absorbed),
          static_cast<long long>(r.pooled),
          static_cast<long long>(r.evicted),
          static_cast<long long>(r.refreshes),
          static_cast<long long>(r.redetections),
          static_cast<long long>(r.clusters_born),
          static_cast<long long>(r.clusters_dissolved),
          static_cast<long long>(r.rows_reused),
          static_cast<long long>(r.clusters_reused),
          static_cast<long long>(r.entries_computed), r.clusters, r.avg_f);
}

void PrintRun(const ScenarioRun& r) {
  std::printf("  wall %.3fs  items/s %8.1f  "
              "born %-4lld dissolved %-4lld redetect %-4lld  entries %-9lld "
              "rows_reused %-6lld  clusters %d  avg_f %.3f\n",
              r.wall_seconds, r.items_per_second,
              static_cast<long long>(r.clusters_born),
              static_cast<long long>(r.clusters_dissolved),
              static_cast<long long>(r.redetections),
              static_cast<long long>(r.entries_computed),
              static_cast<long long>(r.rows_reused), r.clusters, r.avg_f);
}

void RunDrift(BenchContext& ctx) {
  DriftScenarioConfig cfg;
  cfg.points_per_batch = ctx.Scaled(96);
  ScenarioSpec spec;
  spec.dim = cfg.dim;
  spec.spread = cfg.spread;
  spec.num_batches = 40;
  // Window ~6 batches: the stale end of a walking cluster keeps expiring,
  // so its re-detections must follow the walk instead of one cluster
  // smearing along the whole of it.
  spec.window = static_cast<Index>(6 * cfg.points_per_batch * 1.15);
  spec.batch = [&cfg](int t) { return DriftBatch(cfg, t); };
  std::printf("Concept drift: %d clusters walking %.1f/batch over %d "
              "batches (scale %.2f)\n",
              cfg.num_clusters, cfg.drift_per_batch, spec.num_batches,
              ctx.scale());
  const ScenarioRun run = StreamScenario(spec);
  PrintRun(run);
  std::printf("Expected shape: clusters_born stays at the planted cluster "
              "count and clusters_dissolved near 0 — each batch's warm "
              "re-detection follows a walking cluster from its own optimum "
              "while the window expires its trail, so the cluster is "
              "tracked, not re-born.\n");
  std::string json;
  AppendF(json,
          "{\"bench\":\"scenario_drift\",\"num_clusters\":%d,"
          "\"drift_per_batch\":%.2f,\"num_batches\":%d,\"window\":%d,"
          "\"rows\":[",
          cfg.num_clusters, cfg.drift_per_batch, spec.num_batches,
          spec.window);
  AppendRunRow(json, run);
  json += "]}";
  ctx.EmitJson(json);
}

void RunBurst(BenchContext& ctx) {
  BurstScenarioConfig cfg;
  cfg.points_per_slot = ctx.Scaled(24);
  ScenarioSpec spec;
  spec.dim = cfg.dim;
  spec.spread = cfg.spread;
  spec.num_batches = 48;
  // Window ~1.5 periods: a dead generation's points expire before its slot
  // is reborn, so every storm is real births, not absorption into leftovers.
  spec.window = static_cast<Index>(cfg.num_slots * cfg.points_per_slot *
                                   cfg.lifetime * 3 / 2);
  spec.publish_every = 2;  // publish inside and outside storms
  spec.batch = [&cfg](int t) { return BurstBatch(cfg, t); };
  std::printf("Burst arrivals: %d slots x %d storms, lifetime %d of "
              "period %d, %d batches (scale %.2f)\n",
              cfg.num_slots, cfg.num_storms, cfg.lifetime, cfg.period,
              spec.num_batches, ctx.scale());
  const ScenarioRun run = StreamScenario(spec);
  PrintRun(run);
  std::printf("Expected shape: births and dissolutions arrive in storms; "
              "rows_reused collapses at storm publishes (nearly every "
              "cluster changed) and recovers between them.\n");
  std::string json;
  AppendF(json,
          "{\"bench\":\"scenario_burst\",\"num_slots\":%d,\"period\":%d,"
          "\"lifetime\":%d,\"num_storms\":%d,\"num_batches\":%d,"
          "\"window\":%d,\"rows\":[",
          cfg.num_slots, cfg.period, cfg.lifetime, cfg.num_storms,
          spec.num_batches, spec.window);
  AppendRunRow(json, run);
  json += "]}";
  ctx.EmitJson(json);
}

void RunHeavyTail(BenchContext& ctx) {
  HeavyTailScenarioConfig cfg;
  cfg.points_per_batch = ctx.Scaled(128);
  ScenarioSpec spec;
  spec.dim = cfg.dim;
  spec.spread = cfg.spread;
  spec.num_batches = 40;
  spec.window = static_cast<Index>(16 * cfg.points_per_batch);
  spec.batch = [&cfg](int t) { return HeavyTailBatch(cfg, t); };
  std::printf("Heavy-tailed cluster sizes: Zipf(%.2f) over %d clusters "
              "(head probability %.3f), %d batches (scale %.2f)\n",
              cfg.zipf_exponent, cfg.num_clusters,
              HeavyTailClusterProbability(cfg, 0), spec.num_batches,
              ctx.scale());
  const ScenarioRun run = StreamScenario(spec);
  PrintRun(run);
  std::printf("Expected shape: the head cluster draws most arrivals, but "
              "a batch's arrivals coalesce into one warm re-detection per "
              "touched cluster, so redetections track touched clusters per "
              "batch, not absorbed arrivals.\n");
  std::string json;
  AppendF(json,
          "{\"bench\":\"scenario_heavy_tail\",\"num_clusters\":%d,"
          "\"zipf_exponent\":%.2f,\"head_probability\":%.4f,"
          "\"num_batches\":%d,\"window\":%d,\"rows\":[",
          cfg.num_clusters, cfg.zipf_exponent,
          HeavyTailClusterProbability(cfg, 0), spec.num_batches, spec.window);
  AppendRunRow(json, run);
  json += "]}";
  ctx.EmitJson(json);
}

void RunEmbedding(BenchContext& ctx) {
  EmbeddingScenarioConfig cfg;
  cfg.points_per_batch = ctx.Scaled(96);
  ScenarioSpec spec;
  spec.dim = cfg.dim;
  // Effective scatter is anisotropic; tune the affinity/LSH suggestion to
  // the widest manifold axis so clusters neither merge nor shatter.
  spec.spread = cfg.spread;
  spec.num_batches = 32;
  spec.window = static_cast<Index>(12 * cfg.points_per_batch);
  spec.batch = [&cfg](int t) { return EmbeddingBatch(cfg, t); };
  std::printf("Embedding streams: %d clusters on a %d-dim manifold in "
              "%d ambient dims, anisotropy %.1fx, %d batches (scale %.2f)\n",
              cfg.num_clusters, cfg.manifold_dim, cfg.dim, cfg.anisotropy,
              spec.num_batches, ctx.scale());
  const ScenarioRun run = StreamScenario(spec);
  PrintRun(run);
  std::printf("Expected shape: LSH bucket occupancy skews along the wide "
              "manifold axes, so the absorbed/pooled split behaves unlike "
              "the isotropic synthetic regimes at the same arrival rate.\n");
  std::string json;
  AppendF(json,
          "{\"bench\":\"scenario_embedding\",\"dim\":%d,"
          "\"manifold_dim\":%d,\"num_clusters\":%d,\"anisotropy\":%.2f,"
          "\"ambient_noise\":%.3f,\"num_batches\":%d,\"window\":%d,"
          "\"rows\":[",
          cfg.dim, cfg.manifold_dim, cfg.num_clusters, cfg.anisotropy,
          cfg.ambient_noise, spec.num_batches, spec.window);
  AppendRunRow(json, run);
  json += "]}";
  ctx.EmitJson(json);
}

ALID_BENCHMARK("scenario_drift", "scenario,stream", "scenario_drift",
               RunDrift);
ALID_BENCHMARK("scenario_burst", "scenario,stream", "scenario_burst",
               RunBurst);
ALID_BENCHMARK("scenario_heavy_tail", "scenario,stream",
               "scenario_heavy_tail", RunHeavyTail);
ALID_BENCHMARK("scenario_embedding", "scenario,stream",
               "scenario_embedding", RunEmbedding);

}  // namespace
}  // namespace alid::bench

// shard_embedding — anisotropic dim-64 embedding arrivals
// (bench/scenarios.h) go through a ShardedStream (S=4, 4 executors), then
// ShardRouter::PublishFromStream every few batches, then a burst of
// fanned-out Query calls, all in sequence. The only workload that touches
// shard/ (partitioning, fan-out merge, boundary report) and the only
// high-dimensional anisotropic input, so LSH skew and the dim-64 SIMD tiles
// show here, and sharding's quality cost sits next to its speed. One pass
// streams a fixed batch sequence into a fresh sharded stream and router;
// passes repeat until the run's time is up.

#include <algorithm>
#include <cmath>

#include "common/memory_tracker.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "report.h"
#include "scenarios.h"
#include "shard/shard_router.h"
#include "shard/sharded_stream.h"
#include "stream_common.h"

namespace alid::perfbench {
namespace {

constexpr int kDim = 64;
constexpr int kShards = 4;
constexpr Index kBatchPoints = 48;  // plus 5% far noise
constexpr int kBatches = 40;        // per pass
/// The set-up's warm-up: the first batches of every stream, so set-up time
/// averages over all inputs.
constexpr int kWarmBatches = 4;
constexpr Index kWindow = 6 * kBatchPoints;   // per shard
constexpr Index kRefreshInterval = 64;        // per-shard arrivals
constexpr int kPublishEvery = 2;              // batches
constexpr int kBurst = 100;                   // query requests per publish
constexpr Index kQueryPoints = 1 << 14;
constexpr Index kBatchQuery = 64;
constexpr int kTopK = 3;
constexpr int kMinTruth = 8;
constexpr double kAvgFFloor = 0.3;
/// Independent streams per run: a run's numbers average over all of them.
constexpr int kInputs = 4;

struct Input {
  bench::EmbeddingScenarioConfig cfg;
  std::vector<bench::ScenarioBatch> batches;
  std::vector<std::vector<int>> labels;  // per batch, per row (-1 noise)
  std::vector<Scalar> queries;
  std::vector<double> query_mix;  // per request, in [0, 1)
  double intra = 0.0;
  uint64_t lsh_seed = 0;
};

Input MakeInput(uint64_t seed) {
  Input input;
  input.cfg.dim = kDim;
  input.cfg.points_per_batch = kBatchPoints;
  input.cfg.seed = DeriveSeed(seed, 0xE4BE);
  input.lsh_seed = DeriveSeed(seed, 0x15B);
  // Typical distance between two members of one cluster: the manifold
  // scatter plus the ambient jitter, in every direction twice.
  double scatter = 0.0;
  for (int j = 0; j < input.cfg.manifold_dim; ++j) {
    const double s = bench::EmbeddingAxisScale(input.cfg, j);
    scatter += s * s;
  }
  const double jitter = input.cfg.ambient_noise * input.cfg.spread;
  scatter += kDim * jitter * jitter;
  input.intra = std::sqrt(2.0 * scatter);

  // Truth: the nearest planted center (the generator exposes the centers).
  std::vector<std::vector<Scalar>> centers;
  for (int c = 0; c < input.cfg.num_clusters; ++c) {
    centers.push_back(bench::EmbeddingCenterAt(input.cfg, c));
  }
  Rng query(DeriveSeed(seed, 0x9E2F));
  for (int t = 0; t < kBatches; ++t) {
    bench::ScenarioBatch batch = bench::EmbeddingBatch(input.cfg, t);
    std::vector<int> labels(batch.rows, -1);
    for (Index r = 0; r < batch.rows - batch.noise_rows; ++r) {
      const std::span<const Scalar> row = std::span<const Scalar>(
          batch.points).subspan(static_cast<size_t>(r) * kDim, kDim);
      double best = 0.0;
      for (int c = 0; c < input.cfg.num_clusters; ++c) {
        const double d2 = SquaredL2(row, centers[c]);
        if (labels[r] < 0 || d2 < best) {
          labels[r] = c;
          best = d2;
        }
      }
    }
    input.batches.push_back(std::move(batch));
    input.labels.push_back(std::move(labels));
  }
  // Query points in bench_serve's shares: 60% jittered arrivals, 20% near
  // misses, 20% far noise.
  for (Index q = 0; q < kQueryPoints; ++q) {
    const bench::ScenarioBatch& batch =
        input.batches[static_cast<size_t>(query.UniformInt(0, kBatches - 1))];
    const auto row = std::span<const Scalar>(batch.points)
                         .subspan(static_cast<size_t>(query.UniformInt(
                                      0, batch.rows - 1)) * kDim,
                                  kDim);
    const double mix = query.Uniform();
    const double scale = mix < 0.6 ? 0.05 : mix < 0.8 ? 2.0 : 0.0;
    for (int d = 0; d < kDim; ++d) {
      input.queries.push_back(scale > 0.0
                                  ? row[d] + query.Gaussian() * scale
                                  : query.Uniform(-20.0, 60.0));
    }
  }
  for (int i = 0; i < kBurst * (kBatches / kPublishEvery); ++i) {
    input.query_mix.push_back(query.Uniform());
  }
  return input;
}

struct Pass {
  std::vector<double> ingest_s;
  std::vector<double> publish_s;
  std::vector<double> single_us;
  double query_s = 0.0;
  double query_points = 0.0;
  double seconds = 0.0;
  double arrivals = 0.0;
  double avg_f = 0.0;
  double alive_skew = 0.0;
  double boundary_pairs = 0.0;
  double clusters = 0.0;
  double steals = 0.0;
  StreamCounters counters;
};

Pass RunPass(const Input& input, int batches, ThreadPool* pool,
             SpanTracer* tracer, uint64_t first_request,
             WorkloadReport* report) {
  Pass pass;
  const int64_t steals_before = pool->steal_count();
  WallTimer wall;
  ShardedStreamOptions options;
  options.base = StreamOptions(input.intra, kWindow, kRefreshInterval, pool,
                               input.lsh_seed);
  options.num_shards = kShards;
  ShardedStream stream(kDim, options);
  ShardRouter router(kDim, kShards);
  std::vector<std::vector<int>> label_of_slot(kShards);
  const std::span<const Scalar> queries(input.queries);
  Index cursor = 0;
  const auto take = [&](Index count) {
    if (cursor + count > kQueryPoints) cursor = 0;
    const auto points = queries.subspan(static_cast<size_t>(cursor) * kDim,
                                        static_cast<size_t>(count) * kDim);
    cursor += count;
    return points;
  };
  uint64_t request = first_request;
  size_t mix = 0;
  for (int t = 0; t < batches; ++t) {
    const bench::ScenarioBatch& batch = input.batches[t];
    std::vector<ShardSlot> slots;
    {
      SpanScope span(tracer, "shard.insert_batch", request++);
      WallTimer ingest;
      slots = stream.InsertBatch(batch.points);
      pass.ingest_s.push_back(ingest.Seconds());
    }
    bool slots_ok = static_cast<Index>(slots.size()) == batch.rows;
    for (size_t j = 0; slots_ok && j < slots.size(); ++j) {
      const ShardSlot slot = slots[j];
      slots_ok = slot.shard >= 0 && slot.shard < kShards && slot.slot >= 0;
      if (!slots_ok) break;
      std::vector<int>& labels = label_of_slot[slot.shard];
      if (static_cast<size_t>(slot.slot) >= labels.size()) {
        labels.resize(slot.slot + 1, -1);
      }
      labels[slot.slot] = input.labels[t][j];
    }
    if (report != nullptr) {
      report->Check(slots_ok, "batch " + std::to_string(t) +
                                  " returned an invalid ShardSlot");
    }
    if ((t + 1) % kPublishEvery != 0) continue;

    {
      SpanScope span(tracer, "shard.router_publish", request++);
      WallTimer publish;
      router.PublishFromStream(stream);
      pass.publish_s.push_back(publish.Seconds());
    }
    for (int q = 0; q < kBurst; ++q) {
      const double m = input.query_mix[mix++ % input.query_mix.size()];
      QueryRequest query;
      // The three request classes in equal shares, as in serve_mixed:
      // 64-point batches, single-point top-3 rankings, single-point assigns.
      query.points = take(m < 1.0 / 3.0 ? kBatchQuery : 1);
      query.top_k = m >= 1.0 / 3.0 && m < 2.0 / 3.0 ? kTopK : 0;
      SpanScope span(tracer, "shard.router_query", request++);
      const int64_t start = NowNs();
      const ShardedQueryResponse response = router.Query(query);
      const int64_t end = NowNs();
      const Index points = static_cast<Index>(query.points.size()) / kDim;
      pass.query_s += static_cast<double>(end - start) * 1e-9;
      pass.query_points += points;
      if (points == 1) {
        pass.single_us.push_back(static_cast<double>(end - start) * 1e-3);
      }
      if (report != nullptr) {
        report->Check(response.ok(), "router query status " +
                                         std::to_string(static_cast<int>(
                                             response.status)));
      }
    }
  }
  pass.seconds = wall.Seconds();
  pass.steals = static_cast<double>(pool->steal_count() - steals_before);

  // Live items of every shard in one id space: shard s's slots start after
  // shard s-1's.
  std::vector<int> live;
  std::vector<IndexList> detected;
  double alive_max = 0.0;
  for (int s = 0; s < kShards; ++s) {
    const OnlineAlid& shard = stream.shard(s);
    const Index offset = static_cast<Index>(live.size());
    for (size_t slot = 0; slot < label_of_slot[s].size(); ++slot) {
      live.push_back(shard.IsAlive(static_cast<Index>(slot))
                         ? label_of_slot[s][slot]
                         : -1);
    }
    for (const Cluster& cluster : shard.clusters()) {
      IndexList members = cluster.members;
      for (Index& m : members) m += offset;
      detected.push_back(std::move(members));
    }
    alive_max = std::max(alive_max, static_cast<double>(shard.alive()));
    pass.counters.Add(shard);
  }
  pass.avg_f = LiveAvgF(live, detected, kMinTruth);
  pass.arrivals = static_cast<double>(stream.size());
  pass.alive_skew = Ratio(alive_max, static_cast<double>(stream.alive()) /
                                         kShards);
  pass.clusters = static_cast<double>(detected.size());
  pass.boundary_pairs = static_cast<double>(
      router.BoundaryClusters(options.base.affinity).size());
  return pass;
}

}  // namespace

WorkloadReport RunShardEmbedding(const RunConfig& config) {
  WorkloadReport report;
  MemoryTracker::Global().Reset();
  ThreadPool pool(kThreads - 1);  // the ingesting thread is the 4th

  std::vector<Input> inputs;
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    inputs.clear();
    for (int k = 0; k < kInputs; ++k) {
      inputs.push_back(MakeInput(DeriveSeed(config.seed, k + 1)));
    }
    for (const Input& input : inputs) {
      RunPass(input, kWarmBatches, &pool, nullptr, 0, nullptr);
    }
  });

  QualityLedger quality(kInputs, kAvgFFloor);
  std::vector<Pass> passes, traced_passes;
  SpanTracer tracer;
  const RoundTimes times = RunCycles(
      config, &tracer, kInputs, [&](int k, int i, SpanTracer* t) {
        Pass pass = RunPass(inputs[k], kBatches, &pool, t,
                            static_cast<uint64_t>(i) * 100000 + 1, &report);
        quality.Record(report, k, pass.avg_f);
        const double seconds = pass.seconds;
        (t != nullptr ? traced_passes : passes).push_back(std::move(pass));
        return seconds;
      });

  if (!config.trace) {
    std::vector<double> ingest, publish, single;
    double arrivals = 0.0, ingest_total = 0.0, query_s = 0.0, points = 0.0;
    std::vector<double> rates;
    double clusters = 0.0;
    for (const Pass& pass : passes) {
      ingest.insert(ingest.end(), pass.ingest_s.begin(), pass.ingest_s.end());
      publish.insert(publish.end(), pass.publish_s.begin(),
                     pass.publish_s.end());
      single.insert(single.end(), pass.single_us.begin(),
                    pass.single_us.end());
      arrivals += pass.arrivals;
      for (const double s : pass.ingest_s) ingest_total += s;
      query_s += pass.query_s;
      points += pass.query_points;
      rates.push_back(Ratio(pass.arrivals, pass.seconds));
      clusters += pass.clusters;
    }
    report.Set("setup_s", setup_s, "s");
    report.Set("items_per_s", Median(rates), "1/s");
    report.Set("latency_p50_s", Median(single) * 1e-6, "s");
    report.Set("avg_f", quality.Mean(), "F1");
    report.Set("peak_mem_mb", PeakMemMb(), "MiB");
    report.Named("ingest_items_per_s", Ratio(arrivals, ingest_total), "1/s");
    report.Timing("ingest_batch_s", ingest, "s");
    report.NamedTail("ingest_batch_p90_s", ingest, 0.9, "s");
    report.Timing("publish_s", publish, "s");
    report.NamedTail("publish_p90_s", publish, 0.9, "s");
    report.Named("query_qps", Ratio(points, query_s), "1/s");
    report.Timing("query_single_us", single, "us");
    report.NamedTail("query_p99_us", single, 0.99, "us");
    report.Named("fragmentation",
                 clusters / static_cast<double>(passes.size()) /
                     inputs[0].cfg.num_clusters,
                 "ratio");
    return report;
  }

  const double units = static_cast<double>(traced_passes.size());

  StreamCounters counters;
  double skew = 0.0, pairs = 0.0, clusters = 0.0;
  double steals = 0.0;
  for (const Pass& pass : traced_passes) {
    counters += pass.counters;
    steals += pass.steals;
    skew += pass.alive_skew;
    pairs += pass.boundary_pairs;
    clusters += pass.clusters;
  }
  const auto layers = FoldSpans(tracer.Collect());
  PrintLayers(report, layers);
  const auto per_call = [&](const std::string& span) {
    const auto it = layers.find(span);
    return it == layers.end()
               ? 0.0
               : BusyPerUnit(layers, span,
                             static_cast<double>(it->second.count));
  };
  report.Set("shard.insert_batch_busy_s", per_call("shard.insert_batch"), "s");
  report.Set("shard.router_publish_busy_s", per_call("shard.router_publish"),
             "s");
  report.Set("shard.router_query_busy_s", per_call("shard.router_query"), "s");
  report.Set("shard.alive_skew", skew / units, "ratio");
  report.Set("shard.boundary_pairs", pairs / units, "count");
  report.Set("shard.fragmentation",
             clusters / units / inputs[0].cfg.num_clusters,
             "ratio");
  SetStreamMetrics(report, counters, units);
  report.NotRun({"online_alid.insert_batch_busy_s",
                 "online_alid.refresh_busy_s"},
                "the shards' OnlineAlid calls run inside "
                "ShardedStream::InsertBatch, timed as shard.insert_batch_busy_s");
  report.Set("pool.steals", steals / units, "count");
  report.Set("trace.overhead_ratio", times.OverheadRatio(), "ratio");
  const std::string path = WriteSpans(tracer, config, "shard_embedding");
  report.Line("spans written to " + (path.empty() ? "(failed)" : path));
  return report;
}

}  // namespace alid::perfbench

// stream_heavy_tail — Zipf heavy-tail arrivals (bench/scenarios.h) through
// a windowed OnlineAlid, with a chained incremental
// ClusterSnapshot::FromStream after every batch and no readers. One giant
// head cluster makes each absorbed arrival's re-detection scale with a*, and
// the window adds expiry churn: the write-heavy, low-reuse case. One pass
// streams a fixed batch sequence into a fresh stream; passes repeat until
// the run's time is up.

#include <cmath>
#include <memory>

#include "common/memory_tracker.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "report.h"
#include "scenarios.h"
#include "serve/cluster_snapshot.h"
#include "stream_common.h"

namespace alid::perfbench {
namespace {

constexpr int kDim = 16;
constexpr Index kBatchPoints = 20;  // plus 5% far noise
constexpr int kBatches = 40;        // per pass
/// The set-up's warm-up: the first batches of every stream, so set-up time
/// averages over all inputs instead of hanging on one stream's head.
constexpr int kWarmBatches = 4;
constexpr Index kWindow = 320;
constexpr Index kRefreshEvery = 120;  // arrivals between Refresh() calls
constexpr int kMinTruth = 8;
/// A pass whose live-window AVG-F falls below this lost the head cluster.
constexpr double kAvgFFloor = 0.3;
/// Independent streams per run: a run's numbers average over all of them.
constexpr int kInputs = 20;

struct Input {
  bench::HeavyTailScenarioConfig cfg;
  std::vector<bench::ScenarioBatch> batches;
  std::vector<std::vector<int>> labels;  // per batch, per row (-1 noise)
  uint64_t lsh_seed = 0;
};

Input MakeInput(uint64_t seed) {
  Input input;
  input.cfg.dim = kDim;
  input.cfg.points_per_batch = kBatchPoints;
  input.cfg.seed = DeriveSeed(seed, 0x7A11);
  input.lsh_seed = DeriveSeed(seed, 0x15B);
  ExemplarLabeler labeler(kDim, 4.0 * std::sqrt(2.0 * kDim) *
                                    input.cfg.spread);
  for (int t = 0; t < kBatches; ++t) {
    bench::ScenarioBatch batch = bench::HeavyTailBatch(input.cfg, t);
    std::vector<int> labels(batch.rows, -1);
    for (Index r = 0; r < batch.rows - batch.noise_rows; ++r) {
      labels[r] = labeler.Label(std::span<const Scalar>(batch.points)
                                    .subspan(static_cast<size_t>(r) * kDim,
                                             kDim));
    }
    input.batches.push_back(std::move(batch));
    input.labels.push_back(std::move(labels));
  }
  return input;
}

struct Pass {
  std::vector<double> ingest_s;
  std::vector<double> publish_s;
  double seconds = 0.0;
  double avg_f = 0.0;
  double arrivals = 0.0;
  StreamCounters counters;
  double rows_reused = 0.0;
  double rows_rebuilt = 0.0;
  double bytes_copied = 0.0;
  double steals = 0.0;
};

Pass RunPass(const Input& input, int batches, ThreadPool* pool,
             SpanTracer* tracer, uint64_t first_request,
             WorkloadReport* report) {
  Pass pass;
  const int64_t steals_before = pool->steal_count();
  WallTimer wall;
  const double intra = std::sqrt(2.0 * kDim) * input.cfg.spread;
  OnlineAlid online(kDim,
                    StreamOptions(intra, kWindow, 0, pool, input.lsh_seed));
  std::shared_ptr<const ClusterSnapshot> snapshot;
  std::vector<int> label_of_slot;
  Index since_refresh = 0;
  for (int t = 0; t < batches; ++t) {
    const bench::ScenarioBatch& batch = input.batches[t];
    SpanScope batch_span(tracer, "stream.batch", first_request + t);
    WallTimer ingest;
    std::vector<Index> slots;
    {
      SpanScope span(tracer, "online_alid.insert_batch");
      slots = online.InsertBatch(batch.points);
    }
    since_refresh += batch.rows;
    if (since_refresh >= kRefreshEvery) {
      SpanScope span(tracer, "online_alid.refresh");
      online.Refresh();
      since_refresh = 0;
    }
    pass.ingest_s.push_back(ingest.Seconds());
    const bool slots_ok =
        RecordSlots(slots, input.labels[t], online.size(), label_of_slot);
    if (report != nullptr) {
      report->Check(slots_ok, "batch " + std::to_string(t) +
                                  " returned an invalid slot list");
    }
    WallTimer publish;
    {
      SpanScope span(tracer, "serve.from_stream");
      snapshot = ClusterSnapshot::FromStream(online, pool, snapshot);
    }
    pass.publish_s.push_back(publish.Seconds());
    const SnapshotBuildInfo& info = snapshot->build_info();
    pass.rows_reused += info.rows_reused;
    pass.rows_rebuilt += info.rows_rebuilt;
    pass.bytes_copied += static_cast<double>(info.bytes_copied);
  }
  pass.seconds = wall.Seconds();
  pass.steals = static_cast<double>(pool->steal_count() - steals_before);

  std::vector<int> live(label_of_slot.size(), -1);
  for (size_t slot = 0; slot < live.size(); ++slot) {
    if (online.IsAlive(static_cast<Index>(slot))) {
      live[slot] = label_of_slot[slot];
    }
  }
  std::vector<IndexList> detected;
  for (const Cluster& cluster : online.clusters()) {
    detected.push_back(cluster.members);
  }
  pass.avg_f = LiveAvgF(live, detected, kMinTruth);
  pass.arrivals = static_cast<double>(online.size());
  pass.counters.Add(online);
  return pass;
}

}  // namespace

WorkloadReport RunStreamHeavyTail(const RunConfig& config) {
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
                            static_cast<uint64_t>(i) * kBatches + 1, &report);
        quality.Record(report, k, pass.avg_f);
        const double seconds = pass.seconds;
        (t != nullptr ? traced_passes : passes).push_back(std::move(pass));
        return seconds;
      });

  if (!config.trace) {
    std::vector<double> ingest, publish;
    std::vector<double> rates;
    double arrivals = 0.0, ingest_total = 0.0;
    for (const Pass& pass : passes) {
      ingest.insert(ingest.end(), pass.ingest_s.begin(), pass.ingest_s.end());
      publish.insert(publish.end(), pass.publish_s.begin(),
                     pass.publish_s.end());
      arrivals += pass.arrivals;
      for (const double s : pass.ingest_s) ingest_total += s;
      rates.push_back(Ratio(pass.arrivals, pass.seconds));
    }
    report.Set("setup_s", setup_s, "s");
    report.Set("items_per_s", Median(rates), "1/s");
    report.Set("latency_p50_s", Median(ingest), "s");
    report.Set("avg_f", quality.Mean(), "F1");
    report.Set("peak_mem_mb", PeakMemMb(), "MiB");
    report.Named("ingest_items_per_s", Ratio(arrivals, ingest_total), "1/s");
    report.Timing("ingest_batch_s", ingest, "s");
    report.NamedTail("ingest_batch_p90_s", ingest, 0.9, "s");
    report.Timing("publish_s", publish, "s");
    report.NamedTail("publish_p90_s", publish, 0.9, "s");
    return report;
  }

  const double units = static_cast<double>(traced_passes.size());
  const double batches = units * kBatches;

  StreamCounters counters;
  double rows_reused = 0.0, rows_rebuilt = 0.0, bytes_copied = 0.0;
  double steals = 0.0;
  for (const Pass& pass : traced_passes) {
    counters += pass.counters;
    steals += pass.steals;
    rows_reused += pass.rows_reused;
    rows_rebuilt += pass.rows_rebuilt;
    bytes_copied += pass.bytes_copied;
  }
  const auto layers = FoldSpans(tracer.Collect());
  PrintLayers(report, layers);
  report.Set("online_alid.insert_batch_busy_s",
             BusyPerUnit(layers, "online_alid.insert_batch", batches), "s");
  report.Set("online_alid.refresh_busy_s",
             BusyPerUnit(layers, "online_alid.refresh", batches), "s");
  report.Set("serve.from_stream_busy_s",
             BusyPerUnit(layers, "serve.from_stream", batches), "s");
  SetStreamMetrics(report, counters, units);
  report.Set("serve.rows_reused_ratio",
             Ratio(rows_reused, rows_reused + rows_rebuilt), "ratio");
  report.Set("serve.bytes_copied_per_publish", Ratio(bytes_copied, batches),
             "B");
  report.Set("pool.steals", steals / units, "count");
  report.NotRun({"serve.publish_swap_s", "serve.writer_late_s",
                 "serve.query_busy_s", "serve.sketch_prune_ratio",
                 "serve.assigned_ratio", "serve.history_ring_bytes"},
                "snapshots are built, never served");
  report.Set("trace.overhead_ratio", times.OverheadRatio(), "ratio");
  const std::string path = WriteSpans(tracer, config, "stream_heavy_tail");
  report.Line("spans written to " + (path.empty() ? "(failed)" : path));
  return report;
}

}  // namespace alid::perfbench

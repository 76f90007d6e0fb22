// palid_static — the paper's Table-2 job. Planted Gaussian clusters plus
// uniform noise (dim 128) go through a fresh LshIndex, a fresh oracle and
// Palid::Detect on a 4-executor pool; one timed unit is one whole job, from
// the input rows to the density-filtered result. core.palid, core.alid and
// affinity do nearly all the work; online_alid, serve and shard do none.

#include <algorithm>
#include <memory>
#include <optional>

#include "common/memory_tracker.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/palid.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "report.h"

namespace alid::perfbench {
namespace {

constexpr Index kPoints = 2400;
constexpr int kDim = 128;
constexpr int kClusters = 20;
constexpr double kClusteredFraction = 0.6;  // the rest is uniform noise
constexpr double kDensityThreshold = 0.75;
/// A job whose AVG-F falls below this has lost the planted clusters.
constexpr double kAvgFFloor = 0.5;
/// Seeds the traced run replays through AlidDetector::DetectOne.
constexpr int kReplaySeeds = 48;
/// Independent inputs per run: a run's numbers average over all of them.
constexpr int kInputs = 8;

struct Job {
  DetectionResult kept;
  PalidStats stats;
  int64_t entries = 0;
  int64_t pool_steals = 0;  // ThreadPool::steal_count() over the job
  double seconds = 0.0;
};

struct Input {
  LabeledData data;
  LshParams lsh;
  std::unique_ptr<AffinityFunction> affinity;
  uint64_t palid_seed = 0;
};

Input MakeInput(uint64_t seed) {
  SyntheticConfig cfg;
  cfg.n = kPoints;
  cfg.dim = kDim;
  cfg.num_clusters = kClusters;
  cfg.regime = SyntheticRegime::kProportional;
  cfg.omega = kClusteredFraction;
  cfg.seed = DeriveSeed(seed, 0x9A11D);
  Input input;
  input.data = MakeSynthetic(cfg);
  input.lsh.num_tables = 8;
  input.lsh.num_projections = 6;
  input.lsh.segment_length = input.data.suggested_lsh_r;
  input.lsh.seed = DeriveSeed(seed, 0x15B);
  input.affinity = std::make_unique<AffinityFunction>(
      AffinityParams{.k = input.data.suggested_k, .p = 2.0});
  input.palid_seed = DeriveSeed(seed, 0x5EED);
  return input;
}

PalidOptions JobOptions(const Input& input, ThreadPool* pool) {
  PalidOptions options;
  options.pool = pool;
  options.seed = input.palid_seed;
  return options;
}

Job RunJob(const Input& input, ThreadPool* pool, SpanTracer* tracer,
           uint64_t request) {
  Job job;
  const int64_t steals_before = pool->steal_count();
  WallTimer timer;
  SpanScope span(tracer, "palid.job", request);
  std::unique_ptr<LshIndex> lsh;
  {
    SpanScope build(tracer, "lsh.build");
    lsh = std::make_unique<LshIndex>(input.data.data, input.lsh);
  }
  std::unique_ptr<LazyAffinityOracle> oracle;
  {
    SpanScope build(tracer, "affinity.oracle_build");
    oracle = std::make_unique<LazyAffinityOracle>(input.data.data,
                                                  *input.affinity);
  }
  Palid palid(*oracle, *lsh, JobOptions(input, pool));
  DetectionResult raw;
  {
    SpanScope detect(tracer, "palid.detect");
    raw = palid.Detect(&job.stats);
  }
  job.kept = raw.Filtered(kDensityThreshold);
  job.entries = oracle->entries_computed();
  job.seconds = timer.Seconds();
  job.pool_steals = pool->steal_count() - steals_before;
  return job;
}

bool SameClusters(const DetectionResult& a, const DetectionResult& b) {
  if (a.clusters.size() != b.clusters.size()) return false;
  for (size_t c = 0; c < a.clusters.size(); ++c) {
    const Cluster& x = a.clusters[c];
    const Cluster& y = b.clusters[c];
    if (x.members != y.members || x.weights != y.weights ||
        x.density != y.density || x.seed != y.seed) {
      return false;
    }
  }
  return true;
}

// Serial replay of Algorithm 2 on an evenly spaced sample of PALID's seeds,
// with a fresh oracle so the entry count belongs to these runs alone.
void ReplayDetectOne(const Input& input, SpanTracer* tracer,
                     WorkloadReport& report) {
  LshIndex lsh(input.data.data, input.lsh);
  LazyAffinityOracle oracle(input.data.data, *input.affinity);
  const IndexList seeds =
      Palid(oracle, lsh, JobOptions(input, nullptr)).SampleSeeds();
  AlidDetector detector(oracle, lsh, PalidOptions{}.alid);
  std::vector<double> seconds;
  std::vector<double> support;
  const size_t count = std::min<size_t>(kReplaySeeds, seeds.size());
  const int64_t entries_before = oracle.entries_computed();
  for (size_t i = 0; i < count; ++i) {
    const Index seed = seeds[i * seeds.size() / count];
    WallTimer timer;
    SpanScope span(tracer, "alid.detect_one", 1000000 + i);
    const Cluster cluster = detector.DetectOne(seed);
    seconds.push_back(timer.Seconds());
    support.push_back(static_cast<double>(cluster.members.size()));
  }
  const double replayed = static_cast<double>(count);
  report.Set("alid.detect_one_p50_s", Median(seconds), "s");
  report.Set("alid.entries_per_detect_one",
             Ratio(static_cast<double>(oracle.entries_computed() -
                                       entries_before),
                   replayed),
             "count");
  report.Set("alid.support_size_p50", Median(support), "count");
  report.Timing("alid.detect_one (serial replay)", seconds, "s");
}

}  // namespace

WorkloadReport RunPalidStatic(const RunConfig& config) {
  WorkloadReport report;
  MemoryTracker::Global().Reset();
  ThreadPool pool(kThreads);

  // Set-up: every input's generation plus one warm-up job.
  std::vector<Input> inputs;
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    inputs.clear();
    for (int k = 0; k < kInputs; ++k) {
      inputs.push_back(MakeInput(DeriveSeed(config.seed, k + 1)));
    }
    RunJob(inputs[0], &pool, nullptr, 0);
  });

  // Every job must reproduce the first job on its input bit for bit and
  // keep AVG-F above the floor; a traced run measures per-layer numbers on
  // its traced jobs.
  std::vector<std::optional<DetectionResult>> reference(kInputs);
  std::vector<double> avg_f(kInputs, 0.0);
  std::vector<Job> traced_jobs;
  SpanTracer tracer;
  const RoundTimes times = RunCycles(
      config, &tracer, kInputs, [&](int k, int i, SpanTracer* t) {
        Job job = RunJob(inputs[k], &pool, t, 1 + i);
        const std::string id = "job " + std::to_string(i);
        if (!reference[k]) {
          reference[k] = job.kept;
          avg_f[k] = AverageF1(inputs[k].data.true_clusters, job.kept);
          report.Check(avg_f[k] >= kAvgFFloor,
                       id + " AVG-F " + std::to_string(avg_f[k]) +
                           " below floor");
        } else {
          report.Check(SameClusters(job.kept, *reference[k]),
                       id + " filtered clusters differ from the first job "
                            "on its input");
        }
        const double seconds = job.seconds;
        if (t != nullptr) traced_jobs.push_back(std::move(job));
        return seconds;
      });

  if (!config.trace) {
    double f = 0.0;
    for (const double x : avg_f) f += x / kInputs;
    std::vector<double> rates;
    for (const double s : times.plain) rates.push_back(Ratio(kPoints, s));
    report.Set("setup_s", setup_s, "s");
    report.Set("items_per_s", Median(rates), "1/s");
    report.Set("latency_p50_s", Median(times.plain), "s");
    report.Set("avg_f", f, "F1");
    report.Set("peak_mem_mb", PeakMemMb(), "MiB");
    // The named end-to-end metrics: one job ingests all its points as one
    // batch, so detect_s is also the ingest batch time.
    report.Timing("detect_s", times.plain, "s");
    report.Named("ingest_items_per_s", Median(rates), "1/s");
    return report;
  }

  const double units = static_cast<double>(traced_jobs.size());
  double task_sum = 0.0, task_max = 0.0, task_mean = 0.0, steals = 0.0;
  double pool_steals = 0.0;
  double seeds = 0.0, kept = 0.0, entries = 0.0, hits = 0.0, evictions = 0.0;
  double concurrency = 0.0;
  for (const Job& job : traced_jobs) {
    const std::vector<double>& tasks = job.stats.task_seconds;
    double sum = 0.0, max = 0.0;
    for (const double t : tasks) {
      sum += t;
      max = std::max(max, t);
    }
    task_sum += sum;
    task_max += max;
    task_mean += tasks.empty() ? 0.0 : sum / static_cast<double>(tasks.size());
    concurrency += Ratio(sum, job.stats.wall_seconds);
    steals += static_cast<double>(job.stats.steals);
    pool_steals += static_cast<double>(job.pool_steals);
    seeds += job.stats.num_seeds;
    kept += static_cast<double>(job.kept.clusters.size());
    entries += static_cast<double>(job.entries);
    hits += static_cast<double>(job.stats.cache_hits);
    evictions += static_cast<double>(job.stats.cache_evictions);
  }
  const auto layers = FoldSpans(tracer.Collect());
  PrintLayers(report, layers);
  report.Set("palid.detect_busy_s",
             BusyPerUnit(layers, "palid.detect", units), "s");
  report.Set("lsh.build_s", BusyPerUnit(layers, "lsh.build", units), "s");
  report.Set("palid.task_busy_sum_s", task_sum / units, "s");
  report.Set("palid.task_busy_max_s", task_max / units, "s");
  report.Set("palid.concurrency", concurrency / units, "ratio");
  report.Set("palid.task_imbalance", Ratio(task_max, task_mean), "ratio");
  report.Set("palid.steals", steals / units, "count");
  report.Set("palid.kept_cluster_ratio", Ratio(kept, seeds), "ratio");
  report.Set("affinity.entries_computed", entries / units, "count");
  report.Set("affinity.entries_per_arrival", entries / units / kPoints,
             "count");
  report.Set("affinity.cache_hit_ratio", Ratio(hits, hits + entries),
             "ratio");
  report.Set("affinity.cache_evictions", evictions / units, "count");
  report.Set("pool.steals", pool_steals / units, "count");
  {
    LshIndex lsh(inputs[0].data.data, inputs[0].lsh);
    report.Set("lsh.mean_candidates_per_item", lsh.MeanCandidatesPerItem(),
               "count");
  }
  ReplayDetectOne(inputs[0], &tracer, report);
  report.Set("trace.overhead_ratio", times.OverheadRatio(), "ratio");
  const std::string path = WriteSpans(tracer, config, "palid_static");
  report.Line("spans written to " + (path.empty() ? "(failed)" : path));
  return report;
}

}  // namespace alid::perfbench

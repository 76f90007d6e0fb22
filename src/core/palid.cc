#include "core/palid.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <unordered_set>

#include "common/check.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace alid {

namespace {

// Process-lifetime PALID totals on the global registry: every Detect() call
// accumulates here regardless of which Palid instance ran it, so long-lived
// hosts (benches, services re-detecting periodically) expose cumulative
// batch-detection work next to the arena/memory gauges. Per-run numbers stay
// in PalidStats — these counters only ever add run totals.
struct PalidCounters {
  obs::Counter* runs;
  obs::Counter* seeds;
  obs::Counter* tasks;
  obs::Counter* clusters;
  obs::Counter* steals;
  obs::Counter* entries_computed;
};

PalidCounters& GlobalPalidCounters() {
  static PalidCounters* counters = [] {
    auto* c = new PalidCounters();
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    c->runs = r.AddCounter("palid_runs");
    c->seeds = r.AddCounter("palid_seeds");
    c->tasks = r.AddCounter("palid_tasks");
    c->clusters = r.AddCounter("palid_clusters");
    c->steals = r.AddCounter("palid_steals");
    c->entries_computed = r.AddCounter("palid_entries_computed");
    return c;
  }();
  return *counters;
}

}  // namespace

Palid::Palid(const LazyAffinityOracle& oracle, const LshIndex& lsh,
             PalidOptions options)
    : oracle_(&oracle), lsh_(&lsh), options_(options) {
  ALID_CHECK(options_.num_executors >= 1);
  ALID_CHECK(options_.seed_sample_rate > 0.0 &&
             options_.seed_sample_rate <= 1.0);
}

IndexList Palid::SampleSeeds() const {
  // Counter-based sampling: item i of a qualifying bucket is a seed iff
  // HashToUnit(seed, i) < rate. The decision depends only on (seed, i), so
  // the sampled set is invariant under bucket iteration order — unordered_map
  // order is not part of the contract — and items in several large buckets
  // are sampled once, not once per bucket.
  std::unordered_set<Index> seeds;
  lsh_->VisitBuckets(options_.min_bucket_size,
                     [&](std::span<const Index> items) {
                       for (Index i : items) {
                         if (HashToUnit(options_.seed,
                                        static_cast<uint64_t>(i)) <
                             options_.seed_sample_rate) {
                           seeds.insert(i);
                         }
                       }
                     });
  IndexList out(seeds.begin(), seeds.end());
  std::sort(out.begin(), out.end());
  return out;
}

DetectionResult Palid::Detect(PalidStats* stats) const {
  ALID_TRACE_SCOPE("palid", "detect");
  const IndexList seeds = SampleSeeds();
  AlidDetector detector(*oracle_, *lsh_, options_.alid);

  const int64_t entries_before = oracle_->entries_computed();

  WallTimer wall;
  const int num_seeds = static_cast<int>(seeds.size());
  // Chunking depends on the seed count only — never on num_executors — so
  // task boundaries, and with them the per-task RNG streams below, are
  // identical under every executor count. 64 tasks give ample stealing
  // slack for any plausible executor width at negligible pool overhead.
  const int chunk = std::max(1, (num_seeds + 63) / 64);
  const int num_tasks = num_seeds == 0 ? 0 : (num_seeds + chunk - 1) / chunk;

  // Per-seed result slots: task t detects seeds [t*chunk, t*chunk+chunk) and
  // writes only its own slots, so no result lock exists and the reduce below
  // sees detections in seed order no matter how tasks were scheduled.
  std::vector<Cluster> raw(num_seeds);
  std::vector<double> task_seconds(num_tasks, 0.0);
  int64_t steals = 0;
  {
    ALID_TRACE_SCOPE("palid", "map");
    // An external pool (options.pool) lets benches run PALID and the
    // parallel baselines on one substrate; otherwise the run owns a pool
    // sized to num_executors. Either way the map tasks and their chunking
    // are identical — the executor pool never influences results.
    std::unique_ptr<ThreadPool> owned;
    ThreadPool* pool = options_.pool;
    if (pool == nullptr) {
      owned = std::make_unique<ThreadPool>(options_.num_executors);
      pool = owned.get();
    }
    const int64_t steals_before = pool->steal_count();
    for (int t = 0; t < num_tasks; ++t) {
      pool->Post([&, t] {
        // Map task: a chunk of independent Algorithm 2 runs (Figure 5's
        // mappers). Any stochastic choice a task ever needs must draw from
        // a stream keyed by (options.seed, task id) — e.g.
        // Rng(SplitMix64(options.seed ^ t)) — never by the executor id;
        // with task boundaries executor-independent (see chunking above),
        // such choices replay identically under every executor count. The
        // current map stage is fully deterministic (DetectOne draws nothing;
        // seed sampling uses counter-based HashToUnit streams), so no
        // generator is instantiated here.
        WallTimer task_timer;
        const int lo = t * chunk;
        const int hi = std::min(num_seeds, lo + chunk);
        for (int s = lo; s < hi; ++s) raw[s] = detector.DetectOne(seeds[s]);
        task_seconds[t] = task_timer.Seconds();
      });
    }
    pool->Wait();
    steals = pool->steal_count() - steals_before;
  }

  // Reduce: each item goes to its maximum-density containing cluster (the
  // DetectionResult::Assignment rule, first cluster on ties); a cluster
  // survives iff it wins at least one item. Duplicate detections of
  // the same dominant cluster collapse to one survivor. `raw` is in seed
  // order, so survivors come out deterministically too.
  const Index n = oracle_->size();
  DetectionResult result;
  {
    ALID_TRACE_SCOPE("palid", "reduce");
    DetectionResult all{std::move(raw)};
    std::vector<bool> wins(all.clusters.size(), false);
    for (int c : all.Assignment(n)) {
      if (c >= 0) wins[c] = true;
    }
    for (size_t c = 0; c < all.clusters.size(); ++c) {
      if (wins[c]) result.clusters.push_back(std::move(all.clusters[c]));
    }
  }

  const int64_t run_entries = oracle_->entries_computed() - entries_before;
  PalidCounters& totals = GlobalPalidCounters();
  totals.runs->Add(1);
  totals.seeds->Add(num_seeds);
  totals.tasks->Add(num_tasks);
  totals.clusters->Add(static_cast<int64_t>(result.clusters.size()));
  totals.steals->Add(steals);
  totals.entries_computed->Add(run_entries);

  if (stats != nullptr) {
    stats->num_seeds = num_seeds;
    stats->num_tasks = num_tasks;
    stats->wall_seconds = wall.Seconds();
    stats->total_task_seconds =
        std::accumulate(task_seconds.begin(), task_seconds.end(), 0.0);
    stats->steals = steals;
    stats->entries_computed = run_entries;
    stats->task_seconds = std::move(task_seconds);
  }
  return result;
}

}  // namespace alid

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
// in PalidStats — these counters only ever add run totals: `seeds` the
// sampled seeds, `tasks` the detections run.
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

// Seeds per wave. A wave's detections run concurrently and cannot skip one
// another, so the size trades executor occupancy against repeated work: 32
// gives the paper's widest sweep (8 executors) four detections each to
// balance, while a first wave of 32 hashed seeds already reaches most
// planted clusters and so lets later waves skip most of their seeds.
constexpr int kWaveSize = 32;
// Salts the visiting-order hash apart from the sampling hash (which is
// keyed by options.seed alone and decides membership, not order).
constexpr uint64_t kOrderSalt = 0x0D5EED0D5EED0D5EULL;
// Seeds are sampled from every LSH bucket holding at least this many items
// (paper: more than 5).
constexpr int kMinBucketSize = 6;
// Uniform within-bucket sample rate for seeds (paper: 20%). Sampling is
// counter-based (HashToUnit keyed by item id), so the sampled set is
// independent of bucket iteration order and platform.
constexpr double kSeedSampleRate = 0.2;

}  // namespace

Palid::Palid(const LazyAffinityOracle& oracle, const LshIndex& lsh,
             PalidOptions options)
    : oracle_(&oracle), lsh_(&lsh), options_(options) {
  ALID_CHECK(options_.num_executors >= 1);
}

IndexList Palid::SampleSeeds() const {
  // Counter-based sampling: item i of a qualifying bucket is a seed iff
  // HashToUnit(seed, i) < rate. The decision depends only on (seed, i), so
  // the sampled set is invariant under bucket iteration order — unordered_map
  // order is not part of the contract — and items in several large buckets
  // are sampled once, not once per bucket.
  std::unordered_set<Index> seeds;
  lsh_->VisitBuckets(kMinBucketSize, [&](std::span<const Index> items) {
    for (Index i : items) {
      if (HashToUnit(options_.seed, static_cast<uint64_t>(i)) <
          kSeedSampleRate) {
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
  const AlidOptions& alid = options_.alid;
  const Index n = oracle_->size();

  const int64_t entries_before = oracle_->entries_computed();

  WallTimer wall;
  const int num_seeds = static_cast<int>(seeds.size());
  // Visiting order: a counter-based hash of (options.seed, seed id), so every
  // wave draws from all planted clusters alike. Id order would not do: a
  // generator that stores each cluster contiguously would fill a wave with
  // the seeds of two or three clusters, and the next wave would find few of
  // its seeds covered.
  std::vector<int> order(num_seeds);
  std::iota(order.begin(), order.end(), 0);
  {
    std::vector<double> key(num_seeds);
    for (int s = 0; s < num_seeds; ++s) {
      key[s] = HashToUnit(options_.seed ^ kOrderSalt,
                          static_cast<uint64_t>(seeds[s]));
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return key[a] != key[b] ? key[a] < key[b] : a < b;
    });
  }

  // Per-seed result slots: a detection writes only its own slot, so no
  // result lock exists and the reduce below sees detections in seed order no
  // matter how they were scheduled.
  std::vector<Cluster> raw(num_seeds);
  std::vector<bool> detected(num_seeds, false);
  // Items held by a kept cluster of a finished wave; a seed among them is
  // skipped. Later detections still see every item.
  std::vector<bool> covered(n, false);
  std::vector<double> task_seconds;
  std::vector<Index> task_seeds;
  std::vector<int> task_waves;
  int64_t steals = 0;
  {
    ALID_TRACE_SCOPE("palid", "map");
    // An external pool (options.pool) lets benches run PALID and the
    // parallel baselines on one substrate; otherwise the run owns a pool
    // sized to num_executors. Either way the waves and their detections are
    // identical — the executor pool never influences results.
    std::unique_ptr<ThreadPool> owned;
    ThreadPool* pool = options_.pool;
    if (pool == nullptr) {
      owned = std::make_unique<ThreadPool>(options_.num_executors);
      pool = owned.get();
    }
    const int64_t steals_before = pool->steal_count();
    std::vector<int> wave;
    for (int lo = 0; lo < num_seeds; lo += kWaveSize) {
      // A wave's membership depends only on the visiting order and on the
      // kept clusters of earlier waves, never on the executors.
      wave.clear();
      const int hi = std::min(num_seeds, lo + kWaveSize);
      for (int k = lo; k < hi; ++k) {
        if (!covered[seeds[order[k]]]) wave.push_back(order[k]);
      }
      const size_t first = task_seconds.size();
      task_seconds.resize(first + wave.size(), 0.0);
      for (size_t w = 0; w < wave.size(); ++w) {
        const int s = wave[w];
        task_seeds.push_back(seeds[s]);
        task_waves.push_back(lo / kWaveSize);
        detected[s] = true;
        pool->Post([&, s, slot = first + w] {
          // Map task: one Algorithm 2 run (Figure 5's mappers). Any
          // stochastic choice a detection ever needs must draw from a
          // stream keyed by (options.seed, seed id), never by the executor
          // id. The current map stage draws nothing (DetectOne is
          // deterministic; sampling and the visiting order use
          // counter-based HashToUnit streams).
          WallTimer task_timer;
          raw[s] = detector.DetectOne(seeds[s]);
          task_seconds[slot] = task_timer.Seconds();
        });
      }
      pool->Wait();
      for (const int s : wave) {
        const Cluster& c = raw[s];
        if (c.density >= alid.density_threshold &&
            static_cast<int>(c.members.size()) >= kMinClusterSize) {
          for (const Index i : c.members) covered[i] = true;
        }
      }
    }
    steals = pool->steal_count() - steals_before;
  }

  // Reduce: each item goes to its maximum-density containing cluster (the
  // DetectionResult::Assignment rule, first cluster on ties); a cluster
  // survives iff it wins at least one item. Duplicate detections of
  // the same dominant cluster collapse to one survivor. The detections are
  // reduced in seed order, so survivors come out deterministically too.
  const int num_tasks = static_cast<int>(task_seconds.size());
  DetectionResult result;
  {
    ALID_TRACE_SCOPE("palid", "reduce");
    DetectionResult all;
    all.clusters.reserve(num_tasks);
    for (int s = 0; s < num_seeds; ++s) {
      if (detected[s]) all.clusters.push_back(std::move(raw[s]));
    }
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
    stats->task_seeds = std::move(task_seeds);
    stats->task_waves = std::move(task_waves);
  }
  return result;
}

}  // namespace alid

#ifndef ALID_CORE_PALID_H_
#define ALID_CORE_PALID_H_

#include <cstdint>
#include <vector>

#include "core/alid.h"

namespace alid {

class ThreadPool;

/// Options of Parallel ALID (Algorithm 3, Section 4.6).
struct PalidOptions {
  /// Number of executors (worker threads). The paper's Table 2 sweeps
  /// 1/2/4/8 Spark executors; here each executor is a thread-pool worker.
  int num_executors = 4;
  /// Seeds are sampled from every LSH bucket holding more than this many
  /// items (paper: 5).
  int min_bucket_size = 6;
  /// Uniform within-bucket sample rate for seeds (paper: 20%). Sampling is
  /// counter-based (HashToUnit keyed by item id), so the sampled set is
  /// independent of bucket iteration order and platform.
  double seed_sample_rate = 0.2;
  /// Seed-sampling randomness; also the root of the per-task RNG streams.
  uint64_t seed = 42;
  /// Seeds per map task. Each task runs `chunk_size` consecutive seeds so
  /// scheduling stays coarse enough to amortize pool overhead; 0 picks a
  /// size giving about 64 tasks total, independent of num_executors (so the
  /// per-task RNG streams are too). Results never depend on the chunking:
  /// every detection writes the slot of its seed.
  int chunk_size = 0;
  /// Work-stealing executors (default). false falls back to the original
  /// single-FIFO-queue pool — the paper-faithful coarse-Spark-task ablation.
  bool work_stealing = true;
  /// Optional externally owned executor pool — e.g. the one the parallel
  /// baselines run on, so a bench sweep exercises PALID and its competitors
  /// on the same substrate. When set, the map stage runs on it and
  /// num_executors / work_stealing are taken from the pool itself. Detect()
  /// must be the pool's only client until it returns (its completion barrier
  /// waits for every job posted to the pool).
  ThreadPool* pool = nullptr;
  /// Per-map-task ALID options.
  AlidOptions alid;
};

/// Statistics of one PALID run, for the Table 2 harness: wall time, the
/// aggregate busy time across map tasks (whose ratio to wall time shows the
/// realized parallelism even on machines with few physical cores), executor
/// steal counts, kernel evaluations, and the per-task busy times from which
/// the bench prints a load-balance histogram.
struct PalidStats {
  int num_seeds = 0;
  int num_tasks = 0;
  double wall_seconds = 0.0;
  double total_task_seconds = 0.0;
  /// Map tasks executed by an executor other than the one they were queued
  /// on (0 under the FIFO ablation).
  int64_t steals = 0;
  /// Kernel evaluations performed during this run (the Table 1 count).
  /// Every seed's run is pure, so this is identical for every executor
  /// count, chunk size and scheduling discipline.
  int64_t entries_computed = 0;
  /// Always 0: read by the repository benchmark; removed at its next revision.
  int64_t cache_hits = 0;
  /// Always 0: read by the repository benchmark; removed at its next revision.
  int64_t cache_evictions = 0;
  /// Busy seconds of each map task, in task order.
  std::vector<double> task_seconds;

  /// Histogram of task_seconds over `bins` equal-width buckets spanning
  /// [0, max task time] — the load-balance profile of the map stage.
  std::vector<int> TaskHistogram(int bins = 8) const;
};

/// Parallel ALID. The map stage runs Algorithm 2 independently from every
/// sampled seed on a work-stealing thread pool (one task per seed chunk,
/// executors = workers); the reduce stage assigns each data item to the
/// containing cluster of maximum density, exactly as Algorithm 3's reducer
/// does. Detections are written into per-seed slots and reduced in seed
/// order, so the output is identical for every executor count, chunk size
/// and scheduling discipline.
class Palid {
 public:
  Palid(const LazyAffinityOracle& oracle, const LshIndex& lsh,
        PalidOptions options = {});

  /// Runs the full map/reduce. The result's clusters are the per-seed
  /// detections deduplicated by the reduce rule; apply Filtered() for the
  /// paper's density cut. Besides the optional per-run PalidStats, every
  /// call accumulates its totals onto the global metrics registry's
  /// `palid_*` counters (runs/seeds/tasks/clusters/steals/entries_computed)
  /// and emits "palid" detect/map/reduce trace spans.
  DetectionResult Detect(PalidStats* stats = nullptr) const;

  /// Seed sampling of Section 4.6: uniform 20% from each LSH bucket with
  /// more than min_bucket_size items, deduplicated.
  IndexList SampleSeeds() const;

 private:
  const LazyAffinityOracle* oracle_;
  const LshIndex* lsh_;
  PalidOptions options_;
};

}  // namespace alid

#endif  // ALID_CORE_PALID_H_

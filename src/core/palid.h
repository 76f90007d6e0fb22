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
  /// Seed-sampling randomness; also keys the order the map visits the
  /// seeds in.
  uint64_t seed = 42;
  /// Optional externally owned executor pool — e.g. the one the parallel
  /// baselines run on, so a bench sweep exercises PALID and its competitors
  /// on the same substrate. When set, the map stage runs on it and
  /// num_executors is taken from the pool itself. Detect()
  /// must be the pool's only client until it returns (its completion barrier
  /// waits for every job posted to the pool).
  ThreadPool* pool = nullptr;
  /// Per-detection ALID options. Their density_threshold, with
  /// kMinClusterSize, also decides which detections cover items for the
  /// seed skip (see Palid).
  AlidOptions alid;
};

/// Statistics of one PALID run, for the Table 2 harness: wall time, the
/// aggregate busy time across map tasks (whose ratio to wall time shows the
/// realized parallelism even on machines with few physical cores), executor
/// steal counts, kernel evaluations, and the per-detection busy times.
struct PalidStats {
  /// Sampled seeds, skipped ones included.
  int num_seeds = 0;
  /// Detections run: one map task each. num_seeds - num_tasks seeds were
  /// skipped because a kept cluster of an earlier wave holds them.
  int num_tasks = 0;
  double wall_seconds = 0.0;
  double total_task_seconds = 0.0;
  /// Map tasks executed by an executor other than the one they were queued
  /// on.
  int64_t steals = 0;
  /// Kernel evaluations performed during this run (the Table 1 count).
  /// Every detection is pure and the waves do not depend on the executors,
  /// so this is identical for every executor count and schedule.
  int64_t entries_computed = 0;
  /// Always 0: read by the repository benchmark; removed at its next revision.
  int64_t cache_hits = 0;
  /// Always 0: read by the repository benchmark; removed at its next revision.
  int64_t cache_evictions = 0;
  /// Busy seconds of each detection, in visiting order.
  std::vector<double> task_seconds;
  /// Seed of each detection, parallel to task_seconds.
  IndexList task_seeds;
  /// Wave of each detection, parallel to task_seconds (0-based; a wave
  /// whose seeds were all skipped leaves a gap).
  std::vector<int> task_waves;
};

/// Parallel ALID. The map stage runs Algorithm 2 from the sampled seeds on a
/// work-stealing thread pool (one task per detection, executors = workers);
/// the reduce stage assigns each data item to the containing cluster of
/// maximum density, exactly as Algorithm 3's reducer does.
///
/// The map peels in waves, the parallel form of serial ALID's peel (Section
/// 4.4): it visits the seeds in a hashed order, a fixed number per wave, and
/// skips a seed that a kept cluster of an earlier wave holds (kept: density
/// >= alid.density_threshold and at least kMinClusterSize members, the
/// Filtered rule). A skipped seed's detection would find that cluster again
/// and lose the reduce to it. Only starts are skipped: every detection still
/// sees every item. Waves depend only on the seeds, options.seed and earlier
/// waves' results, and the detections run are reduced in seed order, so the
/// output is identical for every executor count and schedule.
class Palid {
 public:
  Palid(const LazyAffinityOracle& oracle, const LshIndex& lsh,
        PalidOptions options = {});

  /// Runs the full map/reduce. The result's clusters are the detections
  /// run, deduplicated by the reduce rule; apply Filtered() for the
  /// paper's density cut. Besides the optional per-run PalidStats, every
  /// call accumulates its totals onto the global metrics registry's
  /// `palid_*` counters (runs/seeds/tasks/clusters/steals/entries_computed)
  /// and emits "palid" detect/map/reduce trace spans.
  DetectionResult Detect(PalidStats* stats = nullptr) const;

  /// Seed sampling of Section 4.6: uniform 20% from each LSH bucket with
  /// more than 5 items, deduplicated, in ascending id order.
  IndexList SampleSeeds() const;

 private:
  const LazyAffinityOracle* oracle_;
  const LshIndex* lsh_;
  PalidOptions options_;
};

}  // namespace alid

#endif  // ALID_CORE_PALID_H_

#ifndef ALID_BENCH_BENCH_UTIL_H_
#define ALID_BENCH_BENCH_UTIL_H_

// Shared harness for the per-figure/per-table benchmarks. Each one prints
// the rows/series of one paper artifact (Tables 1-2, Figs. 6-11; see the
// README's "Benchmarks" section). Sizes are laptop-friendly by default; set
// ALID_BENCH_SCALE >= 1 to enlarge them toward the paper's grids.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "affinity/affinity_matrix.h"
#include "affinity/sparsifier.h"
#include "baselines/ap.h"
#include "baselines/iid.h"
#include "baselines/sea.h"
#include "common/memory_tracker.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/alid.h"
#include "data/labeled_data.h"
#include "eval/metrics.h"
#include "lsh/lsh_index.h"
#include "obs/metrics.h"
#include "registry.h"

namespace alid::bench {

/// Global size multiplier from ALID_BENCH_SCALE (default 1.0 when unset or
/// empty). Delegates to the registry's shared parser, so the env variable,
/// --scale and this helper agree on validity — a malformed value exits
/// loudly instead of silently running default sizes.
inline double Scale() {
  const char* s = std::getenv("ALID_BENCH_SCALE");
  if (s == nullptr || *s == '\0') return 1.0;
  return ParseBenchScaleOrDie(s, "ALID_BENCH_SCALE");
}

inline Index Scaled(double base) {
  return static_cast<Index>(base * Scale());
}

/// One measured run of one method on one configuration.
struct RunStats {
  std::string method;
  double avg_f = 0.0;
  double seconds = 0.0;
  int64_t peak_bytes = 0;       // algorithmic memory (see RunAlid for ALID)
  int64_t entries = 0;          // affinity entries computed (when known)
  int num_dense_clusters = 0;   // clusters above the density threshold
};

/// The standard LSH parameters of this harness; `r_scale` multiplies the
/// generator-suggested segment length (the Fig. 6 sweep axis).
inline LshParams MakeLshParams(const LabeledData& data, double r_scale = 1.0,
                               int tables = 8, int projections = 6) {
  LshParams lp;
  lp.num_tables = tables;
  lp.num_projections = projections;
  lp.segment_length = data.suggested_lsh_r * r_scale;
  return lp;
}

/// Runs ALID end to end (LSH build included, as the paper's timings include
/// all indexing cost).
inline RunStats RunAlid(const LabeledData& data, double r_scale = 1.0,
                        AlidOptions options = {}) {
  MemoryTracker::Global().Reset();
  WallTimer timer;
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  LazyAffinityOracle oracle(data.data, affinity);
  LshIndex lsh(data.data, MakeLshParams(data, r_scale));
  AlidDetector detector(oracle, lsh, options);
  DetectionResult result = detector.DetectAll();
  RunStats stats;
  stats.method = "ALID";
  stats.seconds = timer.Seconds();
  // Algorithmic memory: the live local matrices (Charge/Discharge), i.e. the
  // paper's O(a*(a*+delta)) cost the figures verify.
  stats.peak_bytes = oracle.peak_bytes();
  stats.entries = oracle.entries_computed();
  DetectionResult kept = result.Filtered(options.density_threshold);
  stats.num_dense_clusters = static_cast<int>(kept.clusters.size());
  stats.avg_f = AverageF1(data.true_clusters, kept);
  return stats;
}

/// Runs IID on the LSH-sparsified matrix (r_scale < 0 means the fully dense
/// materialized matrix, the paper's default outside Fig. 6).
inline RunStats RunIid(const LabeledData& data, double r_scale = -1.0) {
  MemoryTracker::Global().Reset();
  WallTimer timer;
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  RunStats stats;
  stats.method = "IID";
  DetectionResult result;
  if (r_scale < 0.0) {
    AffinityMatrix matrix(data.data, affinity);
    stats.entries = matrix.entries_computed();
    IidDetector iid{AffinityView(&matrix.matrix())};
    result = iid.DetectAll();
    stats.seconds = timer.Seconds();
    stats.peak_bytes = MemoryTracker::Global().peak_bytes();
  } else {
    LshIndex lsh(data.data, MakeLshParams(data, r_scale));
    SparseMatrix sparse =
        Sparsifier::FromLshCollisions(data.data, affinity, lsh);
    ScopedMemoryCharge charge(static_cast<int64_t>(sparse.MemoryBytes()));
    stats.entries = sparse.nnz() / 2;
    IidDetector iid{AffinityView(&sparse)};
    result = iid.DetectAll();
    stats.seconds = timer.Seconds();
    stats.peak_bytes = MemoryTracker::Global().peak_bytes();
  }
  DetectionResult kept = result.Filtered(0.75);
  stats.num_dense_clusters = static_cast<int>(kept.clusters.size());
  stats.avg_f = AverageF1(data.true_clusters, kept);
  return stats;
}

/// Runs SEA on the LSH-sparsified matrix (its native input; r_scale < 0 uses
/// the dense matrix expressed as CSR). `pool` runs the replicator sweeps on
/// a shared executor pool (output bit-identical to the serial run).
inline RunStats RunSea(const LabeledData& data, double r_scale = 1.0,
                       ThreadPool* pool = nullptr) {
  MemoryTracker::Global().Reset();
  WallTimer timer;
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  RunStats stats;
  stats.method = "SEA";
  SparseMatrix sparse;
  if (r_scale < 0.0) {
    sparse = Sparsifier::Dense(data.data, affinity);
  } else {
    LshIndex lsh(data.data, MakeLshParams(data, r_scale));
    sparse = Sparsifier::FromLshCollisions(data.data, affinity, lsh);
  }
  ScopedMemoryCharge charge(static_cast<int64_t>(sparse.MemoryBytes()));
  stats.entries = sparse.nnz() / 2;
  SeaDetector sea{AffinityView(&sparse), {.pool = pool}};
  DetectionResult result = sea.DetectAll();
  stats.seconds = timer.Seconds();
  stats.peak_bytes = MemoryTracker::Global().peak_bytes();
  DetectionResult kept = result.Filtered(0.6);
  stats.num_dense_clusters = static_cast<int>(kept.clusters.size());
  stats.avg_f = AverageF1(data.true_clusters, kept);
  return stats;
}

/// Runs AP; r_scale < 0 uses the dense matrix, otherwise the LSH-sparsified
/// one (with a preference below the surviving intra-cluster similarities).
/// `pool` runs the message sweeps on a shared executor pool (output
/// bit-identical to the serial run).
inline RunStats RunAp(const LabeledData& data, double r_scale = -1.0,
                      int max_iterations = 200, ThreadPool* pool = nullptr) {
  MemoryTracker::Global().Reset();
  WallTimer timer;
  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  RunStats stats;
  stats.method = "AP";
  ApOptions opts;
  opts.max_iterations = max_iterations;
  opts.pool = pool;
  DetectionResult result;
  if (r_scale < 0.0) {
    AffinityMatrix matrix(data.data, affinity);
    stats.entries = matrix.entries_computed();
    ApDetector ap{AffinityView(&matrix.matrix()), opts};
    result = ap.Detect();
  } else {
    LshIndex lsh(data.data, MakeLshParams(data, r_scale));
    SparseMatrix sparse =
        Sparsifier::FromLshCollisions(data.data, affinity, lsh);
    ScopedMemoryCharge charge(static_cast<int64_t>(sparse.MemoryBytes()));
    stats.entries = sparse.nnz() / 2;
    opts.preference = 0.01;
    ApDetector ap{AffinityView(&sparse), opts};
    result = ap.Detect();
  }
  stats.seconds = timer.Seconds();
  stats.peak_bytes = MemoryTracker::Global().peak_bytes();
  // AP partitions everything; score only its coherent clusters.
  DetectionResult kept = result.Filtered(0.5);
  stats.num_dense_clusters = static_cast<int>(kept.clusters.size());
  stats.avg_f = AverageF1(data.true_clusters, result);
  return stats;
}

/// LID work from the global registry's `lid_iterations`,
/// `lid_iteration_entries` and `lid_capped_runs` counters (0 before the
/// first Lid::Run registers them). Rows report the difference of two
/// readings; all three counts are deterministic, so they carry the LID
/// layer into the trajectory without a profiler.
struct LidWork {
  int64_t iterations = 0;
  int64_t iteration_entries = 0;
  int64_t capped_runs = 0;

  static LidWork Read() {
    LidWork w;
    for (const obs::MetricSample& s :
         obs::MetricsRegistry::Global().Snapshot()) {
      if (s.name == "lid_iterations") w.iterations = s.value;
      if (s.name == "lid_iteration_entries") w.iteration_entries = s.value;
      if (s.name == "lid_capped_runs") w.capped_runs = s.value;
    }
    return w;
  }
  LidWork operator-(const LidWork& earlier) const {
    return {iterations - earlier.iterations,
            iteration_entries - earlier.iteration_entries,
            capped_runs - earlier.capped_runs};
  }
};

/// Linear-interpolated q-quantile of `values` (sorts a copy). Shared by the
/// stream and serve latency columns so the percentile convention behind the
/// trajectory record's p50/p95/p99 keys can never diverge between benches.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

inline void PrintStatsRow(const char* config, const RunStats& s) {
  std::printf("%-26s %-6s  AVG-F %.3f  time %8.3fs  mem %9.2f MB"
              "  entries %10lld  clusters %d\n",
              config, s.method.c_str(), s.avg_f, s.seconds,
              static_cast<double>(s.peak_bytes) / (1024.0 * 1024.0),
              static_cast<long long>(s.entries), s.num_dense_clusters);
}

/// Least-squares slope of log(y) against log(x) — the empirical order of
/// growth read off the paper's log-log plots.
inline double LogLogSlope(const std::vector<double>& x,
                          const std::vector<double>& y) {
  const size_t n = x.size();
  if (n < 2) return 0.0;
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double lx = std::log(x[i]);
    const double ly = std::log(std::max(y[i], 1e-12));
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double denom = n * sxx - sx * sx;
  return denom == 0.0 ? 0.0 : (n * sxy - sx * sy) / denom;
}

}  // namespace alid::bench

#endif  // ALID_BENCH_BENCH_UTIL_H_

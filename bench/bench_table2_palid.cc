// Table 2 — PALID parallel performance (Section 5.3/4.6).
//
// Runs PALID on a SIFT-like workload with 1/2/4/8 executors and reports wall
// time (the median of kRunsPerRow runs), the speedup ratio against 1
// executor, the aggregate map-task time and the kernel-evaluation count
// (`entries`: each unordered pair once per detection, never the diagonal).
// PALID's map skips a seed that a kept cluster of an earlier wave holds, so
// `entries` counts the detected seeds only (`num_tasks` of `num_seeds` in
// the JSON record); the waves do not depend on the executors, so it is
// still identical at every executor count. On the paper's 8-core Spark
// cluster the speedup reaches 7.51 at 8 executors; on this host the
// wall-clock speedup saturates at the physical core count, so the
// aggregate-task-time / wall-time ratio is also printed — it shows the
// realized concurrency of the executor pool independent of the hardware.
//
// Each row also carries the LID work of one detection run
// (`lid_iterations`, `lid_iteration_entries`, `lid_capped_runs`), as
// deterministic as `entries`.
//
// The last line is a single-line JSON record of the sweep for the bench
// trajectory (machine-readable, stable key names).
#include <algorithm>
#include <vector>

#include "bench_util.h"
#include "registry.h"

#include "core/palid.h"
#include "data/sift_like.h"
#include "eval/metrics.h"

namespace alid::bench {
namespace {

struct SweepRow {
  int executors;
  PalidStats stats;
  double speedup;
  double concurrency;
  double avg_f;
  LidWork lid;  // of the first run (every run does the same work)
};

// Runs per row. The map skips covered seeds, so one run lasts tens of
// milliseconds, where a single sample is mostly scheduler noise; a row
// reports the run with the median wall time.
constexpr int kRunsPerRow = 7;

SweepRow RunRow(const LabeledData& data, const LshIndex& lsh,
                const AffinityFunction& affinity, int executors,
                double base_wall) {
  // Each run's stats count its own kernel evaluations (identical across
  // runs and rows — the map tasks are pure).
  LazyAffinityOracle oracle(data.data, affinity);
  PalidOptions opts;
  opts.num_executors = executors;
  Palid palid(oracle, lsh, opts);
  std::vector<PalidStats> runs(kRunsPerRow);
  DetectionResult result;
  LidWork lid;
  for (int k = 0; k < kRunsPerRow; ++k) {
    const LidWork before = LidWork::Read();
    result = palid.Detect(&runs[k]).Filtered(0.75);
    if (k == 0) lid = LidWork::Read() - before;
  }
  std::nth_element(runs.begin(), runs.begin() + kRunsPerRow / 2, runs.end(),
                   [](const PalidStats& a, const PalidStats& b) {
                     return a.wall_seconds < b.wall_seconds;
                   });
  SweepRow row;
  row.executors = executors;
  row.lid = lid;
  row.stats = std::move(runs[kRunsPerRow / 2]);
  row.speedup = row.stats.wall_seconds > 0.0 && base_wall > 0.0
                    ? base_wall / row.stats.wall_seconds
                    : 0.0;
  row.concurrency = row.stats.wall_seconds > 0.0
                        ? row.stats.total_task_seconds / row.stats.wall_seconds
                        : 0.0;
  row.avg_f = AverageF1(data.true_clusters, result);
  return row;
}

void PrintRow(const SweepRow& row) {
  std::printf(
      "%-11s %-6d %-10.3f %-9.2f %-12.3f %-7.2f %-10lld %-8.3f\n",
      "PALID", row.executors, row.stats.wall_seconds, row.speedup,
      row.stats.total_task_seconds, row.concurrency,
      static_cast<long long>(row.stats.entries_computed), row.avg_f);
}

void EmitSweepJson(BenchContext& ctx, const std::vector<SweepRow>& rows,
                   Index n) {
  std::string json;
  AppendF(json, "{\"bench\":\"table2_palid\",\"n\":%d,\"rows\":[", n);
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    AppendF(
        json,
        "%s{\"method\":\"PALID\",\"executors\":%d,\"wall_seconds\":%.6f,"
        "\"speedup\":%.4f,\"gate_speedup\":true,\"task_seconds\":%.6f,"
        "\"concurrency\":%.4f,\"entries_computed\":%lld,"
        "\"num_seeds\":%d,\"num_tasks\":%d,\"avg_f\":%.4f,"
        "\"lid_iterations\":%lld,\"lid_iteration_entries\":%lld,"
        "\"lid_capped_runs\":%lld}",
        i == 0 ? "" : ",", r.executors, r.stats.wall_seconds, r.speedup,
        r.stats.total_task_seconds, r.concurrency,
        static_cast<long long>(r.stats.entries_computed),
        r.stats.num_seeds, r.stats.num_tasks, r.avg_f,
        static_cast<long long>(r.lid.iterations),
        static_cast<long long>(r.lid.iteration_entries),
        static_cast<long long>(r.lid.capped_runs));
  }
  json += "]}";
  ctx.EmitJson(json);
}

void Run(BenchContext& ctx) {
  std::printf("Table 2: PALID executors sweep on SIFT-like data "
              "(scale %.2f)\n", ctx.scale());
  SiftLikeConfig cfg;
  cfg.n = ctx.Scaled(8000);
  cfg.num_visual_words = 40;
  cfg.word_fraction = 0.3;
  cfg.seed = 701;
  LabeledData data = MakeSiftLike(cfg);
  std::printf("n=%d descriptors, %d planted visual words\n", data.size(),
              cfg.num_visual_words);

  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  LshIndex lsh(data.data, MakeLshParams(data));

  PrintHeader("executors sweep (FIFO executor pool, stateless oracle)");
  std::printf("%-11s %-6s %-10s %-9s %-12s %-7s %-10s %-8s\n", "method",
              "execs", "wall(s)", "speedup", "task-sum(s)", "conc.",
              "entries", "AVG-F");
  std::vector<SweepRow> rows;
  double base_wall = 0.0;
  for (int execs : {1, 2, 4, 8}) {
    rows.push_back(RunRow(data, lsh, affinity, execs, base_wall));
    if (execs == 1) {
      base_wall = rows.back().stats.wall_seconds;
      rows.back().speedup = 1.0;  // the row is its own baseline
    }
    PrintRow(rows.back());
  }

  std::printf("\nExpected shape (paper Table 2): near-linear speedup in the "
              "executor count up to the hardware's parallelism (7.51x at 8 "
              "executors on 8 cores). On a 1-core host wall-clock speedup "
              "stays ~1; the concurrency column shows the pool still "
              "distributes the map tasks. The entries column counts kernel "
              "evaluations of the detected seeds (a seed a kept cluster of an "
              "earlier wave holds is skipped): each unordered pair once per "
              "detection, never the diagonal.\n");
  EmitSweepJson(ctx, rows, data.size());
}

ALID_BENCHMARK("table2_palid", "runtime,speedup", "table2_palid", Run);

}  // namespace
}  // namespace alid::bench

// Table 2 — PALID parallel performance (Section 5.3/4.6).
//
// Runs PALID on a SIFT-like workload with 1/2/4/8 executors and reports wall
// time, the speedup ratio against 1 executor, the aggregate map-task time,
// executor steal counts and the kernel-evaluation count; a final row
// runs the paper-faithful FIFO ablation at the widest executor count. On the
// paper's 8-core Spark cluster the speedup reaches 7.51 at 8 executors; on
// this host the wall-clock speedup saturates at the physical core count, so
// the aggregate-task-time / wall-time ratio is also printed — it shows the
// realized concurrency of the executor pool independent of the hardware.
//
// The last line is a single-line JSON record of the sweep for the bench
// trajectory (machine-readable, stable key names).
#include "bench_util.h"
#include "registry.h"

#include <string_view>

#include "core/palid.h"
#include "data/sift_like.h"
#include "eval/metrics.h"

namespace alid::bench {
namespace {

struct SweepRow {
  const char* method;
  int executors;
  PalidStats stats;
  double speedup;
  double concurrency;
  double avg_f;
};

SweepRow RunOnce(const LabeledData& data, const LshIndex& lsh,
                 const AffinityFunction& affinity, int executors,
                 bool work_stealing, double base_wall) {
  // A fresh oracle per configuration keeps each row's entries_computed its
  // own (the count is identical across rows — the map tasks are pure).
  LazyAffinityOracle oracle(data.data, affinity);
  PalidOptions opts;
  opts.num_executors = executors;
  opts.work_stealing = work_stealing;
  SweepRow row;
  row.method = work_stealing ? "PALID" : "PALID-FIFO";
  row.executors = executors;
  Palid palid(oracle, lsh, opts);
  DetectionResult result = palid.Detect(&row.stats).Filtered(0.75);
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
      "%-11s %-6d %-10.3f %-9.2f %-12.3f %-7.2f %-8lld %-10lld %-8.3f\n",
      row.method, row.executors, row.stats.wall_seconds, row.speedup,
      row.stats.total_task_seconds, row.concurrency,
      static_cast<long long>(row.stats.steals),
      static_cast<long long>(row.stats.entries_computed), row.avg_f);
}

void PrintHistogram(const SweepRow& row) {
  const std::vector<int> histogram = row.stats.TaskHistogram(8);
  std::printf("task-busy histogram (%d tasks, 8 bins to max): ",
              row.stats.num_tasks);
  for (int count : histogram) std::printf("%d ", count);
  std::printf("\n");
}

void EmitSweepJson(BenchContext& ctx, const std::vector<SweepRow>& rows,
                   Index n) {
  std::string json;
  AppendF(json, "{\"bench\":\"table2_palid\",\"n\":%d,\"rows\":[", n);
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    AppendF(
        json,
        "%s{\"method\":\"%s\",\"executors\":%d,\"wall_seconds\":%.6f,"
        "\"speedup\":%.4f,\"gate_speedup\":%s,\"task_seconds\":%.6f,"
        "\"concurrency\":%.4f,"
        "\"steals\":%lld,\"entries_computed\":%lld,"
        "\"num_seeds\":%d,\"num_tasks\":%d,\"avg_f\":%.4f}",
        i == 0 ? "" : ",", r.method, r.executors, r.stats.wall_seconds,
        r.speedup,
        std::string_view(r.method) == "PALID" ? "true" : "false",
        r.stats.total_task_seconds, r.concurrency,
        static_cast<long long>(r.stats.steals),
        static_cast<long long>(r.stats.entries_computed),
        r.stats.num_seeds, r.stats.num_tasks, r.avg_f);
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

  PrintHeader("executors sweep (work-stealing pool, stateless oracle)");
  std::printf("%-11s %-6s %-10s %-9s %-12s %-7s %-8s %-10s %-8s\n", "method",
              "execs", "wall(s)", "speedup", "task-sum(s)", "conc.", "steals",
              "entries", "AVG-F");
  std::vector<SweepRow> rows;
  double base_wall = 0.0;
  for (int execs : {1, 2, 4, 8}) {
    rows.push_back(RunOnce(data, lsh, affinity, execs,
                           /*work_stealing=*/true, base_wall));
    if (execs == 1) {
      base_wall = rows.back().stats.wall_seconds;
      rows.back().speedup = 1.0;  // the row is its own baseline
    }
    PrintRow(rows.back());
  }
  // Ablation: the seed's coarse single-FIFO-queue executor at max width.
  rows.push_back(RunOnce(data, lsh, affinity, 8, /*work_stealing=*/false,
                         base_wall));
  PrintRow(rows.back());
  // Histogram of the widest work-stealing run, found by name (robust to
  // sweep edits).
  for (auto it = rows.rbegin(); it != rows.rend(); ++it) {
    if (std::string_view(it->method) == "PALID") {
      PrintHistogram(*it);
      break;
    }
  }

  std::printf("\nExpected shape (paper Table 2): near-linear speedup in the "
              "executor count up to the hardware's parallelism (7.51x at 8 "
              "executors on 8 cores). On a 1-core host wall-clock speedup "
              "stays ~1; the concurrency column shows the pool still "
              "distributes the map tasks.\n");
  EmitSweepJson(ctx, rows, data.size());
}

ALID_BENCHMARK("table2_palid", "runtime,speedup", "table2_palid", Run);

}  // namespace
}  // namespace alid::bench

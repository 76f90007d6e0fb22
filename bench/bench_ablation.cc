// Ablation bench — the design choices of ALID (Section 4) and of the
// streaming runtime, measured:
//   1. ROI growth schedule: logistic theta(c) (paper) vs jump-to-outer-ball.
//   2. CIVS query strategy: all support points (paper) vs center-only.
//   3. Lazy column oracle vs materializing the full matrix (entries touched).
//   4. CIVS budget delta sweep: quality/time trade-off.
//   5. Peeling density threshold tau sweep: precision/recall trade-off.
//   6. Streaming ingest substrate: serial vs the shared executor pool
//      (bit-identical state, only wall time moves — a mismatch fails the
//      benchmark, not just a printout).
#include "bench_util.h"
#include "registry.h"

#include <memory>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/online_alid.h"
#include "data/sift_like.h"
#include "data/synthetic.h"

namespace alid::bench {
namespace {

LabeledData Workload(Index n) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 50;
  cfg.num_clusters = 10;
  cfg.regime = SyntheticRegime::kProportional;
  cfg.omega = 0.6;
  cfg.seed = 801;
  return MakeSynthetic(cfg);
}

void Run(BenchContext& ctx) {
  std::printf("Ablations of ALID's design choices (scale %.2f)\n",
              ctx.scale());
  LabeledData data = Workload(ctx.Scaled(3000));
  std::string json = "{\"bench\":\"ablation\",\"rows\":[";

  PrintHeader("1. ROI growth schedule (Eq. 16)");
  {
    for (bool logistic : {true, false}) {
      AlidOptions opts;
      opts.logistic_roi_growth = logistic;
      AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
      LazyAffinityOracle oracle(data.data, affinity);
      LshIndex lsh(data.data, MakeLshParams(data));
      AlidDetector detector(oracle, lsh, opts);
      oracle.ResetCounters();
      WallTimer timer;
      DetectionResult result = detector.DetectAll();
      const double seconds = timer.Seconds();
      const double avg_f =
          AverageF1(data.true_clusters, result.Filtered(0.75));
      std::printf("  %-22s AVG-F %.3f  time %.3fs  kernel entries %lld  "
                  "ROI distance scans %lld\n",
                  logistic ? "logistic theta(c)" : "jump to outer ball",
                  avg_f, seconds,
                  static_cast<long long>(oracle.entries_computed()),
                  static_cast<long long>(oracle.distances_computed()));
      AppendF(json,
              "%s{\"ablation\":\"roi_schedule\",\"mode\":\"%s\","
              "\"wall_seconds\":%.6f,\"avg_f\":%.4f,\"entries\":%lld}",
              json.back() == '[' ? "" : ",",
              logistic ? "logistic" : "outer_ball", seconds, avg_f,
              static_cast<long long>(oracle.entries_computed()));
    }
    std::printf("  finding: AVG-F identical; with LSH-backed CIVS the\n"
                "  candidate list comes from the LSH buckets (not from the\n"
                "  radius), so jumping to the outer ball converges in fewer\n"
                "  outer iterations and scans *less*. The paper's schedule\n"
                "  pays off when the ROI scan is a true spatial range query\n"
                "  (cost grows with radius).\n");
  }

  PrintHeader("2. CIVS query strategy (Fig. 4)");
  {
    AlidOptions all_support;
    AlidOptions center_only;
    center_only.civs.query_from_all_support = false;
    PrintStatsRow("all support queries", RunAlid(data, 1.0, all_support));
    PrintStatsRow("center-only query", RunAlid(data, 1.0, center_only));
    std::printf("  expectation: center-only misses ROI regions, losing "
                "recall/AVG-F.\n");
  }

  PrintHeader("3. lazy columns vs full materialization");
  {
    RunStats lazy = RunAlid(data);
    const int64_t full_entries =
        static_cast<int64_t>(data.size()) * (data.size() - 1) / 2;
    std::printf("  lazy oracle touched %lld entries; the full matrix costs "
                "%lld (x%.1f more)\n",
                static_cast<long long>(lazy.entries),
                static_cast<long long>(full_entries),
                lazy.entries > 0
                    ? static_cast<double>(full_entries) / lazy.entries
                    : 0.0);
  }

  PrintHeader("4. CIVS budget delta sweep");
  for (int delta : {10, 50, 200, 800, 3200}) {
    AlidOptions opts;
    opts.civs.delta = delta;
    char config[32];
    std::snprintf(config, sizeof(config), "delta=%d", delta);
    const RunStats stats = RunAlid(data, 1.0, opts);
    PrintStatsRow(config, stats);
    AppendF(json,
            "%s{\"ablation\":\"civs_delta\",\"delta\":%d,"
            "\"wall_seconds\":%.6f,\"avg_f\":%.4f}",
            json.back() == '[' ? "" : ",", delta, stats.seconds,
            stats.avg_f);
  }
  std::printf("  expectation: tiny delta starves the range update; past the "
              "cluster size, bigger delta only costs time.\n");

  PrintHeader("5. peeling threshold tau sweep (SIFT-like: clutter forms "
              "weak ~0.5-density groups)");
  {
    // SIFT-like data puts weak clutter groups just below the paper's
    // threshold, so the sweep shows both failure directions.
    SiftLikeConfig sift;
    sift.n = ctx.Scaled(2000);
    sift.num_visual_words = 10;
    sift.word_fraction = 0.35;
    sift.seed = 802;
    LabeledData sdata = MakeSiftLike(sift);
    AffinityFunction affinity({.k = sdata.suggested_k, .p = 2.0});
    LazyAffinityOracle oracle(sdata.data, affinity);
    LshIndex lsh(sdata.data, MakeLshParams(sdata));
    AlidDetector detector(oracle, lsh, {});
    DetectionResult raw = detector.DetectAll();
    for (double tau : {0.2, 0.35, 0.5, 0.65, 0.75, 0.85, 0.95}) {
      DetectionResult kept = raw.Filtered(tau);
      std::printf("  tau=%.2f  AVG-F %.3f  clusters kept %zu\n", tau,
                  AverageF1(sdata.true_clusters, kept), kept.clusters.size());
    }
    std::printf("  finding: AVG-F scores each true cluster by its best "
                "match, so extra weak clusters below tau never lower it — "
                "the failure mode is one-sided: tau above the true-cluster "
                "densities drops everything. The paper's 0.75 sits safely "
                "below the ~0.9 planted densities.\n");
  }

  PrintHeader("6. streaming ingest substrate (windowed OnlineAlid)");
  {
    // The same shuffled stream, batched, on no pool vs the shared
    // work-stealing pool: the batch hash/score phases are the only
    // parallel parts, so the streamed state is bit-identical and the
    // wall-time delta isolates the substrate.
    LabeledData stream = Workload(ctx.Scaled(1200));
    Rng rng(31);
    const auto order = rng.Permutation(stream.size());
    const int dim = stream.data.dim();
    auto run = [&](ThreadPool* pool) {
      OnlineAlidOptions opts;
      opts.affinity = {.k = stream.suggested_k, .p = 2.0};
      opts.lsh.segment_length = stream.suggested_lsh_r;
      opts.window = ctx.Scaled(700);
      opts.pool = pool;
      auto online = std::make_unique<OnlineAlid>(dim, opts);
      std::vector<Scalar> batch;
      WallTimer timer;
      for (Index pos = 0; pos < stream.size(); ++pos) {
        const auto point = stream.data[order[pos]];
        batch.insert(batch.end(), point.begin(), point.end());
        if (static_cast<Index>(batch.size()) == 128 * dim) {
          online->InsertBatch(batch);
          batch.clear();
        }
      }
      if (!batch.empty()) online->InsertBatch(batch);
      online->Refresh();
      const double seconds = timer.Seconds();
      std::printf("  %-22s wall %.3fs  clusters %zu  absorbed %lld  "
                  "evicted %lld  steals %lld\n",
                  pool == nullptr ? "serial ingest" : "shared pool (4)",
                  seconds, online->clusters().size(),
                  static_cast<long long>(online->stats().absorbed),
                  static_cast<long long>(online->stats().evicted),
                  static_cast<long long>(
                      pool != nullptr ? pool->steal_count() : 0));
      AppendF(json,
              "%s{\"ablation\":\"stream_substrate\",\"mode\":\"%s\","
              "\"wall_seconds\":%.6f,\"clusters\":%zu}",
              json.back() == '[' ? "" : ",",
              pool == nullptr ? "serial" : "pooled", seconds,
              online->clusters().size());
      return online;
    };
    auto serial = run(nullptr);
    ThreadPool pool(4);
    auto pooled = run(&pool);
    const bool identical =
        serial->clusters().size() == pooled->clusters().size() &&
        serial->stats().absorbed == pooled->stats().absorbed &&
        serial->stats().evicted == pooled->stats().evicted;
    std::printf("  state identical: %s\n",
                identical ? "yes" : "NO — determinism bug");
    if (!identical) {
      ctx.Fail("streaming ingest state diverged between the serial and "
               "pooled substrates — the determinism contract is broken");
    }
  }
  json += "]}";
  ctx.EmitJson(json);
}

ALID_BENCHMARK("ablation", "paper,ablation", "ablation", Run);

}  // namespace
}  // namespace alid::bench

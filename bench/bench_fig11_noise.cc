// Figure 11 — noise resistance analysis (Appendix C).
//
// Sweeps the noise degree (#noise / #ground truth) on NART-like and
// Sub-NDI-like workloads and reports AVG-F for the affinity-based methods
// (AP, IID, SEA, ALID — full matrices for the baselines, per the appendix's
// protocol) and the partitioning baselines (k-means, SC-FL, SC-NYS with
// K = true clusters + 1 as Liu et al. set it, and mean shift).
//
// Paper shape to reproduce: the partitioning methods' AVG-F collapses as the
// noise degree grows while the affinity-based methods degrade slowly; mean
// shift is competitive on NART-like text but falls behind on the image-like
// features.
#include "bench_util.h"
#include "registry.h"

#include "baselines/kmeans.h"
#include "baselines/mean_shift.h"
#include "baselines/spectral.h"
#include "common/thread_pool.h"
#include "data/nart_like.h"
#include "data/ndi_like.h"

namespace alid::bench {
namespace {

double ScoreLabels(const LabeledData& data, const std::vector<int>& labels) {
  return AverageF1(data.true_clusters, LabelsToClusters(labels));
}

void SweepNoise(const char* name, const char* dataset,
                const std::function<LabeledData(double)>& make,
                const std::vector<double>& degrees, ThreadPool* pool,
                std::string& json) {
  PrintHeader(name);
  std::printf("%-8s %6s %6s %6s %6s %6s %6s %6s %6s\n", "noise", "AP", "IID",
              "SEA", "ALID", "KM", "SC-FL", "SC-NYS", "MS");
  for (double degree : degrees) {
    LabeledData data = make(degree);
    const int k_true = static_cast<int>(data.true_clusters.size());
    AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});

    WallTimer wall;
    const double f_ap =
        RunAp(data, /*r_scale=*/-1.0, /*max_iterations=*/200, pool).avg_f;
    const double f_iid = RunIid(data, /*r_scale=*/-1.0).avg_f;
    const double f_sea = RunSea(data, /*r_scale=*/-1.0, pool).avg_f;
    const double f_alid = RunAlid(data).avg_f;

    // Partitioning methods get K = true clusters + 1 (noise as an extra
    // cluster), the Liu et al. protocol the appendix follows.
    KMeansOptions km;
    km.restarts = 2;
    km.pool = pool;
    const double f_km =
        ScoreLabels(data, RunKMeans(data.data, k_true + 1, km).labels);
    SpectralOptions so;
    so.num_clusters = k_true + 1;
    so.nystrom_landmarks = std::min<Index>(150, data.size() / 2);
    so.pool = pool;
    const double f_scfl =
        ScoreLabels(data, SpectralClusterFull(data.data, affinity, so).labels);
    const double f_scnys = ScoreLabels(
        data, SpectralClusterNystrom(data.data, affinity, so).labels);
    MeanShiftOptions ms;
    ms.max_ascents = std::min<Index>(150, data.size());
    ms.pool = pool;
    // The appendix tunes MS's bandwidth per data set; 1.5x the intra-cluster
    // scale is the tuned value for these workloads.
    ms.bandwidth = data.suggested_lsh_r / 2.0;
    const double f_ms = ScoreLabels(data, RunMeanShift(data.data, ms).labels);

    std::printf("%-8.1f %6.3f %6.3f %6.3f %6.3f %6.3f %6.3f %6.3f %6.3f\n",
                data.NoiseDegree(), f_ap, f_iid, f_sea, f_alid, f_km, f_scfl,
                f_scnys, f_ms);
    AppendF(json,
            "%s{\"dataset\":\"%s\",\"noise_degree\":%.1f,"
            "\"wall_seconds\":%.6f,\"avg_f_ap\":%.4f,\"avg_f_iid\":%.4f,"
            "\"avg_f_sea\":%.4f,\"avg_f_alid\":%.4f,\"avg_f_km\":%.4f,"
            "\"avg_f_scfl\":%.4f,\"avg_f_scnys\":%.4f,\"avg_f_ms\":%.4f}",
            json.back() == '[' ? "" : ",", dataset, data.NoiseDegree(),
            wall.Seconds(), f_ap, f_iid, f_sea, f_alid, f_km, f_scfl,
            f_scnys, f_ms);
  }
}

void Run(BenchContext& ctx) {
  std::printf("Figure 11: noise resistance — AVG-F vs noise degree "
              "(scale %.2f)\n", ctx.scale());
  // One shared executor pool under every parallelized baseline: the
  // sweep measures noise resistance, and every method's output is
  // bit-identical to its serial run, so only wall-clock moves.
  ThreadPool pool(4);
  const std::vector<double> degrees{0.0, 1.0, 2.0, 4.0, 6.0};
  std::string json = "{\"bench\":\"fig11_noise\",\"rows\":[";

  const Index nart_truth = ctx.Scaled(200);
  SweepNoise("(a) NART-like", "nart",
             [&](double degree) {
               NartLikeConfig cfg;
               cfg.num_events = 13;
               cfg.num_event_articles = nart_truth;
               cfg.num_noise_articles =
                   static_cast<Index>(degree * nart_truth);
               cfg.seed = 501;
               return MakeNartLike(cfg);
             },
             degrees, &pool, json);

  const Index ndi_truth = ctx.Scaled(200);
  SweepNoise("(b) Sub-NDI-like", "subndi",
             [&](double degree) {
               NdiLikeConfig cfg = NdiLikeConfig::SubNdi();
               cfg.num_duplicates = ndi_truth;
               cfg.num_noise = static_cast<Index>(degree * ndi_truth);
               cfg.seed = 502;
               return MakeNdiLike(cfg);
             },
             degrees, &pool, json);

  std::printf("\nExpected shape: partitioning methods (KM, SC-FL, SC-NYS) "
              "fall fastest with noise; affinity-based methods stay high; "
              "MS holds up on text-like but degrades on image-like data.\n");
  json += "]}";
  ctx.EmitJson(json);
}

ALID_BENCHMARK("fig11_noise", "paper,quality,noise", "fig11_noise", Run);

}  // namespace
}  // namespace alid::bench

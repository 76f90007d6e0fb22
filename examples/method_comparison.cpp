// Every detector in the library on one noisy workload — a tour of the full
// API surface: the four affinity-based methods (ALID, IID, SEA, AP) and the
// four partitioning baselines (k-means, SC-FL, SC-NYS, mean shift) from the
// paper's Appendix C comparison.
//
//   ./build/examples/method_comparison
#include <cstdio>

#include "affinity/affinity_matrix.h"
#include "affinity/sparsifier.h"
#include "baselines/ap.h"
#include "baselines/iid.h"
#include "baselines/kmeans.h"
#include "baselines/mean_shift.h"
#include "baselines/sea.h"
#include "baselines/spectral.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/alid.h"
#include "data/synthetic.h"
#include "eval/metrics.h"

int main() {
  using namespace alid;

  // One shared executor pool drives every parallelized hot loop below;
  // each method's output is bit-identical to its serial run.
  ThreadPool pool(4);

  SyntheticConfig config;
  config.n = 1200;
  config.dim = 32;
  config.num_clusters = 6;
  config.regime = SyntheticRegime::kProportional;
  config.omega = 0.4;  // 40% clustered, 60% noise
  LabeledData data = MakeSynthetic(config);
  const int k_true = static_cast<int>(data.true_clusters.size());
  std::printf("workload: n=%d, %d true clusters, noise degree %.1f\n\n",
              data.size(), k_true, data.NoiseDegree());
  std::printf("%-22s %-8s %-8s\n", "method", "AVG-F", "time(s)");

  AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
  auto row = [](const char* name, double f, double secs) {
    std::printf("%-22s %-8.3f %-8.3f\n", name, f, secs);
  };

  {  // ALID — no cluster count needed, no full matrix.
    WallTimer t;
    LazyAffinityOracle oracle(data.data, affinity);
    LshParams lp;
    lp.segment_length = data.suggested_lsh_r;
    LshIndex lsh(data.data, lp);
    AlidDetector detector(oracle, lsh);
    row("ALID", AverageF1(data.true_clusters,
                          detector.DetectAll().Filtered(0.75)),
        t.Seconds());
  }
  {
    WallTimer t;  // matrix materialization is part of IID's cost
    AffinityMatrix matrix(data.data, affinity);
    IidDetector iid{AffinityView(&matrix.matrix())};
    row("IID (full matrix)",
        AverageF1(data.true_clusters, iid.DetectAll().Filtered(0.75)),
        t.Seconds());
  }
  {
    WallTimer t;
    LshParams lp;
    lp.segment_length = data.suggested_lsh_r;
    lp.num_tables = 16;
    // SEA needs a denser sparsified graph to preserve cluster cohesiveness
    // (the Fig. 6 sensitivity): double the LSH segment length for it.
    lp.segment_length *= 2.0;
    LshIndex lsh(data.data, lp);
    SparseMatrix sparse =
        Sparsifier::FromLshCollisions(data.data, affinity, lsh);
    SeaDetector sea{AffinityView(&sparse), {.pool = &pool}};
    row("SEA (sparse graph)",
        AverageF1(data.true_clusters, sea.DetectAll().Filtered(0.6)),
        t.Seconds());
  }
  {
    WallTimer t;
    AffinityMatrix matrix(data.data, affinity);
    ApDetector ap{AffinityView(&matrix.matrix()), {.pool = &pool}};
    row("AP (full matrix)", AverageF1(data.true_clusters, ap.Detect()),
        t.Seconds());
  }
  {  // Partitioning methods need K up front; noise gets one extra bucket.
    WallTimer t;
    KMeansResult km =
        RunKMeans(data.data, k_true + 1, {.restarts = 3, .pool = &pool});
    row("k-means (K=true+1)",
        AverageF1(data.true_clusters, LabelsToClusters(km.labels)),
        t.Seconds());
  }
  {
    WallTimer t;
    SpectralOptions so;
    so.num_clusters = k_true + 1;
    so.pool = &pool;
    SpectralResult sc = SpectralClusterFull(data.data, affinity, so);
    row("SC-FL (K=true+1)",
        AverageF1(data.true_clusters, LabelsToClusters(sc.labels)),
        t.Seconds());
  }
  {
    WallTimer t;
    SpectralOptions so;
    so.num_clusters = k_true + 1;
    so.nystrom_landmarks = 120;
    so.pool = &pool;
    SpectralResult sc = SpectralClusterNystrom(data.data, affinity, so);
    row("SC-NYS (K=true+1)",
        AverageF1(data.true_clusters, LabelsToClusters(sc.labels)),
        t.Seconds());
  }
  {
    WallTimer t;
    MeanShiftOptions ms;
    ms.bandwidth = data.suggested_lsh_r / 2.0;
    ms.max_ascents = 150;
    ms.pool = &pool;
    MeanShiftResult r = RunMeanShift(data.data, ms);
    row("mean shift",
        AverageF1(data.true_clusters, LabelsToClusters(r.labels)),
        t.Seconds());
  }

  std::printf("\nthe affinity-based methods detect the unknown number of "
              "clusters and shrug off the noise; the partitioners must be "
              "told K and still absorb noise into their parts.\n");
  return 0;
}

#ifndef ALID_BENCH_SCENARIOS_H_
#define ALID_BENCH_SCENARIOS_H_

// Adversarial stream scenario generators — the workloads the synthetic
// regimes of data/synthetic.h never produce, aimed at the runtime's weak
// points:
//
//   drift       — cluster centers walk a constant velocity per batch, so a
//                 cluster's support slowly leaves its own LSH buckets and
//                 absorb region; stresses refresh/re-detection (the stream
//                 must dissolve the stale cluster and re-detect the moved
//                 one) rather than steady absorb.
//   burst       — cluster generations are born in storms and die `lifetime`
//                 batches later; stresses the frontier ramp (cold absorb on
//                 brand-new clusters) and incremental publish (rows_reused
//                 collapses in birth storms).
//   heavy_tail  — Zipf cluster membership: one giant head cluster, a long
//                 tail of rare ones; stresses support-sketch prune rates
//                 (the head's support saturates the scoring path) and the
//                 head cluster's re-detection cost.
//
// Every generator is a pure function of (config, batch_index): batch k can
// be produced without batches 0..k-1 and in any order, and the same
// (config, batch_index) pair always yields the same bytes (seed-determinism
// and batch-order stability, asserted by tests/scenario_test.cc). All draws
// are counter-based (Rng over SplitMix64-mixed keys), never generator state
// threaded across batches.

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace alid::bench {

/// Concept drift: `num_clusters` Gaussian clusters whose centers translate
/// by `drift_per_batch` along a per-cluster unit velocity every batch.
struct DriftScenarioConfig {
  int dim = 16;
  int num_clusters = 6;
  Index points_per_batch = 96;   ///< Cluster arrivals per batch (pre-noise).
  double spread = 1.0;           ///< Intra-cluster stddev.
  double mean_box = 400.0;       ///< Base centers drawn from [0, mean_box).
  double drift_per_batch = 2.5;  ///< Center displacement per batch.
  double noise_fraction = 0.15;  ///< Extra far-noise arrivals per batch.
  uint64_t seed = 1001;
};

/// Burst arrivals: `num_slots` cluster slots, each reborn at a fresh center
/// every `period` batches and alive for `lifetime` of them. Slot phases are
/// drawn from a few storm offsets, so births (and `lifetime` batches later,
/// deaths) arrive in storms rather than uniformly.
struct BurstScenarioConfig {
  int dim = 16;
  int num_slots = 12;
  int period = 12;            ///< Batches between a slot's rebirths.
  int lifetime = 5;           ///< Batches a generation keeps arriving.
  int num_storms = 3;         ///< Distinct birth phases slots cluster on.
  Index points_per_slot = 24; ///< Arrivals per live slot per batch.
  double spread = 1.0;
  double mean_box = 600.0;
  double noise_fraction = 0.1;  ///< Relative to the live-slot arrivals.
  uint64_t seed = 2002;
};

/// Heavy-tailed cluster sizes: arrivals pick their cluster from a Zipf
/// distribution over `num_clusters` centers (head cluster gets the bulk,
/// the tail is starved).
struct HeavyTailScenarioConfig {
  int dim = 16;
  int num_clusters = 48;
  double zipf_exponent = 1.2;
  Index points_per_batch = 128;
  double spread = 1.0;
  double mean_box = 800.0;
  double noise_fraction = 0.05;
  uint64_t seed = 3003;
};

/// High-dimensional embedding streams: realistic text/image-embedding
/// geometry — points clustered on a low-dimensional manifold inside a high
/// ambient dimension, with anisotropic within-cluster scatter — where LSH
/// bucket occupancy skews and sketch pruning behaves unlike isotropic
/// synthetic Gaussians. Cluster centers live in the span of a shared
/// `manifold_dim`-column orthonormal basis (seed-keyed); each arrival adds
/// manifold-coordinate Gaussian scatter whose per-axis scale decays
/// geometrically (axis 0 at `spread`, the last axis `anisotropy`x tighter)
/// plus a small isotropic ambient jitter off the manifold.
struct EmbeddingScenarioConfig {
  int dim = 64;            ///< Ambient embedding dimension.
  int manifold_dim = 6;    ///< Intrinsic dimension of the cluster manifold.
  int num_clusters = 10;
  Index points_per_batch = 96;
  double spread = 1.0;     ///< Scatter stddev along the widest manifold axis.
  double anisotropy = 8.0; ///< Widest / narrowest manifold-axis stddev ratio.
  double ambient_noise = 0.05;  ///< Off-manifold jitter, fraction of spread.
  double mean_box = 40.0;  ///< Manifold coordinates of centers in [0, box).
  double noise_fraction = 0.05;  ///< Extra ambient far-noise arrivals.
  uint64_t seed = 4004;
};

/// One generated batch: row-major points plus the bookkeeping the scenario
/// benches report against (how many arrivals were cluster members vs noise,
/// and which generations/clusters produced them).
struct ScenarioBatch {
  std::vector<Scalar> points;  ///< Row-major, `rows x dim`.
  Index rows = 0;
  Index noise_rows = 0;        ///< Of `rows`, how many are far noise.
  /// Distinct source clusters (drift/heavy-tail) or live generations
  /// (burst) that contributed at least one arrival to this batch.
  int active_sources = 0;
};

ScenarioBatch DriftBatch(const DriftScenarioConfig& config, int batch_index);
ScenarioBatch BurstBatch(const BurstScenarioConfig& config, int batch_index);
ScenarioBatch HeavyTailBatch(const HeavyTailScenarioConfig& config,
                             int batch_index);
ScenarioBatch EmbeddingBatch(const EmbeddingScenarioConfig& config,
                             int batch_index);

/// The center of drift cluster `c` at batch `t` (exposed so tests can check
/// the walk is linear and the bench can report the displacement).
std::vector<Scalar> DriftCenterAt(const DriftScenarioConfig& config,
                                  int cluster, int batch_index);

/// True iff burst slot `s` has a live generation at batch `t`; `generation`
/// (optional) receives its index.
bool BurstSlotLiveAt(const BurstScenarioConfig& config, int slot,
                     int batch_index, int* generation = nullptr);

/// The Zipf probability of cluster `c` under `config` (normalized).
double HeavyTailClusterProbability(const HeavyTailScenarioConfig& config,
                                   int cluster);

/// The shared manifold basis of the embedding scenario: `manifold_dim`
/// orthonormal columns of length `dim`, column-major (column j occupies
/// [j * dim, (j + 1) * dim)). A pure function of (seed, dim, manifold_dim),
/// exposed so tests can verify orthonormality and manifold residuals.
std::vector<Scalar> EmbeddingBasis(const EmbeddingScenarioConfig& config);

/// The ambient-space center of embedding cluster `c` (basis * manifold
/// coordinates; exposed for the anisotropy/manifold tests).
std::vector<Scalar> EmbeddingCenterAt(const EmbeddingScenarioConfig& config,
                                      int cluster);

/// The scatter stddev along manifold axis `axis` (geometric decay from
/// `spread` at axis 0 down to spread / anisotropy at the last axis).
double EmbeddingAxisScale(const EmbeddingScenarioConfig& config, int axis);

}  // namespace alid::bench

#endif  // ALID_BENCH_SCENARIOS_H_

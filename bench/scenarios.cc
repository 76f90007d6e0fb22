#include "scenarios.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/random.h"
#include "eval/metrics.h"

namespace alid::bench {
namespace {

// Stream-key salts: every logical draw family gets its own mixed key so no
// two draws ever share an Rng state across (config, batch_index) calls.
constexpr uint64_t kDriftCenterSalt = 0xD01F'0000'0001ull;
constexpr uint64_t kDriftVelocitySalt = 0xD01F'0000'0002ull;
constexpr uint64_t kDriftBatchSalt = 0xD01F'0000'0003ull;
constexpr uint64_t kBurstStormSalt = 0xB5A7'0000'0001ull;
constexpr uint64_t kBurstCenterSalt = 0xB5A7'0000'0002ull;
constexpr uint64_t kBurstBatchSalt = 0xB5A7'0000'0003ull;
constexpr uint64_t kTailCenterSalt = 0x7A11'0000'0001ull;
constexpr uint64_t kTailBatchSalt = 0x7A11'0000'0002ull;
constexpr uint64_t kEmbedBasisSalt = 0xE4BE'0000'0001ull;
constexpr uint64_t kEmbedCenterSalt = 0xE4BE'0000'0002ull;
constexpr uint64_t kEmbedBatchSalt = 0xE4BE'0000'0003ull;

Rng KeyedRng(uint64_t seed, uint64_t salt, uint64_t id) {
  return Rng(SplitMix64(seed ^ SplitMix64(salt ^ id)));
}

std::vector<Scalar> BoxCenter(uint64_t seed, uint64_t salt, uint64_t id,
                              int dim, double box) {
  Rng rng = KeyedRng(seed, salt, id);
  std::vector<Scalar> center(dim);
  for (auto& v : center) v = rng.Uniform(0.0, box);
  return center;
}

void AppendGaussianPoint(std::vector<Scalar>& out,
                         const std::vector<Scalar>& center, double spread,
                         Rng& rng) {
  for (const Scalar c : center) out.push_back(c + rng.Gaussian() * spread);
}

void AppendNoise(ScenarioBatch& batch, int dim, double box, Index count,
                 Rng& rng) {
  for (Index q = 0; q < count; ++q) {
    for (int d = 0; d < dim; ++d) {
      batch.points.push_back(rng.Uniform(-0.5 * box, 1.5 * box));
    }
  }
  batch.rows += count;
  batch.noise_rows += count;
  batch.source.insert(batch.source.end(), static_cast<size_t>(count), -1);
}

}  // namespace

std::vector<Scalar> DriftCenterAt(const DriftScenarioConfig& config,
                                  int cluster, int batch_index) {
  std::vector<Scalar> center =
      BoxCenter(config.seed, kDriftCenterSalt, static_cast<uint64_t>(cluster),
                config.dim, config.mean_box);
  Rng vel_rng = KeyedRng(config.seed, kDriftVelocitySalt,
                         static_cast<uint64_t>(cluster));
  std::vector<Scalar> velocity(config.dim);
  double norm = 0.0;
  for (auto& v : velocity) {
    v = vel_rng.Gaussian();
    norm += v * v;
  }
  norm = std::sqrt(std::max(norm, 1e-12));
  const double step = config.drift_per_batch * batch_index;
  for (int d = 0; d < config.dim; ++d) {
    center[d] += velocity[d] / norm * step;
  }
  return center;
}

ScenarioBatch DriftBatch(const DriftScenarioConfig& config, int batch_index) {
  ScenarioBatch batch;
  std::vector<std::vector<Scalar>> centers(config.num_clusters);
  for (int c = 0; c < config.num_clusters; ++c) {
    centers[c] = DriftCenterAt(config, c, batch_index);
  }
  Rng rng = KeyedRng(config.seed, kDriftBatchSalt,
                     static_cast<uint64_t>(batch_index));
  batch.points.reserve(static_cast<size_t>(config.points_per_batch) *
                       config.dim);
  // Round-robin cluster assignment keeps every walking cluster fed each
  // batch, so a cluster going stale is the runtime's failure, not the
  // workload starving it.
  for (Index i = 0; i < config.points_per_batch; ++i) {
    const int c = static_cast<int>(i % config.num_clusters);
    AppendGaussianPoint(batch.points, centers[c], config.spread, rng);
    batch.source.push_back(c);
  }
  batch.rows = config.points_per_batch;
  batch.active_sources = static_cast<int>(std::min<Index>(
      config.num_clusters, config.points_per_batch));
  const Index noise = static_cast<Index>(
      config.noise_fraction * static_cast<double>(config.points_per_batch));
  AppendNoise(batch, config.dim, config.mean_box, noise, rng);
  return batch;
}

bool BurstSlotLiveAt(const BurstScenarioConfig& config, int slot,
                     int batch_index, int* generation) {
  // Slots cluster on a few storm phases, so generations are born (and die)
  // together instead of uniformly across the period.
  const uint64_t storm = SplitMix64(config.seed ^ SplitMix64(
                             kBurstStormSalt ^ static_cast<uint64_t>(slot))) %
                         static_cast<uint64_t>(std::max(config.num_storms, 1));
  const int phase = static_cast<int>(storm) * config.period /
                    std::max(config.num_storms, 1);
  const int since = batch_index - phase;
  if (since < 0) return false;
  if (since % config.period >= config.lifetime) return false;
  if (generation != nullptr) *generation = since / config.period;
  return true;
}

ScenarioBatch BurstBatch(const BurstScenarioConfig& config, int batch_index) {
  ScenarioBatch batch;
  Rng rng = KeyedRng(config.seed, kBurstBatchSalt,
                     static_cast<uint64_t>(batch_index));
  for (int s = 0; s < config.num_slots; ++s) {
    int generation = 0;
    if (!BurstSlotLiveAt(config, s, batch_index, &generation)) continue;
    // A fresh center per (slot, generation): rebirth is a new cluster, not
    // the old one waking up — the previous generation must dissolve.
    const uint64_t id = (static_cast<uint64_t>(s) << 32) ^
                        static_cast<uint64_t>(generation);
    const std::vector<Scalar> center = BoxCenter(
        config.seed, kBurstCenterSalt, id, config.dim, config.mean_box);
    for (Index i = 0; i < config.points_per_slot; ++i) {
      AppendGaussianPoint(batch.points, center, config.spread, rng);
    }
    batch.source.insert(batch.source.end(),
                        static_cast<size_t>(config.points_per_slot),
                        s + config.num_slots * generation);
    batch.rows += config.points_per_slot;
    ++batch.active_sources;
  }
  const Index noise = static_cast<Index>(
      config.noise_fraction * static_cast<double>(batch.rows));
  AppendNoise(batch, config.dim, config.mean_box, noise, rng);
  return batch;
}

double HeavyTailClusterProbability(const HeavyTailScenarioConfig& config,
                                   int cluster) {
  double total = 0.0;
  for (int c = 0; c < config.num_clusters; ++c) {
    total += std::pow(static_cast<double>(c + 1), -config.zipf_exponent);
  }
  return std::pow(static_cast<double>(cluster + 1), -config.zipf_exponent) /
         total;
}

ScenarioBatch HeavyTailBatch(const HeavyTailScenarioConfig& config,
                             int batch_index) {
  ScenarioBatch batch;
  std::vector<double> cumulative(config.num_clusters);
  double total = 0.0;
  for (int c = 0; c < config.num_clusters; ++c) {
    total += std::pow(static_cast<double>(c + 1), -config.zipf_exponent);
    cumulative[c] = total;
  }
  Rng rng = KeyedRng(config.seed, kTailBatchSalt,
                     static_cast<uint64_t>(batch_index));
  std::vector<bool> seen(config.num_clusters, false);
  batch.points.reserve(static_cast<size_t>(config.points_per_batch) *
                       config.dim);
  for (Index i = 0; i < config.points_per_batch; ++i) {
    const double u = rng.Uniform(0.0, total);
    const int c = static_cast<int>(
        std::lower_bound(cumulative.begin(), cumulative.end(), u) -
        cumulative.begin());
    const std::vector<Scalar> center =
        BoxCenter(config.seed, kTailCenterSalt, static_cast<uint64_t>(c),
                  config.dim, config.mean_box);
    AppendGaussianPoint(batch.points, center, config.spread, rng);
    batch.source.push_back(c);
    if (!seen[c]) {
      seen[c] = true;
      ++batch.active_sources;
    }
  }
  batch.rows = config.points_per_batch;
  const Index noise = static_cast<Index>(
      config.noise_fraction * static_cast<double>(config.points_per_batch));
  AppendNoise(batch, config.dim, config.mean_box, noise, rng);
  return batch;
}

std::vector<Scalar> EmbeddingBasis(const EmbeddingScenarioConfig& config) {
  const int dim = config.dim;
  const int m = config.manifold_dim;
  // Gram-Schmidt over seed-keyed Gaussian columns: one fixed draw and
  // orthogonalization order, so the basis is a pure function of the config.
  Rng rng = KeyedRng(config.seed, kEmbedBasisSalt, 0);
  std::vector<Scalar> basis(static_cast<size_t>(m) * dim);
  for (int j = 0; j < m; ++j) {
    Scalar* col = basis.data() + static_cast<size_t>(j) * dim;
    for (int d = 0; d < dim; ++d) col[d] = rng.Gaussian();
    for (int k = 0; k < j; ++k) {
      const Scalar* prev = basis.data() + static_cast<size_t>(k) * dim;
      Scalar dot = 0.0;
      for (int d = 0; d < dim; ++d) dot += col[d] * prev[d];
      for (int d = 0; d < dim; ++d) col[d] -= dot * prev[d];
    }
    Scalar norm = 0.0;
    for (int d = 0; d < dim; ++d) norm += col[d] * col[d];
    norm = std::sqrt(std::max(norm, 1e-24));
    for (int d = 0; d < dim; ++d) col[d] /= norm;
  }
  return basis;
}

double EmbeddingAxisScale(const EmbeddingScenarioConfig& config, int axis) {
  if (config.manifold_dim <= 1) return config.spread;
  const double t =
      static_cast<double>(axis) / static_cast<double>(config.manifold_dim - 1);
  return config.spread * std::pow(config.anisotropy, -t);
}

std::vector<Scalar> EmbeddingCenterAt(const EmbeddingScenarioConfig& config,
                                      int cluster) {
  const std::vector<Scalar> basis = EmbeddingBasis(config);
  Rng rng = KeyedRng(config.seed, kEmbedCenterSalt,
                     static_cast<uint64_t>(cluster));
  std::vector<Scalar> center(config.dim, 0.0);
  for (int j = 0; j < config.manifold_dim; ++j) {
    const Scalar u = rng.Uniform(0.0, config.mean_box);
    const Scalar* col = basis.data() + static_cast<size_t>(j) * config.dim;
    for (int d = 0; d < config.dim; ++d) center[d] += col[d] * u;
  }
  return center;
}

ScenarioBatch EmbeddingBatch(const EmbeddingScenarioConfig& config,
                             int batch_index) {
  ScenarioBatch batch;
  const int dim = config.dim;
  const int m = config.manifold_dim;
  const std::vector<Scalar> basis = EmbeddingBasis(config);
  std::vector<std::vector<Scalar>> centers(config.num_clusters);
  for (int c = 0; c < config.num_clusters; ++c) {
    centers[c] = EmbeddingCenterAt(config, c);
  }
  std::vector<double> scales(m);
  for (int j = 0; j < m; ++j) scales[j] = EmbeddingAxisScale(config, j);

  Rng rng = KeyedRng(config.seed, kEmbedBatchSalt,
                     static_cast<uint64_t>(batch_index));
  batch.points.reserve(static_cast<size_t>(config.points_per_batch) * dim);
  std::vector<Scalar> point(dim);
  // Round-robin cluster assignment (the drift idiom): every manifold
  // cluster is fed each batch, so bucket skew comes from the geometry, not
  // from the workload starving clusters.
  for (Index i = 0; i < config.points_per_batch; ++i) {
    const int c = static_cast<int>(i % config.num_clusters);
    point = centers[c];
    for (int j = 0; j < m; ++j) {
      const Scalar z = rng.Gaussian() * scales[j];
      const Scalar* col = basis.data() + static_cast<size_t>(j) * dim;
      for (int d = 0; d < dim; ++d) point[d] += col[d] * z;
    }
    // Small isotropic off-manifold jitter: embeddings are near, not on,
    // the manifold.
    for (int d = 0; d < dim; ++d) {
      point[d] += rng.Gaussian() * config.ambient_noise * config.spread;
    }
    batch.points.insert(batch.points.end(), point.begin(), point.end());
    batch.source.push_back(c);
  }
  batch.rows = config.points_per_batch;
  batch.active_sources = static_cast<int>(
      std::min<Index>(config.num_clusters, config.points_per_batch));
  const Index noise = static_cast<Index>(
      config.noise_fraction * static_cast<double>(config.points_per_batch));
  AppendNoise(batch, dim, config.mean_box, noise, rng);
  return batch;
}

void SlotSources::Record(const std::vector<Index>& slots,
                         std::span<const int> source) {
  ALID_CHECK(slots.size() == source.size());
  for (size_t r = 0; r < slots.size(); ++r) {
    const size_t slot = static_cast<size_t>(slots[r]);
    if (slot >= source_of_slot_.size()) source_of_slot_.resize(slot + 1, -1);
    source_of_slot_[slot] = source[r];
  }
}

double SlotSources::LiveAvgF(const OnlineAlid& online, int min_truth) const {
  std::vector<IndexList> groups;
  for (size_t slot = 0; slot < source_of_slot_.size(); ++slot) {
    const int label = source_of_slot_[slot];
    if (label < 0 || !online.IsAlive(static_cast<Index>(slot))) continue;
    if (static_cast<size_t>(label) >= groups.size()) groups.resize(label + 1);
    groups[label].push_back(static_cast<Index>(slot));
  }
  std::vector<IndexList> truth;
  for (IndexList& group : groups) {
    if (static_cast<int>(group.size()) >= min_truth) {
      truth.push_back(std::move(group));
    }
  }
  std::vector<IndexList> detected;
  for (const Cluster& cluster : online.clusters()) {
    detected.push_back(cluster.members);
  }
  return AverageF1(truth, detected);
}

}  // namespace alid::bench

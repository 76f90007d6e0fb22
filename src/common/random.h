#ifndef ALID_COMMON_RANDOM_H_
#define ALID_COMMON_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

#include "common/types.h"

namespace alid {

/// Deterministic random source. Every stochastic component in the library
/// (LSH projections, synthetic data, k-means++ seeding, PALID seed sampling)
/// draws from an explicitly seeded Rng so tests and benches are reproducible.
class Rng {
 public:
  explicit Rng(uint64_t seed = 42) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }

  /// Standard normal (or scaled/shifted) draw.
  double Gaussian(double mean = 0.0, double stddev = 1.0) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Samples k distinct indices from [0, n) (Floyd's algorithm when k << n,
  /// partial shuffle otherwise).
  std::vector<Index> SampleWithoutReplacement(Index n, Index k);

  /// Random permutation of [0, n).
  std::vector<Index> Permutation(Index n);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// splitmix64 finalizer: a cheap, well-mixed stateless hash. Used to derive
/// independent per-task RNG streams (Rng(SplitMix64(seed ^ task_id))) and for
/// counter-based sampling decisions that must not depend on iteration order.
inline uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic uniform draw in [0, 1) keyed by (seed, id): the same pair
/// always yields the same value, independent of any generator state. PALID's
/// seed sampling uses this so the sampled set is identical no matter which
/// order (or thread) visits the LSH buckets.
inline double HashToUnit(uint64_t seed, uint64_t id) {
  // 53 high bits -> the unit interval, like std::generate_canonical.
  return static_cast<double>(SplitMix64(seed ^ SplitMix64(id)) >> 11) *
         0x1.0p-53;
}

}  // namespace alid

#endif  // ALID_COMMON_RANDOM_H_

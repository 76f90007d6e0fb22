#include "baselines/sea.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/parallel.h"

namespace alid {

// Cap on shrink/expand rounds per extraction.
constexpr int kMaxRounds = 50;
// Replicator iterations per shrink phase.
constexpr int kRdIterations = 200;
// RD convergence tolerance within a shrink phase.
constexpr double kRdTolerance = 1e-9;
// Weights below this are dropped when the support shrinks.
constexpr double kSupportThreshold = 1e-6;
// Expansion adds neighbours j with pi(s_j, x) > pi(x) + this margin.
constexpr double kExpansionMargin = 1e-12;

SeaDetector::SeaDetector(AffinityView affinity, SeaOptions options)
    : affinity_(affinity), options_(options) {}

Cluster SeaDetector::ExtractFrom(Index seed,
                                 const std::vector<bool>* active) const {
  ALID_CHECK(seed >= 0 && seed < affinity_.size());
  auto is_active = [&](Index i) {
    return active == nullptr || (*active)[i];
  };
  ALID_CHECK(is_active(seed));

  // Local state: support list S with weights x (parallel arrays) plus a
  // membership map for O(1) lookups.
  IndexList support{seed};
  std::vector<Scalar> x{1.0};
  std::unordered_map<Index, int> pos{{seed, 0}};

  // Initial expansion: the seed's neighbourhood.
  affinity_.ForEachInRow(seed, [&](Index j, Scalar) {
    if (j != seed && is_active(j) && pos.emplace(j, support.size()).second) {
      support.push_back(j);
      x.push_back(0.0);
    }
  });
  if (support.size() > 1) {
    const Scalar u = 1.0 / static_cast<Scalar>(support.size());
    for (auto& w : x) w = u;
  }

  Scalar density = 0.0;
  for (int round = 0; round < kMaxRounds; ++round) {
    const int s = static_cast<int>(support.size());
    // Size-only gate: tiny supports are not worth the chunk bookkeeping, and
    // because serial and pooled execution share the same chunk decomposition
    // the gate can never change a weight.
    ThreadPool* pool =
        s >= SeaOptions::kMinParallelSupport ? options_.pool : nullptr;

    // --- Shrink: replicator dynamics restricted to the local subgraph.
    // (A x)_b is accumulated destination-row-wise — row b walks its own
    // adjacency and gathers x over the support — which is equivalent to the
    // scatter form because A is symmetric, and makes rows independent.
    std::vector<Scalar> ax(s, 0.0);
    for (int it = 0; it < kRdIterations; ++it) {
      ParallelChunks(pool, 0, s, /*grain=*/0,
                     [&](int64_t, int64_t lo, int64_t hi) {
                       for (int64_t b = lo; b < hi; ++b) {
                         Scalar acc = 0.0;
                         affinity_.ForEachInRow(
                             support[b], [&](Index j, Scalar v) {
                               auto p = pos.find(j);
                               if (p != pos.end()) acc += v * x[p->second];
                             });
                         ax[b] = acc;
                       }
                     });
      const Scalar pi =
          ParallelSum(pool, 0, s, /*grain=*/0, [&](int64_t lo, int64_t hi) {
            Scalar partial = 0.0;
            for (int64_t a = lo; a < hi; ++a) partial += x[a] * ax[a];
            return partial;
          });
      if (pi <= 0.0) break;
      Scalar change = 0.0;
      for (int a = 0; a < s; ++a) {
        const Scalar next = x[a] * ax[a] / pi;
        change += std::abs(next - x[a]);
        x[a] = next;
      }
      if (change < kRdTolerance) break;
    }
    // Drop weak vertices from the support.
    IndexList new_support;
    std::vector<Scalar> new_x;
    Scalar kept = 0.0;
    for (int a = 0; a < s; ++a) {
      if (x[a] > kSupportThreshold) {
        new_support.push_back(support[a]);
        new_x.push_back(x[a]);
        kept += x[a];
      }
    }
    if (new_support.empty()) {  // isolated seed
      new_support.push_back(seed);
      new_x.push_back(1.0);
      kept = 1.0;
    }
    for (auto& w : new_x) w /= kept;
    support = std::move(new_support);
    x = std::move(new_x);
    pos.clear();
    for (size_t a = 0; a < support.size(); ++a) {
      pos[support[a]] = static_cast<int>(a);
    }

    // Current density pi(x) over the local subgraph (destination-row form,
    // like the shrink sweep — the support just changed size, so re-gate).
    const int kept_s = static_cast<int>(support.size());
    ThreadPool* kept_pool =
        kept_s >= SeaOptions::kMinParallelSupport ? options_.pool : nullptr;
    density = ParallelSum(
        kept_pool, 0, kept_s, /*grain=*/0, [&](int64_t lo, int64_t hi) {
          Scalar partial = 0.0;
          for (int64_t a = lo; a < hi; ++a) {
            Scalar row = 0.0;
            affinity_.ForEachInRow(support[a], [&](Index j, Scalar v) {
              auto p = pos.find(j);
              if (p != pos.end()) row += v * x[p->second];
            });
            partial += x[a] * row;
          }
          return partial;
        });

    // --- Expand: add neighbours with pi(s_j, x) > pi(x).
    std::unordered_map<Index, Scalar> affinity_to_x;  // candidate -> pi(s_j,x)
    for (size_t a = 0; a < support.size(); ++a) {
      if (x[a] == 0.0) continue;
      affinity_.ForEachInRow(support[a], [&](Index j, Scalar v) {
        if (pos.count(j) != 0 || !is_active(j)) return;
        affinity_to_x[j] += v * x[a];
      });
    }
    IndexList newcomers;
    for (const auto& [j, aff] : affinity_to_x) {
      if (aff > density + kExpansionMargin) newcomers.push_back(j);
    }
    if (newcomers.empty()) break;

    // Newcomers enter with a small uniform share; existing weights scale down.
    const Scalar share = 0.5 / static_cast<Scalar>(
        support.size() + newcomers.size());
    const Scalar scale = 1.0 - share * static_cast<Scalar>(newcomers.size());
    for (auto& w : x) w *= scale;
    for (Index j : newcomers) {
      pos[j] = static_cast<int>(support.size());
      support.push_back(j);
      x.push_back(share);
    }
  }

  Cluster cluster;
  cluster.seed = seed;
  cluster.density = density;
  std::vector<std::pair<Index, Scalar>> pairs;
  for (size_t a = 0; a < support.size(); ++a) {
    pairs.emplace_back(support[a], x[a]);
  }
  std::sort(pairs.begin(), pairs.end());
  for (const auto& [g, w] : pairs) {
    cluster.members.push_back(g);
    cluster.weights.push_back(w);
  }
  return cluster;
}

DetectionResult SeaDetector::DetectAll() const {
  const Index n = affinity_.size();
  std::vector<bool> active(n, true);
  DetectionResult result;
  for (Index seed = 0; seed < n; ++seed) {
    if (!active[seed]) continue;
    Cluster c = ExtractFrom(seed, &active);
    for (Index i : c.members) active[i] = false;
    result.clusters.push_back(std::move(c));
  }
  return result;
}

}  // namespace alid

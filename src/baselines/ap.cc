#include "baselines/ap.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>

#include "common/parallel.h"
#include "common/random.h"

namespace alid {

// Message damping factor lambda in [0.5, 1). Frey & Dueck default to 0.5
// and recommend raising it only when messages oscillate; 0.7 converges on
// all our workloads while staying stable.
constexpr Scalar kDamping = 0.7;
// Stop early when the exemplar set is unchanged for this many iterations.
constexpr int kConvergenceIterations = 15;
// Magnitude of the deterministic tie-breaking jitter added to the
// similarities (Frey & Dueck's remedy for oscillation on symmetric inputs),
// relative to each similarity value, and the seed of its stream.
constexpr double kJitter = 1e-9;
constexpr uint64_t kJitterSeed = 42;

ApDetector::ApDetector(AffinityView affinity, ApOptions options)
    : affinity_(affinity), options_(options) {}

DetectionResult ApDetector::Detect() const {
  const Index n = affinity_.size();

  // --- Edge list (i-major), one self edge per node carrying the preference.
  std::vector<Index> src, dst;
  std::vector<Scalar> sim;
  std::vector<int64_t> row_start(n + 1, 0);
  {
    std::vector<Scalar> all_sims;
    for (Index i = 0; i < n; ++i) {
      affinity_.ForEachInRow(i, [&](Index j, Scalar v) {
        if (j != i) all_sims.push_back(v);
      });
    }
    Scalar pref = options_.preference;
    if (std::isnan(pref)) {
      if (all_sims.empty()) {
        pref = 0.0;
      } else {
        std::nth_element(all_sims.begin(),
                         all_sims.begin() + all_sims.size() / 2,
                         all_sims.end());
        pref = all_sims[all_sims.size() / 2];
      }
    }
    Rng jitter_rng(kJitterSeed);
    for (Index i = 0; i < n; ++i) {
      row_start[i] = static_cast<int64_t>(src.size());
      affinity_.ForEachInRow(i, [&](Index j, Scalar v) {
        if (j == i) return;
        src.push_back(i);
        dst.push_back(j);
        // Tiny asymmetric jitter breaks the oscillations AP exhibits on
        // exactly symmetric inputs (Frey & Dueck's published remedy).
        sim.push_back(v * (1.0 + kJitter * jitter_rng.Uniform()));
      });
      src.push_back(i);  // self edge
      dst.push_back(i);
      sim.push_back(pref);
    }
    row_start[n] = static_cast<int64_t>(src.size());
  }
  const size_t m = src.size();

  // Column grouping for the availability update.
  std::vector<std::vector<int64_t>> col_edges(n);
  for (size_t e = 0; e < m; ++e) col_edges[dst[e]].push_back(e);

  std::vector<Scalar> r(m, 0.0), a(m, 0.0);

  std::vector<bool> exemplar(n, false), prev_exemplar(n, false);
  int stable = 0;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    // --- Responsibilities: r(i,k) = s(i,k) - max_{k' != k} (a(i,k')+s(i,k')).
    // Rows are independent (read a/sim, write only the row's r edges), so the
    // sweep runs chunked on the pool with bit-identical messages.
    ParallelChunks(
        options_.pool, 0, n, /*grain=*/0,
        [&](int64_t, int64_t lo, int64_t hi) {
          for (int64_t ii = lo; ii < hi; ++ii) {
            const Index i = static_cast<Index>(ii);
            Scalar best = -std::numeric_limits<Scalar>::infinity();
            Scalar second = best;
            for (int64_t e = row_start[i]; e < row_start[i + 1]; ++e) {
              const Scalar v = a[e] + sim[e];
              if (v > best) {
                second = best;
                best = v;
              } else if (v > second) {
                second = v;
              }
            }
            for (int64_t e = row_start[i]; e < row_start[i + 1]; ++e) {
              const Scalar competitor = (a[e] + sim[e] == best) ? second : best;
              r[e] = kDamping * r[e] + (1.0 - kDamping) * (sim[e] - competitor);
            }
          }
        });
    // --- Availabilities: columns are independent (read r, write only the
    // column's a edges).
    ParallelChunks(
        options_.pool, 0, n, /*grain=*/0,
        [&](int64_t, int64_t lo, int64_t hi) {
          for (int64_t kk = lo; kk < hi; ++kk) {
            const Index k = static_cast<Index>(kk);
            Scalar pos_sum = 0.0;
            Scalar r_kk = 0.0;
            for (int64_t e : col_edges[k]) {
              if (src[e] == k) {
                r_kk = r[e];
              } else if (r[e] > 0.0) {
                pos_sum += r[e];
              }
            }
            for (int64_t e : col_edges[k]) {
              Scalar next;
              if (src[e] == k) {
                next = pos_sum;  // a(k,k)
              } else {
                const Scalar own = r[e] > 0.0 ? r[e] : 0.0;
                next = std::min<Scalar>(0.0, r_kk + pos_sum - own);
              }
              a[e] = kDamping * a[e] + (1.0 - kDamping) * next;
            }
          }
        });
    // --- Exemplar set & convergence.
    for (Index k = 0; k < n; ++k) {
      const int64_t self = row_start[k + 1] - 1;  // self edge is last in row
      exemplar[k] = (r[self] + a[self]) > 0.0;
    }
    if (exemplar == prev_exemplar) {
      if (++stable >= kConvergenceIterations) break;
    } else {
      stable = 0;
      prev_exemplar = exemplar;
    }
  }

  // Ensure at least one exemplar so every item can be assigned.
  if (std::none_of(exemplar.begin(), exemplar.end(),
                   [](bool b) { return b; })) {
    Index best = 0;
    Scalar best_v = -std::numeric_limits<Scalar>::infinity();
    for (Index k = 0; k < n; ++k) {
      const int64_t self = row_start[k + 1] - 1;
      if (r[self] + a[self] > best_v) {
        best_v = r[self] + a[self];
        best = k;
      }
    }
    exemplar[best] = true;
  }

  // --- Assignment: each item joins the reachable exemplar of max similarity;
  // exemplars join themselves; unreachable items become singletons.
  std::vector<Index> assigned_to(n);
  for (Index i = 0; i < n; ++i) {
    if (exemplar[i]) {
      assigned_to[i] = i;
      continue;
    }
    Index best = i;
    Scalar best_sim = -std::numeric_limits<Scalar>::infinity();
    for (int64_t e = row_start[i]; e < row_start[i + 1]; ++e) {
      if (exemplar[dst[e]] && sim[e] > best_sim) {
        best_sim = sim[e];
        best = dst[e];
      }
    }
    assigned_to[i] = best;
  }

  std::unordered_map<Index, IndexList> groups;
  for (Index i = 0; i < n; ++i) groups[assigned_to[i]].push_back(i);

  DetectionResult result;
  for (auto& [ex, members] : groups) {
    Cluster c;
    c.seed = ex;
    std::sort(members.begin(), members.end());
    c.members = std::move(members);
    const size_t sz = c.members.size();
    c.weights.assign(sz, 1.0 / static_cast<Scalar>(sz));
    // Uniform-weight density pi(x) = (1/sz^2) sum_ij a_ij.
    Scalar total = 0.0;
    for (Index i : c.members) {
      for (Index j : c.members) {
        if (i != j) total += affinity_.At(i, j);
      }
    }
    c.density = total / (static_cast<Scalar>(sz) * static_cast<Scalar>(sz));
    result.clusters.push_back(std::move(c));
  }
  std::sort(result.clusters.begin(), result.clusters.end(),
            [](const Cluster& x, const Cluster& y) {
              return x.density > y.density;
            });
  return result;
}

}  // namespace alid

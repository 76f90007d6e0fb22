#ifndef ALID_CORE_SUPPORT_SKETCH_H_
#define ALID_CORE_SUPPORT_SKETCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace alid {

/// Sizing of the per-cluster support sketch inside every ClusterScorer (the
/// one scoring object the stream's absorb step and the snapshot's queries
/// share).
struct SupportSketchParams {
  /// The prefix keeps top-weight members until it covers this fraction of
  /// the cluster's total simplex mass, so the remaining weight — the
  /// kernel-free part of the upper bound — can fall to (1 - prefix_mass).
  /// Deep by default: a reject at cumulative mass c needs
  /// mean_kernel * c + (1 - c) <= threshold, so far colliders exit after
  /// ~(1 - threshold) of the mass while mid-range ones need more runway —
  /// and queries the walk can never reject (mean kernel at or above the
  /// threshold) are detected by the give-up rule at the first checkpoint,
  /// so the deep prefix costs them almost nothing. <= 0 disables the
  /// sketch everywhere (every candidate scores exactly, the pre-sketch
  /// behavior).
  double prefix_mass = 0.9;
  /// Clusters with fewer members than this score exactly without a sketch:
  /// below it the prefix covers most of the support anyway, so the bound
  /// evaluation would only add work.
  Index min_support = 64;
  /// Per-cluster adaptive truncation mass (on by default): the effective
  /// mass deepens from prefix_mass toward max_prefix_mass with the
  /// *flatness* of the cluster's weight profile, measured by the effective
  /// participation ratio n_eff / n (n_eff = (sum w)^2 / sum w^2 — n for
  /// uniform weights, ~1 for a single dominant member). Concentrated
  /// simplices keep the base mass (their short prefix already carries the
  /// bound); flat ones — where rest_weight is the whole slack of the bound
  /// — buy a tighter tail for a few extra prefix members. The effective
  /// mass is a pure function of the weights, so sketches still rebuild
  /// identically, and the bound stays an exact filter either way: any mass
  /// preserves output bit-identity (the fallback contract), only the
  /// prune/exact split moves. False pins the global prefix_mass.
  bool adaptive_mass = true;
  /// Ceiling of the adaptive deepening (only read when adaptive_mass).
  double max_prefix_mass = 0.98;

  bool operator==(const SupportSketchParams&) const = default;
};

/// Absolute slack added to every sketch upper bound before it is compared.
/// The bound argument is exact in real arithmetic (the kernel of Eq. 1 lies
/// in [0, 1], so the unscored remainder of the weighted sum is at most its
/// weight); in floating point the prefix partial, the rest weights and the
/// full sum round independently, each with error O(n * eps) on values
/// bounded by 1. 1e-9 dominates that rounding for supports up to ~10^6
/// members, so a bound-based rejection can never disagree with the exact
/// comparison — the exactness guarantee the determinism and bit-identity
/// tests pin.
inline constexpr Scalar kSketchBoundGuard = 1e-9;

/// How often the prefix walk re-checks the bound: every
/// kSketchBoundStride kernel evaluations (and once more at the prefix
/// end). A fixed constant, so the walk — and every prune or give-up it
/// takes — is a pure function of the sketch and the query.
///
/// Each checkpoint tests two things. Reject: the partial plus the rest
/// weight (a certified upper bound on pi) cannot clear the caller's
/// threshold, so exact scoring is skipped. Give up: the partial alone
/// already implies a mean prefix kernel at or above the threshold, so no
/// later checkpoint can ever reject — the walk stops and falls through to
/// exact scoring having spent only the evaluations so far. The give-up
/// rule is what makes the deep prefix affordable: absorbing queries (the
/// common case) bail at the first checkpoint instead of walking the whole
/// prefix before the inevitable exact fallback.
inline constexpr int kSketchBoundStride = 8;

/// The branch-and-bound filter in front of exact Theorem-1 absorb scoring:
/// a cluster's members ordered by descending weight, truncated once they
/// cover `prefix_mass` of the simplex, plus the weight mass that remains
/// after each prefix position. Since the affinity kernel is bounded by 1,
///   pi(s, x) <= sum_{t <= T} w_t * a(m_t, x) + rest_weight[T]
/// for every prefix length T — scoring the prefix front-to-back yields a
/// tightening sequence of certified upper bounds, and the walk stops at the
/// first one that rejects the cluster (or proves it cannot beat the
/// incumbent winner; ClusterScorer::Rejects is that walk). The bound only
/// ever *skips* exact work — an inconclusive walk falls back to the
/// unchanged exact summation — so results are bit-identical with the
/// sketch on or off.
struct SupportSketch {
  /// `built_version` value of a sketch that was never built.
  static constexpr uint64_t kUnbuilt = ~uint64_t{0};

  /// Positions into the cluster's member list (not item ids), ordered by
  /// descending weight, ties broken by ascending position — a pure function
  /// of the weights, hence identical on every build of the same cluster.
  std::vector<Index> ordinals;
  /// weights[member ordinals], parallel to `ordinals`.
  std::vector<Scalar> weights;
  /// rest_weights[t]: total simplex weight outside ordinals[0..t] — the
  /// kernel-free remainder of the bound after scoring t + 1 prefix members.
  std::vector<Scalar> rest_weights;
  /// The cluster mutation counter this sketch was built against; a mismatch
  /// means the cluster changed and the sketch must not be consulted.
  uint64_t built_version = kUnbuilt;

  /// True iff the sketch carries a usable prefix (the cluster was large
  /// enough and the sketch was enabled at build time).
  bool engaged() const { return !ordinals.empty(); }
};

/// Builds the sketch of one cluster from its simplex weights. Selection
/// depends only on the weight values (descending, ties by ascending
/// position), never on iteration order or the member ids, so rebuilding the
/// same cluster always yields the same sketch. Returns a disengaged sketch
/// when params disable it or the support is below min_support;
/// `built_version` is left at kUnbuilt for the caller to stamp.
SupportSketch BuildSupportSketch(std::span<const Scalar> weights,
                                 const SupportSketchParams& params);

}  // namespace alid

#endif  // ALID_CORE_SUPPORT_SKETCH_H_

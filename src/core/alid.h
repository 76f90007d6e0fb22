#ifndef ALID_CORE_ALID_H_
#define ALID_CORE_ALID_H_

#include <memory>
#include <vector>

#include "affinity/affinity_function.h"
#include "affinity/lazy_affinity_oracle.h"
#include "common/dataset.h"
#include "core/civs.h"
#include "core/cluster.h"
#include "core/lid.h"
#include "lsh/lsh_index.h"

namespace alid {

/// Peeling keeps clusters with at least this many members.
inline constexpr int kMinClusterSize = 2;

/// Options of the full ALID iteration (Algorithm 2) and of the peeling loop
/// that detects all dominant clusters (Section 4.4).
struct AlidOptions {
  /// LID (Step 1) options — the iteration limit T.
  LidOptions lid;
  /// CIVS (Step 3) options — delta and the query strategy.
  CivsOptions civs;
  /// Eq. 16's logistic ROI growth; false jumps straight to the outer ball
  /// (ablation).
  bool logistic_roi_growth = true;
  /// Peeling keeps clusters with pi(x) >= density_threshold (paper: 0.75).
  double density_threshold = 0.75;
};

/// The ALID detector: LID + ROI + CIVS in a loop (Algorithm 2), plus the
/// peeling strategy of Section 4.4 for detecting *all* dominant clusters.
///
/// The detector owns nothing heavy: it borrows a dataset, an affinity
/// function, a (shared, immutable) LSH index and a lazy affinity oracle, so
/// many detections — including PALID's concurrent map tasks — can run against
/// the same substrates.
class AlidDetector {
 public:
  AlidDetector(const LazyAffinityOracle& oracle, const LshIndex& lsh,
               AlidOptions options = {});

  /// Runs Algorithm 2 from one initial vertex. `exclude` (optional) marks
  /// peeled-off items that must not participate. Thread-safe: `this` is not
  /// mutated.
  Cluster DetectOne(Index seed, const std::vector<bool>* exclude = nullptr)
      const;

  /// Resumes Algorithm 2 from an existing weighted support (a warm start):
  /// LID restarts from `weights` on `members` with the `extra` vertices
  /// added to the local range at weight 0. By Theorem 1 only vertices
  /// infective against that optimum can raise it, so the ROI/CIVS search
  /// runs at the radius a cold run ends on (RadiusAt(C)) and stops at the
  /// first round that retrieves no infective candidate. `exclude` as in
  /// DetectOne; the result's seed is the heaviest member of the start
  /// support (first on ties). Thread-safe: `this` is not mutated.
  Cluster DetectFrom(const IndexList& members,
                     const std::vector<Scalar>& weights,
                     const IndexList& extra,
                     const std::vector<bool>* exclude = nullptr) const;

  /// Detects all dominant clusters by peeling (Section 4.4): run Algorithm 2,
  /// peel the detected support off, reseed on the remaining items until all
  /// are peeled. Returns every raw cluster; apply
  /// DetectionResult::Filtered(options().density_threshold) for the paper's
  /// final selection.
  DetectionResult DetectAll() const;

  const AlidOptions& options() const { return options_; }
  const LazyAffinityOracle& oracle() const { return *oracle_; }

 private:
  Scalar FirstRadius() const;
  // The LID/ROI/CIVS loop shared by both entry points. A cold run grows
  // the ROI logistically from c = 1 around `anchor`; a warm run searches
  // at RadiusAt(C) and stops once no candidate is infective.
  Cluster Grow(Lid& lid, Index anchor, bool warm,
               const std::vector<bool>* exclude) const;

  const LazyAffinityOracle* oracle_;
  const LshIndex* lsh_;
  AlidOptions options_;
};

}  // namespace alid

#endif  // ALID_CORE_ALID_H_

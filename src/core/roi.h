#ifndef ALID_CORE_ROI_H_
#define ALID_CORE_ROI_H_

#include <vector>

#include "affinity/lazy_affinity_oracle.h"
#include "common/types.h"

namespace alid {

/// The double-deck hyperball H(D, R_in, R_out) of Section 4.2 (Eq. 15) and
/// the growing Region of Interest radius of Eq. 16.
///
/// Proposition 1 guarantees that every data item strictly inside the inner
/// ball is infective against the local dense subgraph x̂ and every item
/// strictly outside the outer ball is immune — so growing the search radius
/// from R_in towards R_out scans few vertices early and provably covers all
/// infective vertices in the limit.
struct Roi {
  /// Ball center D = sum_i x̂_i v_i (the weighted support centroid).
  std::vector<Scalar> center;
  /// Inner radius R_in = (1/k) ln(lambda_in / pi(x̂)); may be clamped to 0.
  Scalar r_in = 0.0;
  /// Outer radius R_out = (1/k) ln(lambda_out / pi(x̂)).
  Scalar r_out = 0.0;
  /// Whether the estimate is meaningful (pi(x̂) > 0 and a non-empty support).
  bool valid = false;

  /// Eq. 16's logistic growth schedule theta(c) = 1 / (1 + e^{4 - c/2}).
  static Scalar Theta(int c);

  /// The ROI radius at ALID iteration c: R = R_in + theta(c)(R_out - R_in).
  /// With `logistic_growth` false the radius jumps straight to R_out (the
  /// ROI-growth ablation in bench/bench_ablation.cc).
  Scalar RadiusAt(int c, bool logistic_growth = true) const;
};

/// Estimates the ROI from the support of a local dense subgraph.
///
/// `support` holds (global index, weight) pairs of x̂ with weights summing to
/// 1; `density` is pi(x̂). lambda_in/lambda_out are evaluated in log space so
/// e^{+k d} cannot overflow for distant support points.
Roi EstimateRoi(const LazyAffinityOracle& oracle,
                const std::vector<std::pair<Index, Scalar>>& support,
                Scalar density);

}  // namespace alid

#endif  // ALID_CORE_ROI_H_

#include "core/civs.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"

namespace alid {

IndexList CivsRetrieve(const LazyAffinityOracle& oracle, const LshIndex& lsh,
                       const Roi& roi, Scalar radius,
                       const std::vector<std::pair<Index, Scalar>>& support,
                       const std::vector<bool>* exclude,
                       const CivsOptions& options) {
  ALID_CHECK(options.delta > 0);
  if (!roi.valid && support.empty()) return {};

  // Step 1: collect candidates from the Locality Sensitive Regions. The
  // paper's CIVS queries from every supporting item; those per-item queries
  // are batched into one multi-probe union (shared buckets visited once, no
  // per-query allocation), which also excludes the support itself.
  IndexList candidates;
  if (options.query_from_all_support) {
    IndexList queried;
    queried.reserve(support.size());
    for (const auto& [g, w] : support) queried.push_back(g);
    lsh.QueryByIndexBatch(queried, &candidates);
  } else if (!roi.center.empty()) {
    std::unordered_set<Index> support_set;
    for (const auto& [g, w] : support) support_set.insert(g);
    IndexList colliding;
    lsh.QueryByPoint(roi.center, &colliding);
    for (Index j : colliding) {
      if (support_set.count(j) == 0) candidates.push_back(j);
    }
  }

  // Step 2: keep items inside the ROI and not excluded. The center
  // distances run batched through the oracle (gathered SIMD tiles on the
  // supported norms) — bit-identical to per-candidate DistanceTo calls,
  // counters included.
  IndexList eligible;
  eligible.reserve(candidates.size());
  for (Index j : candidates) {
    if (exclude != nullptr && (*exclude)[j]) continue;
    eligible.push_back(j);
  }
  std::vector<Scalar> dists(eligible.size());
  if (!eligible.empty()) oracle.DistancesTo(eligible, roi.center, dists.data());
  std::vector<std::pair<Scalar, Index>> in_roi;
  for (size_t i = 0; i < eligible.size(); ++i) {
    if (dists[i] <= radius) in_roi.emplace_back(dists[i], eligible[i]);
  }

  // Step 3: the delta nearest to the center D.
  if (static_cast<int>(in_roi.size()) > options.delta) {
    std::nth_element(in_roi.begin(), in_roi.begin() + options.delta - 1,
                     in_roi.end());
    in_roi.resize(options.delta);
  }
  std::sort(in_roi.begin(), in_roi.end());
  IndexList out;
  out.reserve(in_roi.size());
  for (const auto& [dist, j] : in_roi) out.push_back(j);
  return out;
}

}  // namespace alid

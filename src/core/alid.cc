#include "core/alid.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/roi.h"

namespace alid {

// Maximum number of outer ALID iterations C (the paper uses C = 10).
constexpr int kMaxOuterIterations = 10;

AlidDetector::AlidDetector(const LazyAffinityOracle& oracle,
                           const LshIndex& lsh, AlidOptions options)
    : oracle_(&oracle), lsh_(&lsh), options_(options) {
  ALID_CHECK(lsh.size() == oracle.size());
}

Scalar AlidDetector::FirstRadius() const {
  // The first-iteration ROI radius (Algorithm 2 fixes R = 0.4 on its
  // normalized features): the distance at which the Laplacian kernel decays
  // to the peeling threshold. Points beyond it cannot belong to a cluster of
  // density >= the threshold together with the seed, so scanning them in the
  // first iteration is wasted work (it is exactly what lets background
  // clutter seeds terminate in O(1)).
  const double target = std::clamp(options_.density_threshold, 0.05, 0.95);
  return -std::log(target) / oracle_->affinity().params().k;
}

Cluster AlidDetector::DetectOne(Index seed,
                                const std::vector<bool>* exclude) const {
  ALID_CHECK(seed >= 0 && seed < oracle_->size());
  ALID_CHECK(exclude == nullptr || !(*exclude)[seed]);
  Lid lid(*oracle_, seed, options_.lid);
  Cluster cluster = Grow(lid, seed, /*warm=*/false, exclude);
  cluster.seed = seed;
  return cluster;
}

Cluster AlidDetector::DetectFrom(const IndexList& members,
                                 const std::vector<Scalar>& weights,
                                 const IndexList& extra,
                                 const std::vector<bool>* exclude) const {
  Lid lid(*oracle_, members, weights, extra, options_.lid);
  for (Index g : lid.beta()) {
    ALID_CHECK(exclude == nullptr || !(*exclude)[g]);
  }
  const Index anchor =
      members[std::max_element(weights.begin(), weights.end()) -
              weights.begin()];
  Cluster cluster = Grow(lid, anchor, /*warm=*/true, exclude);
  cluster.seed = anchor;
  return cluster;
}

Cluster AlidDetector::Grow(Lid& lid, Index anchor, bool warm,
                           const std::vector<bool>* exclude) const {
  for (int c = 1; c <= kMaxOuterIterations; ++c) {
    // Step 1: find the local dense subgraph in the current range.
    lid.Run();
    const Scalar density = lid.Density();
    const auto support = lid.SupportWeights();

    // Step 2: estimate the ROI from x̂ (Eq. 15/16). Before any affinity mass
    // exists (c == 1, singleton support, pi = 0) Algorithm 2 uses a fixed
    // first radius around the seed. A warm start resumes at the radius a
    // cold run ends on.
    Roi roi = EstimateRoi(*oracle_, support, density);
    Scalar radius;
    if (!roi.valid) {
      roi.center.assign(oracle_->data()[anchor].begin(),
                        oracle_->data()[anchor].end());
      roi.valid = true;
      radius = FirstRadius();
    } else {
      radius = roi.RadiusAt(warm ? kMaxOuterIterations : c,
                            options_.logistic_roi_growth);
    }

    // Step 3: CIVS — retrieve candidate infective vertices inside the ROI
    // and fold them into the local range (Eq. 17).
    IndexList psi = CivsRetrieve(*oracle_, *lsh_, roi, radius, support,
                                 exclude, options_.civs);

    // Keep only candidates that are actually infective against x̂: they are
    // the only ones that can increase pi (Theorem 1/2). This mirrors the
    // "candidate *infective* vertex" screening and keeps beta tight. The
    // screened rows are the psi rows UpdateRange needs, so Lid keeps them.
    IndexList infective;
    if (density > 0.0) {
      infective = lid.Screen(psi, density + kLidTolerance);
    } else {
      infective = std::move(psi);  // no subgraph yet; take the neighbourhood
    }

    if (density == 0.0 && infective.empty()) {
      break;  // isolated seed: nothing within the first radius
    }
    const bool roi_fully_grown =
        warm || !options_.logistic_roi_growth || Roi::Theta(c) > 0.99 ||
        radius >= roi.r_out - 1e-12;
    if (infective.empty() && roi_fully_grown) {
      break;  // x̂ immune against all vertices within reach: global (Thm. 1)
    }
    if (!infective.empty()) lid.UpdateRange(infective);
  }

  Cluster cluster;
  cluster.density = lid.Density();
  for (const auto& [g, w] : lid.SupportWeights()) {
    cluster.members.push_back(g);
    cluster.weights.push_back(w);
  }
  return cluster;
}

DetectionResult AlidDetector::DetectAll() const {
  const Index n = oracle_->size();
  std::vector<bool> peeled(n, false);
  DetectionResult result;
  for (Index seed = 0; seed < n; ++seed) {
    if (peeled[seed]) continue;
    Cluster cluster = DetectOne(seed, &peeled);
    for (Index g : cluster.members) peeled[g] = true;
    ALID_CHECK(!cluster.members.empty());
    result.clusters.push_back(std::move(cluster));
  }
  return result;
}

}  // namespace alid

#ifndef ALID_DATA_NDI_LIKE_H_
#define ALID_DATA_NDI_LIKE_H_

#include <cstdint>

#include "data/labeled_data.h"

namespace alid {

/// Configuration of the NDI-like near-duplicate-image workload. The paper's
/// NDI data set holds 109,815 images as 256-dimensional GIST descriptors —
/// 57 near-duplicate groups of 11,951 images plus 97,864 diverse-content
/// noise images; Sub-NDI is the 6-cluster / 1,420 + 8,520 subset used where
/// AP cannot scale. Near-duplicate GIST descriptors are tight blobs in
/// [0,1]^256, which is what we synthesize in place of the real images.
struct NdiLikeConfig {
  int num_groups = 57;
  /// Total near-duplicate images across groups (paper: 11,951).
  Index num_duplicates = 11951;
  /// Diverse background images (paper: 97,864).
  Index num_noise = 97864;
  int dim = 256;
  /// Within-group GIST jitter (standard deviation per dimension).
  double group_spread = 0.015;
  /// Diverse-content noise images are not uniform in GIST space: scenes of
  /// the same kind (beaches, streets, ...) correlate weakly. Noise images
  /// scatter broadly around this many weak scene-type centers.
  int noise_scene_types = 80;
  /// Per-dimension spread of noise around its scene type (large: the noise
  /// never becomes a dense subgraph).
  double noise_spread = 0.35;
  uint64_t seed = 42;

  /// The paper's Sub-NDI subset (Section 5.1): 6 clusters, 1,420 ground
  /// truth, 8,520 noise.
  static NdiLikeConfig SubNdi() {
    NdiLikeConfig c;
    c.num_groups = 6;
    c.num_duplicates = 1420;
    c.num_noise = 8520;
    return c;
  }
};

/// Generates the NDI-like workload: GIST-style vectors in [0, 1]^dim.
LabeledData MakeNdiLike(const NdiLikeConfig& config = {});

}  // namespace alid

#endif  // ALID_DATA_NDI_LIKE_H_

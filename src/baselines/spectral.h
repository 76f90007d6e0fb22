#ifndef ALID_BASELINES_SPECTRAL_H_
#define ALID_BASELINES_SPECTRAL_H_

#include <cstdint>
#include <vector>

#include "affinity/affinity_function.h"
#include "common/dataset.h"
#include "common/types.h"

namespace alid {

class ThreadPool;

/// Options of the spectral-clustering baselines.
struct SpectralOptions {
  /// Number of clusters K (the partitioning methods require it up front —
  /// the structural weakness Appendix C probes).
  int num_clusters = 2;
  /// Landmarks sampled by the Nystrom variant (SC-NYS).
  int nystrom_landmarks = 100;
  /// Randomness for Lanczos starts, landmark sampling and k-means.
  uint64_t seed = 42;
  /// Optional shared worker pool, threaded through every hot layer: the
  /// affinity-row construction, the Lanczos matvecs (SC-FL), the Nystrom
  /// block fills, and the final k-means. All reductions are chunk-ordered,
  /// so labels are bit-identical for every pool width.
  ThreadPool* pool = nullptr;
};

/// Result: a hard partition of all n items into num_clusters groups.
struct SpectralResult {
  std::vector<int> labels;
};

/// SC-FL — spectral clustering on the *full* affinity matrix (Ng, Jordan &
/// Weiss, NIPS 2002): symmetric normalized Laplacian, top-K eigenvectors (by
/// Lanczos on a matvec closure; the O(n^2) matrix is still materialized, as
/// in the paper's comparison), row-normalized embedding, k-means.
SpectralResult SpectralClusterFull(const Dataset& data,
                                   const AffinityFunction& affinity,
                                   SpectralOptions options = {});

/// SC-NYS — spectral clustering with the Nystrom approximation (Fowlkes et
/// al., TPAMI 2004): m landmark columns, one-shot orthogonalization via the
/// m x m eigenproblem (Jacobi), approximate leading eigenvectors, k-means.
SpectralResult SpectralClusterNystrom(const Dataset& data,
                                      const AffinityFunction& affinity,
                                      SpectralOptions options = {});

}  // namespace alid

#endif  // ALID_BASELINES_SPECTRAL_H_

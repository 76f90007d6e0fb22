#ifndef ALID_AFFINITY_SPARSIFIER_H_
#define ALID_AFFINITY_SPARSIFIER_H_

#include "affinity/affinity_function.h"
#include "common/dataset.h"
#include "common/sparse_matrix.h"
#include "lsh/lsh_index.h"

namespace alid {

/// Builders of sparsified affinity matrices for the baselines (Section 5.1).
/// Of Chen et al.'s two sparsification routes, the one the paper benchmarks
/// is implemented:
///
///  - ANN via LSH: keep exactly the affinities between items that collide in
///    at least one LSH table (Fig. 6).
///
/// Every builder produces a symmetric CSR matrix with an empty diagonal.
class Sparsifier {
 public:
  /// LSH-collision (ANN) sparsification; the induced SparseDegree() is the
  /// x-overlay of Fig. 6.
  static SparseMatrix FromLshCollisions(const Dataset& data,
                                        const AffinityFunction& affinity,
                                        const LshIndex& lsh);

  /// The fully dense matrix expressed as CSR (sparse degree ~ 0); lets every
  /// baseline run on one code path when the Fig. 11 protocol demands a full
  /// matrix.
  static SparseMatrix Dense(const Dataset& data,
                            const AffinityFunction& affinity);
};

}  // namespace alid

#endif  // ALID_AFFINITY_SPARSIFIER_H_

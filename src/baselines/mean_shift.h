#ifndef ALID_BASELINES_MEAN_SHIFT_H_
#define ALID_BASELINES_MEAN_SHIFT_H_

#include <cstdint>
#include <vector>

#include "common/dataset.h"
#include "common/types.h"

namespace alid {

class ThreadPool;

/// Options of the mean-shift baseline.
struct MeanShiftOptions {
  /// Gaussian kernel bandwidth h. Non-positive means adaptive: the median
  /// distance to the ~sqrt(n)-th nearest neighbour of a data sample.
  double bandwidth = -1.0;
  /// Iteration cap per point.
  int max_iterations = 50;
  /// Optional speedup: ascend from at most this many points (0 = all),
  /// assigning the rest to the nearest discovered mode.
  int max_ascents = 0;
  uint64_t seed = 42;
  /// Optional shared worker pool: the per-point gradient ascents, the
  /// bandwidth estimate and the nearest-mode assignment run chunked on it.
  /// Every ascent is an independent trajectory written to its own slot and
  /// the modes merge sequentially in start order afterwards, so labels and
  /// modes are bit-identical for every pool width.
  ThreadPool* pool = nullptr;
};

/// Result of mean shift: a hard mode assignment.
struct MeanShiftResult {
  /// Mode id per point, in [0, num_modes).
  std::vector<int> labels;
  /// Discovered modes, one row each.
  Dataset modes;
};

/// Mean shift (Comaniciu & Meer, TPAMI 2002): gradient ascent of a Gaussian
/// kernel density estimate from every point; points whose ascents end at the
/// same mode form a cluster. Appendix C's comparison shows its quality hinges
/// on the bandwidth matching all true cluster scales at once.
MeanShiftResult RunMeanShift(const Dataset& data,
                             MeanShiftOptions options = {});

}  // namespace alid

#endif  // ALID_BASELINES_MEAN_SHIFT_H_

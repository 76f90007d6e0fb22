#ifndef ALID_AFFINITY_LAZY_AFFINITY_ORACLE_H_
#define ALID_AFFINITY_LAZY_AFFINITY_ORACLE_H_

#include <atomic>
#include <span>
#include <vector>

#include "affinity/affinity_function.h"
#include "common/dataset.h"
#include "common/types.h"

namespace alid {

/// Computes affinity entries on demand. This is the mechanism behind ALID's
/// complexity claim: LID only ever touches the columns A_{beta, i} of support
/// vertices (Figure 3), so the oracle evaluates exactly those kernel entries
/// and counts them. The counters feed Table 1's empirical verification.
///
/// The oracle is stateless: every Entry/Column call evaluates the kernel and
/// advances entries_computed by the number of entries returned, so that
/// counter is the paper's Table-1 count of true kernel evaluations. LID asks
/// for each unordered pair at most once per detection and never for the
/// diagonal (it copies a_ji out of its memo wherever it needs a_ij), so the
/// count is one per pair a detection touches. The O(a*(a*+delta)) space
/// bound comes from LID's per-run column memo (Lid::columns_), which
/// detections charge here and release when the cluster is peeled off.
/// Counters are atomic so PALID workers can share one oracle without any
/// other synchronization.
class LazyAffinityOracle {
 public:
  LazyAffinityOracle(const Dataset& data, const AffinityFunction& affinity);

  const Dataset& data() const { return *data_; }
  const AffinityFunction& affinity() const { return *affinity_; }
  Index size() const { return data_->size(); }

  /// Single entry a_ij (0 on the diagonal).
  Scalar Entry(Index i, Index j) const;

  /// Column fragment A_{rows, col}: affinities between `col` and every index
  /// in `rows`, in order. This is the unit of work of a LID iteration.
  std::vector<Scalar> Column(std::span<const Index> rows, Index col) const;

  /// Distance between item i and an arbitrary point (used by the ROI test).
  Scalar DistanceTo(Index i, std::span<const Scalar> point) const {
    distances_computed_.fetch_add(1, std::memory_order_relaxed);
    return data_->DistanceTo(i, point, affinity_->params().p);
  }

  /// Distances between every item of `items` and `point`, written to
  /// out[0..items.size()). Bit-identical to per-item DistanceTo calls —
  /// counters included (distances_computed advances by items.size()) — but
  /// gathered through the SoA tile kernels (GatheredDistances), which is
  /// what the CIVS ROI scan batches over.
  void DistancesTo(std::span<const Index> items,
                   std::span<const Scalar> point, Scalar* out) const;

  /// Always 0: read by the repository benchmark; removed at its next revision.
  int64_t cache_hits() const { return 0; }
  /// Always 0: read by the repository benchmark; removed at its next revision.
  int64_t cache_evictions() const { return 0; }

  /// ROI-membership distance evaluations — the CIVS scanning cost the
  /// logistic radius schedule (Eq. 16) is designed to keep small early.
  int64_t distances_computed() const { return distances_computed_.load(); }

  /// Total kernel evaluations since construction or the last ResetCounters()
  /// — the Table 1 count.
  int64_t entries_computed() const { return entries_computed_.load(); }

  /// Peak bytes of affinity storage simultaneously alive, as reported by
  /// detections via Charge/Discharge. Peak resets with ResetCounters().
  int64_t peak_bytes() const { return peak_bytes_.load(); }
  int64_t current_bytes() const { return current_bytes_.load(); }

  /// Detections report their live local-matrix footprint through these.
  void Charge(int64_t bytes) const;
  void Discharge(int64_t bytes) const;

  void ResetCounters();

 private:
  const Dataset* data_;
  const AffinityFunction* affinity_;
  mutable std::atomic<int64_t> entries_computed_{0};
  mutable std::atomic<int64_t> distances_computed_{0};
  mutable std::atomic<int64_t> current_bytes_{0};
  mutable std::atomic<int64_t> peak_bytes_{0};
};

}  // namespace alid

#endif  // ALID_AFFINITY_LAZY_AFFINITY_ORACLE_H_

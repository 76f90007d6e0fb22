#include "affinity/lazy_affinity_oracle.h"

#include "common/check.h"
#include "common/memory_tracker.h"
#include "simd/simd_dispatch.h"
#include "simd/soa_block.h"

namespace alid {

LazyAffinityOracle::LazyAffinityOracle(const Dataset& data,
                                       const AffinityFunction& affinity)
    : data_(&data), affinity_(&affinity) {}

Scalar LazyAffinityOracle::Entry(Index i, Index j) const {
  entries_computed_.fetch_add(1, std::memory_order_relaxed);
  return (*affinity_)(*data_, i, j);
}

std::vector<Scalar> LazyAffinityOracle::Column(std::span<const Index> rows,
                                               Index col) const {
  std::vector<Scalar> out(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    out[r] = (*affinity_)(*data_, rows[r], col);
  }
  entries_computed_.fetch_add(static_cast<int64_t>(rows.size()),
                              std::memory_order_relaxed);
  return out;
}

void LazyAffinityOracle::DistancesTo(std::span<const Index> items,
                                     std::span<const Scalar> point,
                                     Scalar* out) const {
  distances_computed_.fetch_add(static_cast<int64_t>(items.size()),
                                std::memory_order_relaxed);
  GatheredDistances(*ActiveSimdOps(), *data_, items, point,
                    affinity_->params().p, out);
}

void LazyAffinityOracle::Charge(int64_t bytes) const {
  MemoryTracker::Global().Add(bytes);
  const int64_t now = current_bytes_.fetch_add(bytes) + bytes;
  int64_t peak = peak_bytes_.load();
  while (now > peak && !peak_bytes_.compare_exchange_weak(peak, now)) {
  }
}

void LazyAffinityOracle::Discharge(int64_t bytes) const {
  MemoryTracker::Global().Add(-bytes);
  current_bytes_.fetch_sub(bytes);
}

void LazyAffinityOracle::ResetCounters() {
  entries_computed_.store(0);
  distances_computed_.store(0);
  current_bytes_.store(0);
  peak_bytes_.store(0);
}

}  // namespace alid

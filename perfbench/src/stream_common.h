#ifndef ALID_PERFBENCH_STREAM_COMMON_H_
#define ALID_PERFBENCH_STREAM_COMMON_H_

// Pieces the three streaming workloads share: the stream configuration,
// the truth labels the benchmark derives for generated arrivals, AVG-F of a
// live window, and the OnlineAlid counters read off its public stats view.

#include <optional>
#include <span>
#include <vector>

#include "core/online_alid.h"
#include "report.h"

namespace alid::perfbench {

/// OnlineAlid options for clusters whose typical intra-cluster distance is
/// `intra`: intra-cluster affinity about 0.9, LSH segment three times that
/// distance. `refresh_interval` 0 disables the stream's own refresh trigger
/// (the workload then calls Refresh() itself).
OnlineAlidOptions StreamOptions(double intra, Index window,
                                Index refresh_interval, ThreadPool* pool,
                                uint64_t lsh_seed);

/// Truth labels for generated rows whose cluster is not exposed: a row joins
/// the first exemplar within `radius`, else it becomes a new exemplar.
/// Exemplars persist across calls, so labels are consistent for a stream.
class ExemplarLabeler {
 public:
  ExemplarLabeler(int dim, double radius)
      : dim_(dim), radius2_(radius * radius) {}
  int Label(std::span<const Scalar> row);

 private:
  int dim_;
  double radius2_;
  std::vector<Scalar> exemplars_;  // row-major
};

/// Records labels[j] as the truth label of slots[j]. False when the list
/// does not hold one slot per label, each in [0, arrivals) — an invalid slot
/// list, counted as a failed output check.
bool RecordSlots(const std::vector<Index>& slots, std::span<const int> labels,
                 Index arrivals, std::vector<int>& label_of_slot);

/// AVG-F of `detected` (member id lists) against the truth formed by
/// grouping ids by `label_of_id` (negative: noise or not live). Only truth
/// groups with at least `min_truth` live members count: a source with a
/// handful of live arrivals is not a dominant cluster yet.
double LiveAvgF(const std::vector<int>& label_of_id,
                const std::vector<IndexList>& detected, int min_truth);

/// AVG-F of every input's first pass, with the output checks on it: the
/// first pass clears `floor`, and every later pass over the same input (a
/// deterministic stream) repeats it exactly.
class QualityLedger {
 public:
  QualityLedger(int inputs, double floor) : f_(inputs), floor_(floor) {}
  void Record(WorkloadReport& report, int input, double f);
  /// Mean over the inputs (0 for an input never run).
  double Mean() const;

 private:
  std::vector<std::optional<double>> f_;
  double floor_;
};

/// OnlineAlid counters summed over streams, read from the typed views
/// (OnlineAlid::stats() and the oracle's counters) so a removed or renamed
/// counter breaks the build instead of reading 0.
struct StreamCounters {
  double arrivals = 0.0;
  double absorbed = 0.0;
  double evicted = 0.0;
  double redetections = 0.0;
  double sketch_prunes = 0.0;
  double sketch_exact = 0.0;
  double refresh_speculations = 0.0;
  double refresh_conflicts = 0.0;
  double cache_hits = 0.0;
  double cache_evictions = 0.0;
  double entries = 0.0;

  void Add(const OnlineAlid& stream);
  StreamCounters& operator+=(const StreamCounters& other);
  StreamCounters& operator-=(const StreamCounters& other);
};

/// The online_alid.* and affinity.* per-layer metrics from `counters`,
/// per-pass counts divided by `passes`.
void SetStreamMetrics(WorkloadReport& report, const StreamCounters& counters,
                      double passes);

}  // namespace alid::perfbench

#endif  // ALID_PERFBENCH_STREAM_COMMON_H_

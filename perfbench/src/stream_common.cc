#include "stream_common.h"

#include <cmath>
#include <functional>
#include <limits>

#include "eval/metrics.h"

namespace alid::perfbench {

OnlineAlidOptions StreamOptions(double intra, Index window,
                                Index refresh_interval, ThreadPool* pool,
                                uint64_t lsh_seed) {
  OnlineAlidOptions options;
  options.affinity = {.k = -std::log(0.9) / intra, .p = 2.0};
  options.lsh.segment_length = 3.0 * intra;
  options.lsh.seed = lsh_seed;
  options.window = window;
  options.refresh_interval = refresh_interval > 0
                                 ? refresh_interval
                                 : std::numeric_limits<Index>::max();
  options.pool = pool;
  return options;
}

int ExemplarLabeler::Label(std::span<const Scalar> row) {
  const size_t count = exemplars_.size() / static_cast<size_t>(dim_);
  for (size_t e = 0; e < count; ++e) {
    const Scalar* exemplar = exemplars_.data() + e * dim_;
    double d2 = 0.0;
    for (int d = 0; d < dim_ && d2 <= radius2_; ++d) {
      const double diff = row[d] - exemplar[d];
      d2 += diff * diff;
    }
    if (d2 <= radius2_) return static_cast<int>(e);
  }
  exemplars_.insert(exemplars_.end(), row.begin(), row.end());
  return static_cast<int>(count);
}

bool RecordSlots(const std::vector<Index>& slots, std::span<const int> labels,
                 Index arrivals, std::vector<int>& label_of_slot) {
  if (slots.size() != labels.size()) return false;
  for (size_t j = 0; j < slots.size(); ++j) {
    if (slots[j] < 0 || slots[j] >= arrivals) return false;
    const size_t slot = static_cast<size_t>(slots[j]);
    if (slot >= label_of_slot.size()) label_of_slot.resize(slot + 1, -1);
    label_of_slot[slot] = labels[j];
  }
  return true;
}

double LiveAvgF(const std::vector<int>& label_of_id,
                const std::vector<IndexList>& detected, int min_truth) {
  std::vector<IndexList> groups;
  for (size_t id = 0; id < label_of_id.size(); ++id) {
    const int label = label_of_id[id];
    if (label < 0) continue;
    if (static_cast<size_t>(label) >= groups.size()) groups.resize(label + 1);
    groups[label].push_back(static_cast<Index>(id));
  }
  std::vector<IndexList> truth;
  for (IndexList& group : groups) {
    if (static_cast<int>(group.size()) >= min_truth) {
      truth.push_back(std::move(group));
    }
  }
  return AverageF1(truth, detected);
}

void QualityLedger::Record(WorkloadReport& report, int input, double f) {
  const std::string id = "input " + std::to_string(input) + " AVG-F " +
                         std::to_string(f);
  std::optional<double>& first = f_[static_cast<size_t>(input)];
  if (!first) {
    first = f;
    report.Check(f >= floor_, id + " below floor");
  } else {
    report.Check(f == *first, id + " differs from its first pass");
  }
}

double QualityLedger::Mean() const {
  double total = 0.0;
  for (const std::optional<double>& f : f_) total += f.value_or(0.0);
  return Ratio(total, static_cast<double>(f_.size()));
}

void StreamCounters::Add(const OnlineAlid& stream) {
  const StreamStats s = stream.stats();
  arrivals += static_cast<double>(s.arrivals);
  absorbed += static_cast<double>(s.absorbed);
  evicted += static_cast<double>(s.evicted);
  redetections += static_cast<double>(s.redetections);
  sketch_prunes += static_cast<double>(s.sketch_prunes);
  sketch_exact += static_cast<double>(s.sketch_exact);
  refresh_speculations += static_cast<double>(s.refresh_speculations);
  refresh_conflicts += static_cast<double>(s.refresh_conflicts);
  const LazyAffinityOracle& oracle = stream.oracle();
  cache_hits += static_cast<double>(oracle.cache_hits());
  cache_evictions += static_cast<double>(oracle.cache_evictions());
  entries += static_cast<double>(oracle.entries_computed());
}

namespace {

template <typename Op>
void Combine(StreamCounters& a, const StreamCounters& b, Op op) {
  a.arrivals = op(a.arrivals, b.arrivals);
  a.absorbed = op(a.absorbed, b.absorbed);
  a.evicted = op(a.evicted, b.evicted);
  a.redetections = op(a.redetections, b.redetections);
  a.sketch_prunes = op(a.sketch_prunes, b.sketch_prunes);
  a.sketch_exact = op(a.sketch_exact, b.sketch_exact);
  a.refresh_speculations = op(a.refresh_speculations, b.refresh_speculations);
  a.refresh_conflicts = op(a.refresh_conflicts, b.refresh_conflicts);
  a.cache_hits = op(a.cache_hits, b.cache_hits);
  a.cache_evictions = op(a.cache_evictions, b.cache_evictions);
  a.entries = op(a.entries, b.entries);
}

}  // namespace

StreamCounters& StreamCounters::operator+=(const StreamCounters& other) {
  Combine(*this, other, std::plus<double>());
  return *this;
}

StreamCounters& StreamCounters::operator-=(const StreamCounters& other) {
  Combine(*this, other, std::minus<double>());
  return *this;
}

void SetStreamMetrics(WorkloadReport& report, const StreamCounters& c,
                      double passes) {
  report.Set("online_alid.redetections_per_arrival",
             Ratio(c.redetections, c.arrivals), "ratio");
  report.Set("online_alid.absorb_ratio", Ratio(c.absorbed, c.arrivals),
             "ratio");
  report.Set("online_alid.sketch_prune_ratio",
             Ratio(c.sketch_prunes, c.sketch_prunes + c.sketch_exact),
             "ratio");
  report.Set("online_alid.refresh_conflict_ratio",
             Ratio(c.refresh_conflicts,
                   c.refresh_conflicts + c.refresh_speculations),
             "ratio");
  report.Set("online_alid.evicted", Ratio(c.evicted, passes), "count");
  report.Set("online_alid.redetections", Ratio(c.redetections, passes),
             "count");
  report.Set("affinity.entries_per_arrival", Ratio(c.entries, c.arrivals),
             "count");
  report.Set("affinity.entries_computed", Ratio(c.entries, passes), "count");
  report.Set("affinity.cache_hit_ratio",
             Ratio(c.cache_hits, c.cache_hits + c.entries), "ratio");
  report.Set("affinity.cache_evictions", Ratio(c.cache_evictions, passes),
             "count");
}

}  // namespace alid::perfbench

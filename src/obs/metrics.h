#ifndef ALID_OBS_METRICS_H_
#define ALID_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace alid::obs {

/// A monotone event count. Hot paths call Add() with relaxed atomics — no
/// lock, no fence — so a counter bump costs one uncontended RMW. Instruments
/// are created through a MetricsRegistry and live exactly as long as it:
/// callers keep the returned pointer and never own it.
class Counter {
 public:
  void Add(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Reset support for the thin-view Reset() paths (StreamStats/ServeStats);
  /// exporters treat the value as monotone between resets.
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<int64_t> value_{0};
};

/// A point-in-time level (bytes held, items alive, queue depth).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

/// A fixed-bucket histogram: `edges` are inclusive upper bounds of the first
/// N buckets, with an implicit +inf bucket after the last edge. Observe() is
/// a branchless-enough binary search plus one relaxed RMW per observation.
class Histogram {
 public:
  void Observe(double value);
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  const std::vector<double>& edges() const { return edges_; }
  /// Per-bucket counts, size edges().size() + 1 (the +inf bucket last).
  std::vector<int64_t> BucketCounts() const;

 private:
  friend class MetricsRegistry;
  explicit Histogram(std::vector<double> edges);
  std::vector<double> edges_;                  // sorted, immutable
  std::vector<std::atomic<int64_t>> buckets_;  // edges_.size() + 1
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One exported sample of one instrument (see MetricsRegistry::Snapshot).
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  int64_t value = 0;  ///< Counters, gauges, callback gauges.
  // Histogram payload (empty for scalar kinds).
  std::vector<double> edges;
  std::vector<int64_t> buckets;
  int64_t count = 0;
  double sum = 0.0;
};

/// Named instruments registered once, updated lock-free, exported
/// consistently. Two scopes exist by convention: MetricsRegistry::Global()
/// carries process-wide telemetry (memory trackers, the snapshot arena, the
/// trace recorder, PALID run totals), while subsystems that can have many
/// live instances (OnlineAlid, ClusterServer) each own a per-instance
/// registry so concurrent streams/servers never collide on a name.
///
/// Registration takes a short lock and must use a unique name (ALID_CHECKed);
/// instrument addresses are stable until the registry dies, so hot paths
/// cache the returned pointer and pay only the relaxed atomic per update.
/// Snapshot()/exporters copy the instrument list under the lock, then read
/// values outside it — callback gauges may therefore take their own locks
/// without ordering against the registry's.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry. Pre-populated with both MemoryTracker
  /// spaces (memory_current_bytes / memory_peak_bytes; the snapshot-arena
  /// space registers itself from serve/snapshot_arena.cc) and the trace
  /// recorder's buffered/dropped event gauges.
  static MetricsRegistry& Global();

  Counter* AddCounter(const std::string& name);
  Gauge* AddGauge(const std::string& name);
  /// A gauge whose value is read on export — for telemetry that already
  /// lives in some other object's atomics (ThreadPool, the memory
  /// trackers). The callback must stay valid for the registry's
  /// lifetime and be safe to call from any thread.
  void AddCallbackGauge(const std::string& name,
                        std::function<int64_t()> read);
  Histogram* AddHistogram(const std::string& name, std::vector<double> edges);

  /// One consistent pass over every instrument, registration order.
  std::vector<MetricSample> Snapshot() const;

  /// Comma-joined `"name":value` pairs without surrounding braces — the
  /// form bench records embed so existing JSON-trajectory keys keep coming
  /// from the registry. Histograms export `name_count` and `name_sum`.
  std::string ToJsonFields() const;
  /// `{"name":value,...}` — one single-line JSON object.
  std::string ToJson() const;
  /// Prometheus text exposition (counter/gauge/histogram types, `alid_`
  /// namespace prefix, cumulative `le` buckets).
  std::string ToPrometheusText() const;

 private:
  struct Entry {
    std::string name;
    MetricKind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<int64_t()> callback;  // callback gauges only
  };
  void CheckNameFree(const std::string& name) const;  // caller holds mu_

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace alid::obs

#endif  // ALID_OBS_METRICS_H_

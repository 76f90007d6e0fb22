#ifndef ALID_SERVE_SERVE_STATS_H_
#define ALID_SERVE_SERVE_STATS_H_

#include <cstdint>

#include "obs/metrics.h"

namespace alid {

/// One read of a ClusterServer's counters (ServeStats::View()) —
/// the serving counterpart of PalidStats / StreamStats. Since the
/// observability layer landed this is a thin view materialized from the
/// server's obs::MetricsRegistry (ServeStats::registry()), kept so no
/// caller breaks; new consumers can read the registry directly (JSON /
/// Prometheus exporters included).
struct ServeStatsView {
  int64_t single_queries = 0;  ///< Single-point assignment queries.
  int64_t batch_calls = 0;     ///< Batched assignment calls (Query, >1 point).
  int64_t queries = 0;         ///< Items answered (singles + batch items).
  int64_t assigned = 0;        ///< Queries routed to a cluster.
  int64_t unassigned = 0;      ///< Queries matching no cluster (noise).
  int64_t topk_queries = 0;
  int64_t info_queries = 0;
  int64_t snapshots_published = 0;
  /// Always 0: kept only for readers of the retired support-sketch counter.
  int64_t sketch_prunes = 0;
  /// Always 0: kept only for readers of the retired support-sketch counter.
  int64_t sketch_exact = 0;
  /// Members / clusters the published snapshots inherited from their
  /// predecessors via the incremental export (0 under from-scratch builds).
  int64_t rows_reused = 0;
  int64_t clusters_reused = 0;
  /// Arena-block bytes the published snapshots shared with their
  /// predecessors (refcount bumps) vs. newly materialized — the byte-level
  /// ledger of the O(changed-bytes) publish property (see
  /// SnapshotBuildInfo).
  int64_t bytes_shared = 0;
  int64_t bytes_copied = 0;
  /// Gauges of the server's history ring at View() time: unique arena-block
  /// and candidate-directory bytes held *only* for retained historical
  /// generations (blocks shared with the current snapshot are free), how
  /// many retired generations are addressable, and how many were evicted
  /// by the capacity bound.
  int64_t history_ring_bytes = 0;
  int generations_retained = 0;
  int64_t history_evictions = 0;
};

/// Lock-free counters and latency histograms behind a ClusterServer, all
/// named instruments in a per-instance obs::MetricsRegistry (relaxed-atomic
/// hot path). Latencies are registry histograms only: `query_seconds` gets
/// one observation per assignment call (call seconds / points), and
/// `publish_seconds` one per publish that carries a build. Callers that
/// want percentiles time their own calls.
class ServeStats {
 public:
  ServeStats();

  void RecordAssign(int64_t items, int64_t assigned, double seconds,
                    bool batch);
  void RecordTopK(int64_t count = 1) { topk_queries_->Add(count); }
  void RecordInfo() { info_queries_->Add(1); }
  /// Per-shard sub-queries of one answered request (points x shards).
  void RecordFanout(int64_t subqueries) { fanout_->Add(subqueries); }
  /// One publication: the snapshot's build latency joins the
  /// `publish_seconds` histogram (skipped when has_build is false — the
  /// offline nullptr publish or a republish) and its incremental-export
  /// reuse/byte counters accumulate.
  void RecordPublish(bool has_build, double build_seconds, int64_t rows_reused,
                     int64_t clusters_reused, int64_t bytes_shared,
                     int64_t bytes_copied);

  /// A copy of every counter (each load relaxed; unassigned clamped >= 0).
  ServeStatsView View() const;

  /// The instrument registry behind the view — ClusterServer adds its
  /// history-ring gauges here, and exporters read it as JSON/Prometheus.
  const obs::MetricsRegistry& registry() const { return registry_; }
  obs::MetricsRegistry* mutable_registry() { return &registry_; }

 private:
  obs::MetricsRegistry registry_;
  obs::Counter* single_queries_;
  obs::Counter* batch_calls_;
  obs::Counter* queries_;
  obs::Counter* assigned_;
  obs::Counter* topk_queries_;
  obs::Counter* info_queries_;
  obs::Counter* fanout_;
  obs::Counter* snapshots_published_;
  obs::Counter* rows_reused_;
  obs::Counter* clusters_reused_;
  obs::Counter* bytes_shared_;
  obs::Counter* bytes_copied_;
  obs::Histogram* query_seconds_;
  obs::Histogram* publish_seconds_;
};

}  // namespace alid

#endif  // ALID_SERVE_SERVE_STATS_H_

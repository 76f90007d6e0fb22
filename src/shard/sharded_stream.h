#ifndef ALID_SHARD_SHARDED_STREAM_H_
#define ALID_SHARD_SHARDED_STREAM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/online_alid.h"
#include "obs/metrics.h"

namespace alid {

/// Options of the sharded ingest tier.
struct ShardedStreamOptions {
  /// Per-shard OnlineAlid configuration (every shard runs the same one —
  /// affinity/LSH parameters and window; the LSH seed in particular makes
  /// bucket keys comparable across shards, which is what the
  /// boundary-cluster report keys on). base.pool is the pool the shards'
  /// sub-batches run on.
  OnlineAlidOptions base;
  /// Number of independent OnlineAlid shards, fixed at construction. The
  /// partition of the stream — and therefore every shard's state — is a
  /// pure function of (num_shards, stream), so the sharded output is part
  /// of the determinism contract exactly like an executor count is not:
  /// changing S changes the result, changing executors never does.
  /// num_shards == 1 is bit-identical to a plain OnlineAlid.
  int num_shards = 1;
};

/// Where one arrival landed: the shard and the slot inside that shard's
/// OnlineAlid (the sharded counterpart of the slot InsertBatch returns).
struct ShardSlot {
  int shard = -1;
  Index slot = -1;

  bool operator==(const ShardSlot&) const = default;
};

/// Hash-partitioned intra-process sharding of the ingest path: S independent
/// OnlineAlid instances, each owning the arrivals whose partition key hashes
/// to it, ingesting their per-batch sub-batches concurrently on the shared
/// pool. One OnlineAlid batch runs entirely on the thread that calls it (no
/// pool dispatch inside a stream batch), so a whole shard's sub-batch is
/// the unit of pool work: sharding runs S such batches at once, and ingest
/// scales past what one stream's calling thread can do.
///
/// Determinism contract: the partition rule is a stable content hash
/// (SplitMix64 over the point's scalar bit patterns, or an explicit caller
/// key), so which shard owns an arrival — and hence every shard's full
/// state — is a pure function of (options incl. num_shards, stream). For a
/// fixed S the result is bit-identical across executor counts and
/// schedules (cross-shard ingest only changes *when* shards run, never what
/// they see), and S == 1 delegates straight to the single OnlineAlid, bit
/// for bit.
///
/// Thread-safety: like OnlineAlid, externally synchronized — one ingest
/// call at a time. Readers query a ShardRouter: the ClusterServer that
/// publishes the shards' snapshots as one generation with one cluster-id
/// space.
class ShardedStream {
 public:
  ShardedStream(int dim, ShardedStreamOptions options);

  /// The default partition key of a point: a SplitMix64 chain over the
  /// scalar bit patterns. Stable across runs, platforms and batch splits —
  /// the same bytes always land on the same shard.
  static uint64_t PartitionKey(std::span<const Scalar> point);

  /// Shard owning a partition key: SplitMix64(key) mod num_shards.
  int ShardOf(uint64_t partition_key) const;

  /// Batch ingest: `points` holds count * dim scalars, row-major, in
  /// arrival order. Arrivals are routed by PartitionKey and each shard
  /// ingests its sub-batch (arrival order preserved within the shard); the
  /// per-shard ingests run concurrently on the shared pool. Returns where
  /// each arrival landed, parallel to the input.
  std::vector<ShardSlot> InsertBatch(std::span<const Scalar> points);

  /// Same, with explicit per-arrival partition keys (count entries) — the
  /// hook for entity-keyed routing and for tests that force placements.
  std::vector<ShardSlot> InsertBatch(std::span<const Scalar> points,
                                     std::span<const uint64_t> partition_keys);

  /// Forces every shard's maintenance pass (concurrently, like ingest).
  void Refresh();

  int dim() const { return dim_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardedStreamOptions& options() const { return options_; }

  /// Shard s's OnlineAlid (the router exports snapshots from these).
  const OnlineAlid& shard(int s) const { return *shards_[s]; }

  /// Total arrivals / live items across all shards.
  Index size() const;
  Index alive() const;

  /// Counter sums across every shard, in the StreamStats shape. The sharded
  /// per-InsertBatch latencies live in metrics()'s `ingest_seconds`.
  StreamStats stats() const;

  /// The sharded tier's own instruments: ingest counters, the per-shard
  /// `shard<N>_*` gauges, and the ingest-latency histogram.
  const obs::MetricsRegistry& metrics() const { return metrics_.registry; }

 private:
  std::vector<ShardSlot> InsertPartitioned(
      std::span<const Scalar> points, std::span<const uint64_t> partition_keys);
  // Refreshes the shard<N>_alive / shard<N>_clusters_alive / skew gauges;
  // serial (called after the cross-shard barrier only).
  void UpdateShardGauges();

  int dim_;
  ShardedStreamOptions options_;
  std::vector<std::unique_ptr<OnlineAlid>> shards_;

  struct ShardInstruments {
    obs::MetricsRegistry registry;
    obs::Counter* ingest_batches = nullptr;
    obs::Counter* arrivals = nullptr;
    obs::Gauge* hot_shard_arrivals = nullptr;  // max per-shard arrivals
    obs::Gauge* cold_shard_arrivals = nullptr; // min per-shard arrivals
    std::vector<obs::Gauge*> shard_alive;
    std::vector<obs::Gauge*> shard_clusters_alive;
    obs::Histogram* ingest_seconds = nullptr;
  };
  ShardInstruments metrics_;
};

}  // namespace alid

#endif  // ALID_SHARD_SHARDED_STREAM_H_

#ifndef ALID_SERVE_CLUSTER_SERVER_H_
#define ALID_SERVE_CLUSTER_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <shared_mutex>
#include <span>
#include <vector>

#include "serve/cluster_snapshot.h"
#include "serve/serve_stats.h"

namespace alid {

class ThreadPool;

/// Options of the query side.
struct ClusterServerOptions {
  /// Optional shared executor pool for batched queries (the same pool the
  /// rest of the runtime runs on). Each query is pure against the batch's
  /// snapshot, so results are bit-identical for any pool width, schedule,
  /// or pool == nullptr — the runtime's standard determinism contract.
  ThreadPool* pool = nullptr;
  /// Retired generations the server keeps addressable for as-of queries
  /// (the history ring, oldest evicted first); 0 disables time travel.
  /// This count is the ring's only bound. Consecutive generations share
  /// their unchanged clusters' arena blocks and, along a chain of
  /// incremental exports, one refcounted base candidate directory, so the
  /// ring pays for the blocks and bases the current snapshot no longer
  /// references plus each retained snapshot's own delta directory and base
  /// map (ServeStatsView::history_ring_bytes).
  int history_capacity = 4;
};

/// One published generation: the per-shard ClusterSnapshots served together
/// as one unit (S = shards.size(); S == 1 is the plain case). The cluster
/// ids of a generation form one id space: shard s's clusters take the ids
/// that follow shard s-1's, so every answer names its cluster by one int
/// and the snapshot's own "lowest id on ties" rule orders clusters across
/// shards too. `generation` is the publication tag — the snapshot's own
/// generation for S == 1, the sharded stream's total arrival count for
/// ShardRouter.
struct ServedGeneration {
  uint64_t generation = 0;
  std::vector<std::shared_ptr<const ClusterSnapshot>> shards;
};

/// Retired generations kept addressable for as-of queries, oldest first.
using HistoryRing = std::deque<std::shared_ptr<const ServedGeneration>>;

/// A unified serve request: `points` holds count * dim scalars, row-major.
/// top_k == 0 asks for assignments (one QueryOutcome per point — the
/// Theorem-1 absorb decision); top_k > 0 asks for ranked candidates (one
/// ScoredCluster list per point, descending affinity, truncated to top_k).
/// generation == 0 addresses the current snapshot; any other value
/// addresses that retained generation from the history ring (bounded time
/// travel) and fails with kGenerationUnavailable once it was evicted.
struct QueryRequest {
  std::span<const Scalar> points;
  int top_k = 0;
  uint64_t generation = 0;
};

enum class QueryStatus {
  kOk = 0,
  /// No snapshot published (or an explicit nullptr publish took the server
  /// offline): every point answers unassigned, generation 0.
  kOffline = 1,
  /// The addressed generation is neither current nor retained in the
  /// history ring.
  kGenerationUnavailable = 2,
  /// The request itself is malformed: `points` is not a whole number of
  /// dim-sized rows, top_k is negative, or a coordinate is NaN or infinite.
  /// Nothing is scored; the answers are default-filled as for kOffline
  /// (count = points.size() / dim, on the assignment side unless top_k > 0).
  kInvalidRequest = 3,
};

/// The answer to one QueryRequest. Exactly one of `assignments` (top_k ==
/// 0) or `ranked` (top_k > 0) is populated per point; on a non-kOk status
/// the populated side holds default (unassigned / empty) entries so callers
/// can index it without branching.
struct QueryResponse {
  QueryStatus status = QueryStatus::kOffline;
  /// Generation of the snapshot that answered (0 on non-kOk statuses).
  uint64_t generation = 0;
  std::vector<QueryOutcome> assignments;
  std::vector<std::vector<ScoredCluster>> ranked;

  bool ok() const { return status == QueryStatus::kOk; }
};

/// One cluster's change between two generations (ClusterServer::
/// GenerationDiff). Clusters match across generations by (shard, stream
/// uid) — every shard's stream numbers its clusters from uid 1, so the uid
/// alone is ambiguous once S > 1; a matched cluster whose version differs
/// drifted (membership/weights/density changed), an unmatched one was born
/// or died.
struct ClusterDrift {
  uint64_t uid = 0;
  int cluster_from = -1;  ///< Id in the `from` generation (-1 for births).
  int cluster_to = -1;    ///< Id in the `to` generation (-1 for deaths).
  Index size_from = 0;
  Index size_to = 0;
  Scalar density_from = 0.0;
  Scalar density_to = 0.0;
};

/// What changed between two retained generations.
struct GenerationDiffResult {
  /// False when either generation is not addressable (evicted or never
  /// published) — the vectors are empty then.
  bool ok = false;
  uint64_t from = 0;
  uint64_t to = 0;
  std::vector<ClusterDrift> births;   ///< In `to` only.
  std::vector<ClusterDrift> deaths;   ///< In `from` only.
  std::vector<ClusterDrift> drifted;  ///< Matched, version changed.
  /// Matched clusters whose (uid, version) survived verbatim — exactly the
  /// clusters whose arena blocks the two snapshots share.
  int unchanged = 0;
};

/// The read side of the serving subsystem, for any shard count: answers
/// generation-addressed queries against immutable ServedGenerations
/// published through an RCU-style atomic shared_ptr swap. Readers never
/// wait on each other and never see torn state — a query (or a whole batch)
/// acquires one generation reference up front and scores every point, on
/// every shard, against it even while Publish() installs a successor; a
/// retired generation enters the bounded history ring (staying addressable
/// for as-of queries) and dies when evicted and released by its last
/// in-flight reader. The write side (an ingest/refresh loop) mutates
/// nothing the readers touch: it builds fresh snapshots off-line and
/// publishes them in one pointer swap. Because consecutive snapshots share
/// their unchanged clusters' arena blocks, both the publish and the ring
/// pay block bytes for changed clusters only. Chained generations also
/// share one refcounted base candidate directory; each keeps only its own
/// delta directory (the buckets of blocks the base lacks) and its map from
/// base position to cluster id.
///
/// A request hashes each point once, with the hasher of the generation's
/// shard 0, and hands the keys to every shard's keyed Assign/TopKClusters;
/// so the shards of a generation must hash alike (ClusterSnapshot::
/// HashesLike), which Publish checks. A point is hashed only when some
/// shard of the pinned generation holds a cluster — an empty shard answers
/// without keys. Sharded answers merge by the snapshot's own rule over the
/// generation's one cluster-id space: assignment takes the largest positive
/// margin and ranking orders by affinity descending, both breaking ties by
/// the lowest id, i.e. by ascending (shard, cluster). For S == 1 a request
/// does exactly the single snapshot's work.
///
/// The publication cell implements std::atomic<std::shared_ptr> semantics
/// (P0718: linearizable store, acquire loads) over a reader-writer lock
/// rather than libstdc++'s _Sp_atomic: the latter's hand-rolled spinlock is
/// opaque to ThreadSanitizer, and this subsystem's swap-linearizability
/// contract is enforced under TSan in CI. It is the server's one lock.
/// Readers take it shared and hold it only to bump the generation's
/// refcount (or scan the ring), so a reader is delayed only by a concurrent
/// Publish, never by other readers. Publish takes it exclusively for O(ring)
/// pointer moves: retire the outgoing generation, cut the ring to capacity,
/// swap. The ring's byte gauge walks no block on publish; it is counted
/// when read (stats() and the registry gauge copy the ring under the shared
/// lock and walk the copy outside it).
///
/// Thread-safety: Publish and every query method may be called from any
/// number of threads concurrently. Detect-side structures (OnlineAlid, the
/// detectors) stay externally synchronized as before — only their exported
/// snapshots enter the server.
class ClusterServer {
 public:
  /// `dim` is the dimensionality served (ALID_CHECKed positive here, and
  /// checked against every published snapshot and query).
  explicit ClusterServer(int dim, ClusterServerOptions options = {});

  /// Atomically installs a new generation (a release in the publication
  /// order: a reader that sees it also sees everything its build wrote).
  /// Every shard must have the server's dim and hash like shard 0
  /// (ALID_CHECKed).
  /// The retired generation enters the history ring (unless
  /// history_capacity is 0); generations evicted by the capacity bound are
  /// released outside the swap critical section, so an expensive teardown
  /// never stalls readers. Republishing the current shards is a no-op for
  /// the ring. Passing nullptr takes the server offline (queries answer
  /// unassigned, generation 0).
  void Publish(std::shared_ptr<const ServedGeneration> generation);
  /// Publishes `snapshot` as a one-shard generation tagged with the
  /// snapshot's own generation.
  void Publish(std::shared_ptr<const ClusterSnapshot> snapshot);
  void Publish(std::nullptr_t) {
    Publish(std::shared_ptr<const ServedGeneration>());
  }

  /// The current generation, or nullptr before the first Publish. Holding
  /// the returned pointer pins it across later swaps.
  std::shared_ptr<const ServedGeneration> snapshot() const;

  /// Generation of the current snapshot (0 when offline).
  uint64_t generation() const;

  /// The unified serve entry point (see QueryRequest): assignment or
  /// ranked mode, against the current generation or a retained one. The
  /// whole request is answered by ONE generation (acquired once) and
  /// chunked across the shared pool; assignment results are bit-identical
  /// to querying its shards point by point serially and merging by the
  /// class comment's rule, and an as-of request reproduces exactly the
  /// answers the addressed generation gave when it was current (the
  /// snapshots are immutable — nothing to recompute). A malformed request
  /// fails typed with kInvalidRequest and records no serve stats.
  QueryResponse Query(const QueryRequest& request) const;

  /// Cluster births, deaths and drift between two addressable generations
  /// (0 = current). Purely metadata — O(clusters), no member rows touched.
  GenerationDiffResult GenerationDiff(uint64_t from, uint64_t to) const;

  /// Generation `generation` (0 = current): the current one or a ring
  /// entry, nullptr when not addressable. Holding the pointer pins it past
  /// eviction.
  std::shared_ptr<const ServedGeneration> SnapshotAt(uint64_t generation) const;

  /// Copy-out of one cluster's metadata from the current generation
  /// (info.cluster == -1 when offline or out of range).
  ClusterSnapshotInfo ClusterInfo(int cluster) const;

  int dim() const { return dim_; }
  const ClusterServerOptions& options() const { return options_; }

  /// A read of the serving counters (query counts, publish byte ledger,
  /// history-ring gauges, …); latencies live in registry() histograms.
  /// history_ring_bytes is counted here, by one walk over the ring's blocks
  /// (O(retained blocks), outside the lock).
  ServeStatsView stats() const;

  /// The per-instance instrument registry behind stats(): every serve
  /// counter (shard_fanout_queries counts points x shards per answered
  /// request) plus the history-ring and pool gauges, exportable as
  /// single-line JSON (bench trajectory) or Prometheus text.
  const obs::MetricsRegistry& metrics() const { return stats_.registry(); }

 private:
  // The history-ring byte gauge: copies the current generation and the
  // ring under the shared lock, then walks the copy.
  int64_t HistoryRingBytes() const;

  int dim_;
  ClusterServerOptions options_;
  // The publication cell (see class comment). shared lock: copy the
  // pointer / scan the ring; unique lock: retire, evict and swap.
  mutable std::shared_mutex snapshot_mu_;
  std::shared_ptr<const ServedGeneration> current_;
  HistoryRing history_;  // oldest first
  int64_t history_evictions_ = 0;
  mutable ServeStats stats_;
};

}  // namespace alid

#endif  // ALID_SERVE_CLUSTER_SERVER_H_

#ifndef ALID_CORE_ONLINE_ALID_H_
#define ALID_CORE_ONLINE_ALID_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "core/alid.h"
#include "core/cluster_scorer.h"
#include "obs/metrics.h"

namespace alid {

class ThreadPool;

/// Options of the streaming subsystem.
struct OnlineAlidOptions {
  /// Affinity kernel of the stream.
  AffinityParams affinity;
  /// LSH parameters (the index grows — and, under a window, shrinks — with
  /// the stream).
  LshParams lsh;
  /// Per-detection ALID options.
  AlidOptions alid;
  /// A maintenance pass (re-detection over the unassigned pool) runs at the
  /// end of the batch in which this many new items have arrived since the
  /// last one; the remainder carries into the next interval (a batch of 40
  /// at interval 32 refreshes once and leaves 8 toward the next pass).
  Index refresh_interval = 256;
  /// Sliding window: at most this many arrivals stay alive. Older items are
  /// expired — removed from the LSH buckets, peeled out of their cluster
  /// (which is then warm re-detected from its survivors or dissolved) — and
  /// their slots re-used by later arrivals, so the index footprint stays
  /// bounded by the window, not the stream.
  /// 0 keeps every arrival forever (the append-only mode of the original
  /// extension).
  Index window = 0;
  /// A single stream ignores this: its batch runs on the calling thread.
  /// ShardedStream reads it off its base options to ingest whole shards
  /// concurrently.
  ThreadPool* pool = nullptr;
};

/// Counters of one OnlineAlid stream — the
/// streaming counterpart of PalidStats. Since the observability layer
/// landed this is a thin view materialized from the stream's per-instance
/// obs::MetricsRegistry (OnlineAlid::metrics()), kept so no caller breaks.
struct StreamStats {
  int64_t arrivals = 0;  ///< Items ever inserted.
  int64_t absorbed = 0;  ///< Arrivals absorbed into a live cluster on entry.
  int64_t pooled = 0;    ///< Arrivals that joined the unassigned pool (a
                         ///< refresh pass may still cluster them later).
  int64_t evicted = 0;   ///< Items expired out of the sliding window.
  int64_t redetections = 0;  ///< Warm re-detections (one per touched
                             ///< cluster per batch).
  int64_t refreshes = 0;     ///< Maintenance passes over the pool.
  int64_t clusters_born = 0;
  int64_t clusters_dissolved = 0;
  /// Always 0: kept only for readers of the retired support-sketch counter.
  int64_t sketch_prunes = 0;
  /// Always 0: kept only for readers of the retired support-sketch counter.
  int64_t sketch_exact = 0;
  /// Always 0: kept only for readers of the retired refresh-frontier
  /// counter (the refresh is the serial peel and never speculates).
  int64_t refresh_speculations = 0;
  /// Always 0: kept only for readers of the retired refresh-frontier
  /// counter.
  int64_t refresh_conflicts = 0;
  Index alive = 0;         ///< Live items (inside the window).
  int clusters_alive = 0;  ///< Current dominant clusters.
  // InsertBatch wall seconds live in the registry's `ingest_seconds`
  // histogram (one observation per non-empty batch).
};

/// OnlineAlid — the "online version to efficiently process streaming data
/// sources" the paper names as future work (Section 6), grown into a
/// windowed streaming subsystem.
///
/// Parallelism rule: ThreadPool work is whole detections (PALID), whole
/// shards (ShardedStream, ShardRouter) and query points (ClusterServer).
/// Every per-arrival or per-cluster loop inside one stream batch runs
/// inline on the calling thread: each is too small to pay for a dispatch.
///
/// Ingest strategy per batch: every arrival is written into a slot (expired
/// slots are re-used smallest-first) and hashed into the growing LSH index,
/// then scored for Theorem-1 absorption against the batch-start state. Absorb
/// scoring goes through each candidate cluster's immutable ClusterScorer, built
/// at the end of the batch that last changed the cluster: one exact weighted
/// kernel sum over the member tiles per candidate (the LSH candidates already
/// bound the candidate set). Snapshot exports share the same scorers, so the
/// serving side scores with the very objects the stream does. Every arrival's
/// target is fixed before anything mutates. The apply phase then expires the
/// oldest items under a sliding window (they leave the LSH buckets and are
/// peeled out of their clusters; their slots will be re-used) and re-detects
/// each *touched* cluster — an absorb target or a cluster that lost members —
/// once, in ascending id order. That re-detection is warm
/// (AlidDetector::DetectFrom): by Theorem 1 only vertices infective against the
/// cluster's current optimum can raise it, so LID resumes from the surviving
/// weighted support with the batch's still-unassigned newcomers added to the
/// local range, and the ROI/CIVS search continues from there. A cluster left
/// with no survivors, or with fewer than kMinClusterSize and no newcomers,
/// dissolves. Arrivals the re-detections leave out join the unassigned pool; at
/// the end of every batch that completes `refresh_interval` arrivals a refresh
/// pass peels newly formed clusters out of the pool — the paper's serial peel
/// (Section 4.4): a cold Algorithm-2 run from each still-unpeeled pool seed in
/// ascending slot order, its support removed before the next seed. Costs stay
/// local: no global recomputation ever happens.
class OnlineAlid {
 public:
  explicit OnlineAlid(int dim, OnlineAlidOptions options);

  /// Feeds one data point; returns its slot (equal to the stream position
  /// until a window expires items and slots start being re-used). Triggers
  /// the same maintenance as a batch of one.
  Index Insert(std::span<const Scalar> point);

  /// Batch ingest: `points` holds count * dim scalars, row-major, in
  /// arrival order. Returns the slot of each arrival. Absorb candidates are
  /// evaluated against the state at batch start; window expiry, one
  /// re-detection per touched cluster and a due refresh pass then run once
  /// for the whole batch.
  std::vector<Index> InsertBatch(std::span<const Scalar> points);

  /// Current dominant clusters (density >= the ALID keep-threshold).
  const std::vector<Cluster>& clusters() const { return clusters_; }

  /// Cluster id of the item in slot i, or -1 while unassigned, expired, or
  /// out of the slot universe (slots are re-used under a window, so they
  /// stop at about `window + batch` even as size() keeps counting arrivals).
  int ClusterOf(Index i) const {
    return i >= 0 && i < static_cast<Index>(assignment_.size())
               ? assignment_[i]
               : -1;
  }

  /// True iff slot i currently holds a live (non-expired) item.
  bool IsAlive(Index i) const {
    return i >= 0 && i < static_cast<Index>(alive_.size()) && alive_[i] != 0;
  }

  /// Number of items fed so far (monotonic; expired items still count).
  Index size() const { return static_cast<Index>(metrics_.arrivals->value()); }

  /// Live items currently inside the window.
  Index alive() const { return static_cast<Index>(window_fifo_.size()); }

  /// Forces the periodic maintenance pass now (e.g., at end of stream).
  void Refresh();

  /// The configured options (the serving layer reads the affinity/LSH
  /// parameters off these to build scoring-compatible snapshots).
  const OnlineAlidOptions& options() const { return options_; }

  /// Stable identity of cluster `c` (monotonic birth counter, >= 1;
  /// preserved across re-detections and id compactions). Together with
  /// cluster_version() this is what lets an incremental snapshot export
  /// recognize a cluster it already holds: equal (uid, version) across two
  /// exports means identical members, weights, density and member rows.
  uint64_t cluster_uid(int c) const {
    return cluster_uid_[static_cast<size_t>(c)];
  }

  /// Mutation counter of cluster `c` (bumped by every membership, weight or
  /// density change — absorb re-detections, expiry peels, merges,
  /// dissolutions).
  uint64_t cluster_version(int c) const {
    return cluster_version_[static_cast<size_t>(c)];
  }

  /// The scorer of cluster `c`. Fresh (version == cluster_version) for
  /// every cluster between batches, so snapshot exports share it instead
  /// of rebuilding.
  const std::shared_ptr<const ClusterScorer>& cluster_scorer(int c) const {
    return scorers_[static_cast<size_t>(c)];
  }

  /// Stream observability — the streaming counterpart of PalidStats. A
  /// consistent by-value view materialized from the registry (binding it to
  /// a const reference still works — lifetime extension — but the copy no
  /// longer tracks later mutations; every in-repo caller reads it fresh).
  StreamStats stats() const;

  /// The per-instance instrument registry behind stats(): every stream
  /// counter, exportable as single-line JSON (bench trajectory) or
  /// Prometheus text.
  const obs::MetricsRegistry& metrics() const { return metrics_.registry; }

  /// The shared oracle (kernel-evaluation counters for benches and tests).
  const LazyAffinityOracle& oracle() const { return *oracle_; }
  /// The LSH index over the live slots (snapshot exports read its keys).
  const LshIndex& lsh() const { return *lsh_; }

 private:
  // Writes the point into a re-used or appended slot (serial phase).
  Index AllocateSlot(std::span<const Scalar> point);
  // Pure Theorem-1 scoring of one arrival against the batch-start
  // clusters: the absorb target (-1 = pool).
  int ScoreArrival(Index slot) const;
  // Warm re-detection of one touched cluster (Algorithm 2 resumed from its
  // surviving weighted support, `newcomers` added to the local range), or
  // its dissolution when too little of it is left.
  void RedetectCluster(int cluster_id, const IndexList& newcomers);
  // Peels new clusters out of the unassigned pool: one DetectOne per
  // still-unpeeled seed, in ascending slot order.
  void DetectFromPool();
  // The tail of one pool detection: peel the support, filter by
  // density/size; when the cross density with an existing cluster reaches
  // the threshold, re-detect from the seed and replace that cluster with
  // the result, otherwise install as a new cluster.
  void InstallPoolCluster(Cluster cluster, const AlidDetector& detector,
                          std::vector<bool>& exclude);
  // End of a batch or of a forced Refresh(): the pool pass when
  // `refresh_pool`, then compaction, fresh scorers and the gauges.
  void EndPass(bool refresh_pool);
  // Builds a new scorer for every cluster whose version moved (end of every
  // batch / refresh, so scoring and exports always see fresh scorers).
  void RefreshScorers();
  void Assign(int cluster_id);
  // Expires the oldest items down to the window, peeling them out of their
  // clusters; appends the id of every cluster that lost a member to
  // `peeled` (repeats allowed).
  void ExpireToWindow(std::vector<int>& peeled);
  void DissolveCluster(int cluster_id);
  // Erases dead clusters and remaps assignments (end of batch / refresh).
  void CompactClusters();

  OnlineAlidOptions options_;
  Dataset data_;
  AffinityFunction affinity_fn_;
  std::unique_ptr<LazyAffinityOracle> oracle_;
  std::unique_ptr<LshIndex> lsh_;

  std::vector<Cluster> clusters_;
  // Mutation counter per cluster id; scorers are stamped with it, and the
  // incremental snapshot export re-uses clusters whose counter stood still.
  std::vector<uint64_t> cluster_version_;
  // Stable per-cluster identity (birth order, starting at 1) surviving the
  // id compaction — what snapshot generations match clusters by.
  std::vector<uint64_t> cluster_uid_;
  uint64_t next_cluster_uid_ = 1;
  // Scorers parallel to clusters_ (nullptr until a cluster's first batch
  // end). A cluster whose version moved gets a new scorer at batch end; a
  // scorer is never mutated, because snapshots may share it. So the
  // scoring phase and FromStream exports only ever read fresh ones.
  std::vector<std::shared_ptr<const ClusterScorer>> scorers_;
  std::vector<int> assignment_;   // slot -> cluster id or -1
  std::vector<uint8_t> alive_;    // slot -> live?
  // Expired slots, descending, so the smallest is an O(1) pop_back away.
  std::vector<Index> free_slots_;
  std::deque<Index> window_fifo_;  // live slots, oldest arrival first
  Index since_refresh_ = 0;

  // The stream counters re-homed onto a per-instance registry (StreamStats
  // is materialized from these): relaxed-atomic Adds in the apply phases,
  // batch latencies in a histogram. Wired in the constructor; pointers are
  // stable for the stream's lifetime.
  struct StreamInstruments {
    obs::MetricsRegistry registry;
    obs::Counter* arrivals = nullptr;
    obs::Counter* absorbed = nullptr;
    obs::Counter* pooled = nullptr;
    obs::Counter* evicted = nullptr;
    obs::Counter* redetections = nullptr;
    obs::Counter* refreshes = nullptr;
    obs::Counter* clusters_born = nullptr;
    obs::Counter* clusters_dissolved = nullptr;
    // Kernel evaluations of the warm re-detections and of the refresh
    // passes: exact oracle deltas (both phases run with nothing else
    // touching the oracle).
    obs::Counter* redetect_entries = nullptr;
    obs::Counter* refresh_entries = nullptr;
    obs::Gauge* alive = nullptr;
    obs::Gauge* clusters_alive = nullptr;
    obs::Histogram* ingest_seconds = nullptr;
  };
  StreamInstruments metrics_;
};

}  // namespace alid

#endif  // ALID_CORE_ONLINE_ALID_H_

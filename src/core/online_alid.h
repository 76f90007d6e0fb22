#ifndef ALID_CORE_ONLINE_ALID_H_
#define ALID_CORE_ONLINE_ALID_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "core/alid.h"
#include "core/support_sketch.h"
#include "obs/latency_reservoir.h"
#include "obs/metrics.h"
#include "simd/soa_block.h"

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
  /// A maintenance pass (re-detection over the unassigned pool) runs after
  /// this many new items.
  Index refresh_interval = 256;
  /// A newcomer is routed to a cluster already when pi(s_j, x) exceeds
  /// (1 - absorb_slack) * pi(x): same-cluster arrivals sit *at* the density
  /// (Theorem 1's equality on the support), so the strict > test alone
  /// would bounce half of them into the pool and fragment the cluster.
  double absorb_slack = 0.05;
  /// Sliding window: at most this many arrivals stay alive. Older items are
  /// expired — removed from the LSH buckets, peeled out of their cluster
  /// (which is then locally re-detected or dissolved) — and their slots
  /// re-used by later arrivals, so the index footprint stays bounded by the
  /// window, not the stream.
  /// 0 keeps every arrival forever (the append-only mode of the original
  /// extension).
  Index window = 0;
  /// Optional shared executor pool for the batch-ingest phases (arrival
  /// hashing and absorb scoring run chunked on it; all mutation phases stay
  /// serial in arrival order). The streamed state is bit-identical for any
  /// pool width, scheduling discipline, grain, or pool == nullptr — the
  /// same determinism contract as src/common/parallel.*.
  ThreadPool* pool = nullptr;
  /// Chunk grain of the parallel phases (see DeterministicGrain); 0 auto.
  int64_t grain = 0;
  /// Per-cluster support-sketch sizing. The sketch is a branch-and-bound
  /// filter in front of exact absorb scoring: with a bounded kernel, any
  /// scored prefix of the top-weight members plus the remaining weight
  /// upper-bounds pi(s_j, x), so most candidate clusters are rejected
  /// after a few kernel evaluations instead of a full-support scan — and
  /// since an inconclusive bound falls back to the unchanged exact
  /// summation, the streamed state is bit-identical with the sketch on or
  /// off (prefix_mass <= 0 disables it).
  SupportSketchParams sketch;
  /// Maximum number of pool seeds the refresh pass detects speculatively
  /// per map round (PALID's seed-chunk map stage over the unassigned pool).
  /// The frontier ramps 1 -> 2 -> ... -> this cap while rounds stay
  /// conflict-free and resets to 1 on any conflict, so serial re-detections
  /// stay rare; 1 pins the original strictly-serial peeling. The refresh
  /// outcome depends only on this option and the stream history — never on
  /// the executor count.
  int refresh_frontier = 16;
};

/// Counters and per-batch ingest latencies of one OnlineAlid stream — the
/// streaming counterpart of PalidStats. Since the observability layer
/// landed this is a thin view materialized from the stream's per-instance
/// obs::MetricsRegistry (OnlineAlid::metrics()), kept so no caller breaks.
struct StreamStats {
  int64_t arrivals = 0;  ///< Items ever inserted.
  int64_t absorbed = 0;  ///< Arrivals absorbed into a live cluster on entry.
  int64_t pooled = 0;    ///< Arrivals that joined the unassigned pool (a
                         ///< refresh pass may still cluster them later).
  int64_t evicted = 0;   ///< Items expired out of the sliding window.
  int64_t redetections = 0;  ///< Local Algorithm-2 re-runs (absorb + repair).
  int64_t refreshes = 0;     ///< Maintenance passes over the pool.
  int64_t clusters_born = 0;
  int64_t clusters_dissolved = 0;
  /// Candidate clusters rejected by the support-sketch upper bound during
  /// absorb scoring — exact work the branch-and-bound filter skipped.
  int64_t sketch_prunes = 0;
  /// Sketch-engaged candidates whose bound was inconclusive and fell back
  /// to the exact full-support scoring (the bits of which the sketch never
  /// changes).
  int64_t sketch_exact = 0;
  /// Map rounds of the refresh pass's frontier scheme.
  int64_t refresh_rounds = 0;
  /// Speculative pool detections accepted as-is (their support stayed
  /// disjoint from everything claimed earlier in the round).
  int64_t refresh_speculations = 0;
  /// Speculative pool detections that overlapped an earlier claim and were
  /// re-detected serially against the up-to-date exclusions.
  int64_t refresh_conflicts = 0;
  Index alive = 0;         ///< Live items (inside the window).
  int clusters_alive = 0;  ///< Current dominant clusters.
  /// Wall seconds of the most recent InsertBatch calls, in call order —
  /// bounded at kMaxLatencySamples (oldest halved away) so a long-lived
  /// stream's stats footprint stays bounded like everything else.
  std::vector<double> batch_seconds;

  static constexpr size_t kMaxLatencySamples = 8192;

  /// Histogram of batch_seconds over `bins` equal-width buckets spanning
  /// [0, max batch time] — the ingest-latency profile of the stream.
  std::vector<int> LatencyHistogram(int bins = 8) const;
};

/// OnlineAlid — the "online version to efficiently process streaming data
/// sources" the paper names as future work (Section 6), grown into a
/// windowed, batch-parallel streaming subsystem on the shared runtime.
///
/// Ingest strategy per batch: every arrival is written into a slot (expired
/// slots are re-used smallest-first) and hashed into the growing LSH index —
/// the hashing and the Theorem-1 absorb scoring run chunked on the shared
/// pool, both pure against the batch-start state, so the streamed state is
/// bit-identical for every executor count. Absorb scoring consults each
/// candidate cluster's support sketch first: the top-weight prefix plus the
/// tail-weight bound rejects most candidates without touching the full
/// support, and an inconclusive bound falls back to the unchanged exact
/// summation — an exact optimization, never an approximation. Absorptions
/// then apply serially in arrival order: an arrival whose chosen cluster
/// was mutated earlier in the same batch is re-scored against the cluster's
/// current state before a *local* re-detection absorbs it. Arrivals
/// matching nothing join the unassigned pool; every `refresh_interval`
/// arrivals a refresh pass peels newly formed clusters out of the pool —
/// frontier chunks of speculative Algorithm-2 runs mapped over the shared
/// pool (the PALID map idiom), validated and applied serially in seed order
/// so the outcome never depends on the executors. Under a sliding window,
/// batch ingest ends by expiring the oldest items: they leave the LSH
/// buckets (their slots will be re-used), and every cluster that lost
/// members is locally re-detected or dissolved. Costs stay local: no global
/// recomputation ever happens.
class OnlineAlid {
 public:
  explicit OnlineAlid(int dim, OnlineAlidOptions options);

  /// Feeds one data point; returns its slot (equal to the stream position
  /// until a window expires items and slots start being re-used). Triggers
  /// the same maintenance as a batch of one.
  Index Insert(std::span<const Scalar> point);

  /// Batch ingest: `points` holds count * dim scalars, row-major, in
  /// arrival order. Returns the slot of each arrival. Absorb candidates are
  /// evaluated against the state at batch start (in parallel when a pool is
  /// set); window expiry runs once at the end of the batch.
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
  /// parameters and absorb slack off these to build scoring-compatible
  /// snapshots).
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

  /// The support sketch of cluster `c`. Fresh (built_version ==
  /// cluster_version) for every cluster between batches, so snapshot
  /// exports lift it instead of rebuilding.
  const SupportSketch& cluster_sketch(int c) const {
    return sketches_[static_cast<size_t>(c)];
  }

  /// Stream observability — the streaming counterpart of PalidStats. A
  /// consistent by-value view materialized from the registry (binding it to
  /// a const reference still works — lifetime extension — but the copy no
  /// longer tracks later mutations; every in-repo caller reads it fresh).
  StreamStats stats() const;

  /// The per-instance instrument registry behind stats(): every stream
  /// counter plus the pool gauges, exportable as single-line
  /// JSON (bench trajectory) or Prometheus text.
  const obs::MetricsRegistry& metrics() const { return metrics_.registry; }

  /// The shared oracle (kernel-evaluation counters for benches and tests).
  const LazyAffinityOracle& oracle() const { return *oracle_; }

 private:
  // Dimension-major member tiles of one cluster — the vector-kernel mirror
  // of (members, weights) and of the sketch prefix, versioned exactly like
  // the sketch: `built` must equal the cluster's mutation counter or the
  // tiles must not be consulted (the scoring falls back to the oracle path,
  // which is bit-identical anyway). Rebuilt alongside the sketches at batch
  // end, so the parallel scoring phase only ever reads fresh tiles.
  struct ClusterTiles {
    SoaBlock members;  // member rows, in member order
    SoaBlock prefix;   // sketch-prefix rows, in sketch (descending-weight)
                       // order; empty when the sketch is disengaged
    uint64_t built_version = SupportSketch::kUnbuilt;
  };

  // Absorb decision of one arrival: the target cluster (-1 = pool) plus the
  // sketch-filter activity of the scoring (accumulated serially into
  // StreamStats after the parallel phase). The deciding margin is
  // recomputed on the apply path whenever the target mutated, so only the
  // choice itself is carried across the phases.
  struct Choice {
    int cluster = -1;
    int32_t sketch_prunes = 0;
    int32_t sketch_exact = 0;
  };

  // Writes the point into a re-used or appended slot (serial phase).
  Index AllocateSlot(std::span<const Scalar> point);
  // Pure Theorem-1 scoring of one arrival against the current clusters.
  Choice ScoreArrival(Index slot) const;
  // pi(s_j, x) of the newcomer against one cluster's weighted support.
  Scalar ClusterAffinity(const Cluster& cluster, Index slot) const;
  // Serial per-arrival apply: absorb (re-scoring if the chosen cluster
  // mutated earlier in the batch, per `versions`) and refresh bookkeeping.
  void ApplyArrival(Index slot, const Choice& choice,
                    const std::vector<uint64_t>& versions);
  // Re-runs Algorithm 2 from a seed and installs/updates a cluster.
  void RedetectCluster(int cluster_id, Index seed);
  // Peels new clusters out of the unassigned pool: a deterministic frontier
  // map stage (chunks of speculative DetectOne runs on the shared pool, the
  // PALID map idiom) validated and applied serially in seed order.
  void DetectFromPool();
  // The serial tail of one pool detection: peel the support, filter by
  // density/size, merge with an existing cluster when the cross density
  // says so, otherwise install as a new cluster.
  void InstallPoolCluster(Cluster cluster, const AlidDetector& detector,
                          std::vector<bool>& exclude);
  // Rebuilds the sketch of every cluster whose version moved (end of every
  // batch / refresh, so scoring and exports always see fresh sketches).
  void RefreshSketches();
  void Assign(int cluster_id);
  // Expires the oldest items down to the window and repairs the clusters
  // they were peeled out of.
  void ExpireToWindow();
  // Re-detects a cluster that lost members to expiry (or dissolves it).
  void RepairCluster(int cluster_id);
  void DissolveCluster(int cluster_id);
  // Erases dead clusters and remaps assignments (end of batch / refresh).
  void CompactClusters();

  OnlineAlidOptions options_;
  Dataset data_;
  AffinityFunction affinity_fn_;
  std::unique_ptr<LazyAffinityOracle> oracle_;
  std::unique_ptr<LshIndex> lsh_;

  std::vector<Cluster> clusters_;
  // Mutation counter per cluster id; the batch apply phase re-scores an
  // arrival whose precomputed target moved since the batch started, and the
  // incremental snapshot export re-uses clusters whose counter stood still.
  std::vector<uint64_t> cluster_version_;
  // Stable per-cluster identity (birth order, starting at 1) surviving the
  // id compaction — what snapshot generations match clusters by.
  std::vector<uint64_t> cluster_uid_;
  uint64_t next_cluster_uid_ = 1;
  // Support sketches parallel to clusters_, rebuilt for mutated clusters at
  // the end of every batch (so the parallel scoring phase and FromStream
  // exports only ever read fresh ones).
  std::vector<SupportSketch> sketches_;
  // SIMD scoring tiles parallel to clusters_, maintained under the same
  // freshness protocol as sketches_. Never built when the configured norm
  // has no tile kernel (simd_norm_ below), in which case scoring stays on
  // the row-major oracle path everywhere.
  std::vector<ClusterTiles> tiles_;
  // SimdSupportsNorm(options_.affinity.p), resolved once at construction.
  bool simd_norm_ = false;
  // Dissolved-in-this-batch markers; compacted away at batch end so public
  // cluster ids stay dense.
  std::vector<uint8_t> cluster_dead_;
  std::vector<int> assignment_;   // slot -> cluster id or -1
  std::vector<uint8_t> alive_;    // slot -> live?
  // Expired slots, descending, so the smallest is an O(1) pop_back away.
  std::vector<Index> free_slots_;
  std::deque<Index> window_fifo_;  // live slots, oldest arrival first
  Index since_refresh_ = 0;

  // The stream counters re-homed onto a per-instance registry (StreamStats
  // is materialized from these): relaxed-atomic Adds in the serial apply
  // phases, pool telemetry as callback gauges, batch latencies in the
  // shared bounded reservoir. Wired in the constructor; pointers are stable
  // for the stream's lifetime.
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
    obs::Counter* sketch_prunes = nullptr;
    obs::Counter* sketch_exact = nullptr;
    obs::Counter* refresh_rounds = nullptr;
    obs::Counter* refresh_speculations = nullptr;
    obs::Counter* refresh_conflicts = nullptr;
    obs::Gauge* alive = nullptr;
    obs::Gauge* clusters_alive = nullptr;
    obs::LatencyReservoir batch_seconds{StreamStats::kMaxLatencySamples};
  };
  StreamInstruments metrics_;
};

}  // namespace alid

#endif  // ALID_CORE_ONLINE_ALID_H_

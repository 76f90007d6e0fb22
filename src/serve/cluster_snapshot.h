#ifndef ALID_SERVE_CLUSTER_SNAPSHOT_H_
#define ALID_SERVE_CLUSTER_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "affinity/affinity_function.h"
#include "common/dataset.h"
#include "common/epoch_stamp.h"
#include "core/cluster.h"
#include "lsh/lsh_index.h"
#include "serve/candidate_directory.h"
#include "serve/snapshot_arena.h"

namespace alid {

class OnlineAlid;
class ThreadPool;

/// Parameters of a snapshot build. For scoring parity with a detector, pass
/// the detector's own affinity/LSH parameters: the LSH seed fixes the
/// Gaussian projections, so a query point hashes to the same bucket keys in
/// the snapshot as in the source index — which makes the snapshot's
/// candidate clusters (and hence Assign) *exactly* the Theorem-1 absorb
/// decision the source detector would take.
struct ClusterSnapshotOptions {
  /// Affinity kernel the supports were detected under.
  AffinityParams affinity;
  /// LSH parameters of the bucket keys (seed included).
  LshParams lsh;
  /// Absorb slack of the assignment rule (see OnlineAlidOptions).
  double absorb_slack = 0.05;
  /// Optional pool for the build's parallel pass (the fresh blocks' bucket
  /// keys; build-time only — queries never touch it).
  ThreadPool* pool = nullptr;
};

/// Cost accounting of one snapshot build — what the incremental export
/// (FromStream with a previous snapshot) actually saved.
struct SnapshotBuildInfo {
  int clusters_total = 0;
  /// Clusters inherited wholesale from the previous snapshot: their arena
  /// blocks (metadata, bucket keys, scorer) moved as shared refcount bumps
  /// because the stream's (uid, version) pair proved them unchanged.
  int clusters_reused = 0;
  Index rows_reused = 0;    ///< Members of the shared blocks.
  Index rows_rebuilt = 0;   ///< Members of the freshly built blocks.
  /// Arena-block bytes this build *shared* with its predecessor (refcount
  /// bumps — no copy, no new charge) vs. bytes it newly materialized and
  /// charged. bytes_shared > 0 on a steady-state incremental publish is the
  /// O(changed-bytes) property CI gates on.
  int64_t bytes_shared = 0;
  int64_t bytes_copied = 0;
  /// Candidate-directory entries this build inherited in the predecessor's
  /// shared base (0 when it compacted) vs. entries it filed itself: the
  /// delta's on a chained build, the whole fresh base's on a compaction.
  int64_t candidate_entries_shared = 0;
  int64_t candidate_entries_built = 0;
  double build_seconds = 0.0;
};

/// The shared shape of every answered query — the single result vocabulary
/// of the serve API (ClusterServer::Query), returned by Assign and extended by
/// ScoredCluster without changing its meaning.
struct QueryOutcome {
  /// Snapshot cluster id, or -1 when no candidate cluster absorbs the point.
  int cluster = -1;
  /// pi(s_c, x) of the cluster (0 when unassigned).
  Scalar affinity = 0.0;
  /// Signed margin over the absorb threshold density * (1 - absorb_slack)
  /// (0 when unassigned; may be negative for ranked non-absorbable
  /// candidates).
  Scalar margin = 0.0;
  /// Generation of the snapshot that answered (0 when offline).
  uint64_t generation = 0;

  bool operator==(const QueryOutcome&) const = default;
};

/// One scored candidate of a TopKClusters query.
struct ScoredCluster : QueryOutcome {
  /// True iff the affinity clears the absorb threshold
  /// density * (1 - absorb_slack), i.e. margin > 0; the top absorbable
  /// candidate is exactly Assign's answer.
  bool absorbable = false;

  bool operator==(const ScoredCluster&) const = default;
};

/// Copy-out of one cluster's metadata (safe to hold across snapshot swaps).
struct ClusterSnapshotInfo {
  int cluster = -1;  ///< -1 when the queried id was out of range.
  Index size = 0;
  Scalar density = 0.0;
  Index seed = -1;     ///< Source id of the detection seed.
  IndexList members;   ///< Source ids (dataset rows / stream slots).
  std::vector<Scalar> weights;
};

/// An immutable, self-contained view of one detection state, built for
/// serving: every dominant cluster's state (density, seed, stream identity,
/// source ids, its members' distinct LSH buckets, and the ClusterScorer
/// holding the simplex weights and SoA member tiles) lives in a refcounted
/// arena block (see snapshot_arena.h); table-major candidate directories
/// over the blocks' buckets (candidate_directory.h: 8-byte keys and 4-byte
/// cluster ids in power-of-two slots per table, placed by one counting pass
/// at build) yield each query's candidate clusters. Every
/// query — Assign, TopKClusters — runs one keyed scoring core: it takes the
/// point's bucket keys (one per table, hashed once by the caller), marks the
/// clusters those buckets hold and scores each candidate exactly once
/// through its block's scorer, the same object and the same method the
/// stream's absorb step uses. The point-only forms hash into thread-local
/// scratch first; a caller fanning one point out over several snapshots
/// that hash alike (ClusterServer over a sharded generation) hashes it once
/// with QueryKeys and hands the keys to each. The incremental export
/// *shares* an unchanged cluster's block with the predecessor snapshot
/// instead of copying it, so consecutive generations pay block bytes only
/// for their changed clusters. It shares the candidate lookup the same way:
/// a base directory, refcounted along the chain of incremental exports and
/// charged once by its owner, plus per snapshot a map from base position to
/// cluster id (-1 for a block that is gone) and a small delta directory
/// over the blocks the base does not hold. A build compacts — a fresh base
/// over every block, no map, no delta — when there is no compatible stream
/// predecessor or when the delta and the dead base entries outgrow a
/// quarter of the base; a compact snapshot's lookup is a single directory.
/// Every query method is const, touches only snapshot-owned state plus
/// thread-local scratch, and is therefore safe for any number of concurrent
/// readers — the read side of the serving subsystem's RCU design.
class ClusterSnapshot {
 public:
  /// Builds from any detector output shaped as clusters over `data` — the
  /// common export path of AlidDetector::DetectAll and Palid::Detect
  /// (apply Filtered() first for the paper's density cut). `generation`
  /// tags the snapshot for publication ordering.
  static std::shared_ptr<const ClusterSnapshot> FromClusters(
      const Dataset& data, std::span<const Cluster> clusters,
      const ClusterSnapshotOptions& options, uint64_t generation = 0);

  /// Exports the live state of a stream. Affinity/LSH parameters and absorb
  /// slack are taken from the stream's own options, so
  /// Assign reproduces the stream's absorb decision bit for bit (and every
  /// block shares the stream's own fresh ClusterScorer by refcount instead
  /// of rebuilding one); the generation is the stream's
  /// arrival count. The stream must not be mutated during the export (the
  /// ingest loop exports between batches); afterwards the snapshot is fully
  /// decoupled.
  ///
  /// `previous` enables the incremental export: any cluster whose stream
  /// (uid, version) pair matches a cluster of the previous snapshot — which
  /// proves its members, weights, density and member rows did not change —
  /// *shares* that snapshot's arena block (metadata, bucket keys, scorer) by
  /// refcount instead of gathering it, turning publish cost from O(window)
  /// into O(changed bytes); a fresh block reads its members' bucket keys
  /// from the stream's LSH index instead of re-hashing. The result is
  /// deep-equal to a from-scratch build (the property tests pin this every
  /// generation); pass nullptr for the from-scratch behavior.
  static std::shared_ptr<const ClusterSnapshot> FromStream(
      const OnlineAlid& stream, ThreadPool* pool = nullptr,
      std::shared_ptr<const ClusterSnapshot> previous = nullptr);

  int num_clusters() const { return static_cast<int>(blocks_.size()); }
  Index num_members() const { return num_members_; }
  int dim() const { return dim_; }
  uint64_t generation() const { return generation_; }
  double absorb_slack() const { return absorb_slack_; }

  /// The Theorem-1 absorb decision for an arbitrary point: candidates are
  /// the clusters of the point's LSH collisions, the winner the candidate
  /// with the largest positive margin pi(s_c, x) - density_c * (1 - slack)
  /// (lowest id on ties — the same rule as OnlineAlid::ScoreArrival).
  /// outcome.generation carries this snapshot's generation. An empty
  /// snapshot answers unassigned without hashing the point.
  QueryOutcome Assign(std::span<const Scalar> point) const;

  /// The keyed scoring core of Assign: `keys` are the point's bucket keys
  /// under this snapshot's LSH parameters (QueryKeys of this snapshot or of
  /// any snapshot that HashesLike it), one per table. The point-only form
  /// is exactly Assign(point, QueryKeys(point)).
  QueryOutcome Assign(std::span<const Scalar> point,
                      std::span<const uint64_t> keys) const;

  /// The candidate clusters of `point` scored by pi(s_c, x), descending
  /// (lowest id on ties), truncated to k.
  std::vector<ScoredCluster> TopKClusters(std::span<const Scalar> point,
                                          int k) const;

  /// The keyed scoring core of TopKClusters (keys as for the keyed Assign).
  std::vector<ScoredCluster> TopKClusters(std::span<const Scalar> point,
                                          std::span<const uint64_t> keys,
                                          int k) const;

  /// The point's bucket keys, one per table, hashed into the calling
  /// thread's query scratch: valid until that thread's next QueryKeys or
  /// point-only query on any snapshot.
  std::span<const uint64_t> QueryKeys(std::span<const Scalar> point) const;

  /// True iff `other` gives every point the same bucket keys: the same
  /// dimensionality and LSH parameters (tables, projections, segment length
  /// and seed fix the projections). The keys of one then drive the keyed
  /// queries of the other.
  bool HashesLike(const ClusterSnapshot& other) const;

  /// Copy-out of cluster `c`'s metadata; info.cluster == -1 when out of
  /// range.
  ClusterSnapshotInfo ClusterInfo(int c) const;

  Scalar density(int c) const { return blocks_[c]->density; }
  Index cluster_size(int c) const { return blocks_[c]->count; }
  /// Stream identity of cluster `c` ((0, 0) when the source carries none) —
  /// what the incremental export and ClusterServer::GenerationDiff match on.
  uint64_t cluster_uid(int c) const { return blocks_[c]->uid; }
  uint64_t cluster_version(int c) const { return blocks_[c]->version; }

  /// What this build cost and what the incremental path saved/shared.
  const SnapshotBuildInfo& build_info() const { return build_info_; }

  /// The refcounted arena blocks backing this snapshot, one per cluster —
  /// shared with other generations that inherited the same clusters. The
  /// server's history accounting walks these to charge each block once.
  std::span<const std::shared_ptr<const ClusterBlock>> blocks() const {
    return {blocks_.data(), blocks_.size()};
  }

  /// The snapshot's own candidate-lookup bytes: its delta directory (with
  /// its key filter) and its base-position map — exactly what the snapshot
  /// charges to the global tracker. 0 for a compact snapshot, and for a
  /// re-export of an unchanged compact one. The shared base is not counted
  /// here: see candidate_base().
  size_t candidate_key_bytes() const {
    return base_ids_.size() * sizeof(int32_t) + delta_.MemoryBytes();
  }

  /// The base candidate directory, shared by refcount with every snapshot
  /// of its chain (equal addresses mean one shared base). Its owner charges
  /// its MemoryBytes() to the global tracker once, whatever the number of
  /// snapshots sharing it.
  const CandidateDirectory& candidate_base() const { return *base_; }

 private:
  ClusterSnapshot() = default;

  // `stream` (the exporting stream, or nullptr) supplies the clusters'
  // identities, scorers and LSH keys; `previous` (or nullptr) donates the
  // blocks of unchanged clusters.
  static std::shared_ptr<const ClusterSnapshot> Build(
      const Dataset& data, std::span<const Cluster> clusters,
      const ClusterSnapshotOptions& options, uint64_t generation,
      const OnlineAlid* stream, const ClusterSnapshot* previous);

  // Chains this snapshot's candidate lookup on `prev`'s base: maps the
  // base positions of the blocks it shares (reused_from[c] is the
  // predecessor cluster of cluster c's block, -1 when fresh) and files every
  // other block in a delta. Leaves base_ null — compaction — when the delta
  // and the dead base entries outgrow the base (kCompactionRatio).
  void ChainCandidates(const ClusterSnapshot& prev,
                       std::span<const int32_t> reused_from);

  // True iff `previous` was built under the same scoring/indexing
  // parameters, so its per-cluster arena blocks are shareable verbatim.
  bool CompatibleWith(const ClusterSnapshotOptions& options, int dim) const;

  // Marks the candidate clusters of a point with bucket keys `keys` (one
  // per table) in thread-local scratch — every cluster holding one of those
  // buckets — and returns the mark. Reads one base slot per table (and the
  // delta's when its filter passes) and compares its keys; hashes nothing,
  // searches nothing.
  const EpochStamp& MarkCandidates(std::span<const uint64_t> keys) const;

  int dim_ = 0;
  // One refcounted arena block per cluster (see snapshot_arena.h): all
  // member-indexed payload lives there, shared with the predecessor for
  // unchanged clusters.
  std::vector<std::shared_ptr<const ClusterBlock>> blocks_;
  Index num_members_ = 0;  // summed over clusters
  double absorb_slack_ = 0.05;
  std::unique_ptr<AffinityFunction> affinity_fn_;
  // Query hasher: an item-free LshIndex, shared along compatible exports.
  std::shared_ptr<const LshIndex> hasher_;
  // The shared base directory: the blocks of the chain's last compaction,
  // filed under their base positions.
  std::shared_ptr<const CandidateDirectory> base_;
  // Base position -> cluster id, -1 for a block this snapshot no longer
  // holds; empty when the identity (every block in the base, no delta).
  std::vector<int32_t> base_ids_;
  // The buckets of the blocks the base does not hold, filed under their
  // cluster ids, with a key filter; empty when base_ids_ is.
  CandidateDirectory delta_;
  // candidate_key_bytes(), charged to the global tracker.
  ScopedMemoryCharge candidates_charge_{0};
  uint64_t generation_ = 0;
  SnapshotBuildInfo build_info_;
};

}  // namespace alid

#endif  // ALID_SERVE_CLUSTER_SNAPSHOT_H_

#ifndef ALID_SERVE_CLUSTER_SNAPSHOT_H_
#define ALID_SERVE_CLUSTER_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "affinity/affinity_function.h"
#include "common/dataset.h"
#include "core/cluster.h"
#include "core/support_sketch.h"
#include "lsh/lsh_index.h"
#include "serve/snapshot_arena.h"
#include "simd/soa_block.h"

namespace alid {

class OnlineAlid;
class ThreadPool;

/// Parameters of a snapshot build. For scoring parity with a detector, pass
/// the detector's own affinity/LSH parameters: the LSH seed fixes the
/// Gaussian projections, so a query point hashes to the same buckets in the
/// snapshot's per-snapshot index as in the source index — which makes the
/// snapshot's candidate clusters (and hence Assign) *exactly* the Theorem-1
/// absorb decision the source detector would take.
struct ClusterSnapshotOptions {
  /// Affinity kernel the supports were detected under.
  AffinityParams affinity;
  /// LSH parameters of the rebuilt per-snapshot index (seed included).
  LshParams lsh;
  /// Absorb slack of the assignment rule (see OnlineAlidOptions).
  double absorb_slack = 0.05;
  /// Per-cluster support-sketch sizing for the serving hot path (the same
  /// branch-and-bound filter the stream's absorb scoring uses; prefix = 0
  /// disables it and every candidate scores exactly). Answers are
  /// bit-identical either way — the sketch only skips provably hopeless
  /// exact scorings.
  SupportSketchParams sketch;
  /// Optional pool for the build's parallel passes (LSH key computation and
  /// the density verification; build-time only — queries never touch it).
  ThreadPool* pool = nullptr;
  /// Chunk grain of the build's parallel passes; 0 auto.
  int64_t grain = 0;
};

/// Cost accounting of one snapshot build — what the incremental export
/// (FromStream with a previous snapshot) actually saved.
struct SnapshotBuildInfo {
  int clusters_total = 0;
  /// Clusters inherited wholesale from the previous snapshot: their arena
  /// blocks (member rows, weights, LSH keys, verified density, sketch, SoA
  /// tiles) moved as shared refcount bumps because the stream's
  /// (uid, version) pair proved them unchanged.
  int clusters_reused = 0;
  Index rows_reused = 0;    ///< Member rows shared from the predecessor.
  Index rows_rebuilt = 0;   ///< Member rows gathered + re-hashed from source.
  /// Arena-block bytes this build *shared* with its predecessor (refcount
  /// bumps — no copy, no new charge) vs. bytes it newly materialized and
  /// charged. bytes_shared > 0 on a steady-state incremental publish is the
  /// O(changed-bytes) property CI gates on.
  int64_t bytes_shared = 0;
  int64_t bytes_copied = 0;
  double build_seconds = 0.0;
};

/// The shared shape of every answered query — the single result vocabulary
/// of the serve API (ClusterServer::Query). AssignResult and ScoredCluster
/// extend it without changing its meaning.
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

/// The outcome of one assignment query against a snapshot: the QueryOutcome
/// shape plus the query's sketch-filter activity.
struct AssignOutcome : QueryOutcome {
  /// Candidate clusters the support-sketch bound rejected for this query —
  /// full-support scorings skipped without changing the answer.
  int32_t sketch_prunes = 0;
  /// Sketch-engaged candidates whose bound was inconclusive and scored
  /// exactly.
  int32_t sketch_exact = 0;
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
  /// x^T A x recomputed from the snapshot build's own kernel entries
  /// (through a build-scratch oracle) — an integrity check that the
  /// exported supports and the reported density describe the same simplex.
  Scalar verified_density = 0.0;
  Index seed = -1;     ///< Source id of the detection seed.
  IndexList members;   ///< Source ids (dataset rows / stream slots).
  std::vector<Scalar> weights;
};

/// An immutable, self-contained view of one detection state, built for
/// serving: every dominant cluster's payload (compacted member rows, simplex
/// weights, source ids, per-member LSH keys, support sketch, SoA tiles)
/// lives in a refcounted arena block (see snapshot_arena.h), plus a
/// per-snapshot LSH index over the members for candidate retrieval. The
/// incremental export *shares* an unchanged cluster's block with the
/// predecessor snapshot instead of copying it, so consecutive generations
/// cost only their changed bytes — and a server's history ring of old
/// generations is nearly free. Every query method is const, touches only
/// snapshot-owned state plus thread-local scratch, and is therefore safe for
/// any number of concurrent readers — the read side of the serving
/// subsystem's RCU design.
class ClusterSnapshot {
 public:
  /// Builds from any detector output shaped as clusters over `data` — the
  /// common export path of AlidDetector::DetectAll and Palid::Detect
  /// (apply Filtered() first for the paper's density cut). `generation`
  /// tags the snapshot for publication ordering.
  static std::shared_ptr<const ClusterSnapshot> FromClusters(
      const Dataset& data, std::span<const Cluster> clusters,
      const ClusterSnapshotOptions& options, uint64_t generation = 0);

  /// Convenience overload for a DetectionResult.
  static std::shared_ptr<const ClusterSnapshot> FromDetection(
      const Dataset& data, const DetectionResult& result,
      const ClusterSnapshotOptions& options, uint64_t generation = 0);

  /// Exports the live state of a stream. Affinity/LSH parameters, absorb
  /// slack and the sketch sizing are taken from the stream's own options, so
  /// Assign reproduces the stream's absorb decision bit for bit (and the
  /// stream's freshly maintained support sketches are lifted into the
  /// snapshot instead of being rebuilt); the generation is the stream's
  /// arrival count. The stream must not be mutated during the export (the
  /// ingest loop exports between batches); afterwards the snapshot is fully
  /// decoupled.
  ///
  /// `previous` enables the incremental export: any cluster whose stream
  /// (uid, version) pair matches a cluster of the previous snapshot — which
  /// proves its members, weights, density and member rows did not change —
  /// *shares* that snapshot's arena block (rows, weights, per-member LSH
  /// keys, verified density, sketch, SoA tiles) by refcount instead of
  /// gathering, re-hashing and re-verifying, turning publish cost from
  /// O(window) into O(changed bytes). The result is deep-equal to a
  /// from-scratch build (the property tests pin this every generation); pass
  /// nullptr for the from-scratch behavior.
  static std::shared_ptr<const ClusterSnapshot> FromStream(
      const OnlineAlid& stream, ThreadPool* pool = nullptr,
      std::shared_ptr<const ClusterSnapshot> previous = nullptr);

  int num_clusters() const {
    return static_cast<int>(cluster_begin_.size()) - 1;
  }
  Index num_members() const { return cluster_begin_.back(); }
  int dim() const { return dim_; }
  uint64_t generation() const { return generation_; }
  double absorb_slack() const { return absorb_slack_; }

  /// The Theorem-1 absorb decision for an arbitrary point: candidates are
  /// the clusters of the point's LSH collisions, the winner the candidate
  /// with the largest positive margin pi(s_c, x) - density_c * (1 - slack)
  /// (lowest id on ties — the same rule as OnlineAlid::ScoreArrival).
  /// outcome.generation carries this snapshot's generation.
  AssignOutcome Assign(std::span<const Scalar> point) const;

  /// Assign for a batch of queries: `points` holds count * dim scalars,
  /// row-major; `outcomes` must hold count entries. Each outcome — winner,
  /// affinity, margin, sketch counters — is bit-identical to a standalone
  /// Assign of the same point: the batch only reorders the *work* query-
  /// major (outer loop over clusters in ascending id, inner loop over a
  /// block of queries, each with its own incumbent), so one cluster's SoA
  /// tiles are streamed through the cache once per query block instead of
  /// once per query. Every candidate visit still happens in ascending
  /// cluster id with the same per-query incumbent sequence, so prune
  /// decisions — and the counters — cannot diverge from the scalar order.
  void AssignBatch(std::span<const Scalar> points,
                   std::span<AssignOutcome> outcomes) const;

  /// The candidate clusters of `point` scored by pi(s_c, x), descending
  /// (lowest id on ties), truncated to k.
  std::vector<ScoredCluster> TopKClusters(std::span<const Scalar> point,
                                          int k) const;

  /// Copy-out of cluster `c`'s metadata; info.cluster == -1 when out of
  /// range.
  ClusterSnapshotInfo ClusterInfo(int c) const;

  Scalar density(int c) const { return density_[c]; }
  Index cluster_size(int c) const {
    return cluster_begin_[c + 1] - cluster_begin_[c];
  }
  /// Stream identity of cluster `c` ((0, 0) when the source carries none) —
  /// what the incremental export and ClusterServer::GenerationDiff match on.
  uint64_t cluster_uid(int c) const { return src_uid_[c]; }
  uint64_t cluster_version(int c) const { return src_version_[c]; }

  /// What this build cost and what the incremental path saved/shared.
  const SnapshotBuildInfo& build_info() const { return build_info_; }

  /// Read-only view of cluster `c`'s support sketch (empty spans when the
  /// sketch is disengaged for that cluster) — the deep-equality tests
  /// compare these across incremental and from-scratch builds.
  struct SketchView {
    /// Cluster-local member ordinals, descending weight.
    std::span<const Index> members;
    std::span<const Scalar> weights;
    /// Weight mass left after each prefix position (see SupportSketch).
    std::span<const Scalar> rest_weights;
    bool engaged() const { return !members.empty(); }
  };
  SketchView sketch(int c) const;

  /// The refcounted arena blocks backing this snapshot, one per cluster —
  /// shared with other generations that inherited the same clusters. The
  /// server's history accounting walks these to charge each block once.
  std::span<const std::shared_ptr<const ClusterBlock>> blocks() const {
    return {blocks_.data(), blocks_.size()};
  }

  /// Per-snapshot substrate observability: the LSH footprint.
  const LshIndex& lsh() const { return *lsh_; }

 private:
  ClusterSnapshot() = default;

  // Stream-side identity of the exported clusters (what FromStream knows
  // beyond the bare cluster list); drives the incremental re-use decision.
  struct StreamIdentity {
    const OnlineAlid* stream = nullptr;
    const ClusterSnapshot* previous = nullptr;
  };

  static std::shared_ptr<const ClusterSnapshot> Build(
      const Dataset& data, std::span<const Cluster> clusters,
      const ClusterSnapshotOptions& options, uint64_t generation,
      const StreamIdentity* identity);

  // True iff `previous` was built under the same scoring/indexing
  // parameters, so its per-cluster arena blocks are shareable verbatim.
  bool CompatibleWith(const ClusterSnapshotOptions& options, int dim) const;

  // pi(s_c, x): the weighted kernel sum over cluster c's support, in member
  // order — the same summation order as OnlineAlid::ClusterAffinity, so the
  // value is bit-identical to the stream's own scoring.
  Scalar ClusterAffinity(int c, std::span<const Scalar> point) const;
  // Branch-and-bound walk over cluster c's sketch prefix: true when some
  // checkpoint margin bound — (partial + rest_weight + guard) - threshold,
  // a certified upper bound on the exact margin — drops to 0 or to
  // `incumbent` or below, i.e. the cluster provably cannot win and exact
  // scoring may be skipped. TopK calls it with threshold = 0 so the bound
  // compares directly against the k-th best affinity. Only call for
  // clusters with an engaged sketch.
  bool SketchRejects(int c, std::span<const Scalar> point, Scalar threshold,
                     Scalar incumbent) const;
  // Marks the clusters of the point's LSH collisions in thread-local
  // scratch and returns the collision list.
  const std::vector<Index>& CandidateMembers(
      std::span<const Scalar> point) const;

  int dim_ = 0;
  // One refcounted arena block per cluster (see snapshot_arena.h): all
  // member-indexed payload lives there, shared with the predecessor for
  // unchanged clusters.
  std::vector<std::shared_ptr<const ClusterBlock>> blocks_;
  std::vector<Index> cluster_begin_; // cluster -> first global member (C + 1)
  std::vector<int> cluster_of_;      // global member position -> cluster id
  std::vector<Scalar> density_;      // per cluster
  std::vector<Index> seed_;          // per cluster, source ids
  // Stream identity of each cluster ((0, 0) when the source carries none):
  // the key the *next* incremental export matches against.
  std::vector<uint64_t> src_uid_;
  std::vector<uint64_t> src_version_;
  bool simd_norm_ = false;
  SupportSketchParams sketch_params_;
  double absorb_slack_ = 0.05;
  std::unique_ptr<AffinityFunction> affinity_fn_;
  // Per-snapshot dataset-free LSH index over the global member positions
  // (rebuilt clusters hash their block rows, shared clusters re-insert their
  // inherited keys — identical buckets either way).
  std::unique_ptr<LshIndex> lsh_;
  uint64_t generation_ = 0;
  SnapshotBuildInfo build_info_;
};

}  // namespace alid

#endif  // ALID_SERVE_CLUSTER_SNAPSHOT_H_

#ifndef ALID_SHARD_SHARD_ROUTER_H_
#define ALID_SHARD_SHARD_ROUTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "serve/cluster_server.h"
#include "serve/cluster_snapshot.h"
#include "shard/sharded_stream.h"

namespace alid {

/// perfbench/ names the fan-out answer so; drop at the next benchmark revision.
using ShardedQueryResponse = QueryResponse;

/// One cross-shard boundary-cluster pair: two clusters on different shards
/// whose members share at least one LSH bucket (same table, same key — the
/// per-shard indices are seeded identically, so keys are comparable), with
/// the weighted cross density of the stream's merge formula
/// (InstallPoolCluster's pair sum: sum_ij w_i w_j a(x_i, x_j)) summed in
/// member order. The stream sums the same terms in ParallelSum's
/// fixed-grain chunk order, so the two can differ in the last bits; a pair
/// whose cross_density clears the detector's density threshold is what a
/// future reconciliation pass would merge.
struct BoundaryPair {
  int shard_a = -1;
  int cluster_a = -1;
  int shard_b = -1;  ///< Always > shard_a.
  int cluster_b = -1;
  /// Distinct (table, bucket) keys the two clusters' members share.
  int64_t shared_buckets = 0;
  Scalar cross_density = 0.0;

  bool operator==(const BoundaryPair&) const = default;
};

/// The serve side of the sharded runtime: a ClusterServer whose
/// generations carry one ClusterSnapshot per shard of a ShardedStream.
/// Queries, the merge rule, the one cluster-id space, the history ring,
/// GenerationDiff and the instruments are the server's own (see
/// ClusterServer); the router adds only the per-shard incremental export
/// chain and the boundary-cluster report. Every shard exports under the
/// stream's one LshParams, so the snapshots of a generation hash alike and
/// a request hashes each point once for all shards. By default it retains no
/// generations besides the current one; pass a history_capacity for as-of
/// queries across shards.
///
/// Thread-safety: queries from any number of threads concurrently with one
/// PublishFromStream caller; PublishFromStream calls are externally
/// synchronized with each other (they read the stream, which is
/// single-writer anyway, and extend one export chain). The inherited
/// Publish serializes its callers itself.
class ShardRouter : public ClusterServer {
 public:
  ShardRouter(int dim, int num_shards,
              ClusterServerOptions options = {.history_capacity = 0});

  /// Exports every shard's ClusterSnapshot (incrementally against the
  /// previous export, concurrently on the pool) and publishes them as one
  /// generation = stream.size(). The stream must be quiescent (between
  /// ingest calls — same contract as ClusterSnapshot::FromStream). Returns
  /// the published generation.
  uint64_t PublishFromStream(const ShardedStream& stream);

  /// The boundary-cluster report of the current generation: every
  /// cross-shard cluster pair colliding in LSH bucket space, with shared
  /// bucket counts and exact cross densities, ordered by ascending
  /// (shard_a, cluster_a, shard_b, cluster_b) — cluster ids local to their
  /// shard. Deterministic — a pure function of the pinned generation.
  /// `affinity` must be the streams' own kernel parameters (the report
  /// reproduces the stream's merge test).
  std::vector<BoundaryPair> BoundaryClusters(
      const AffinityParams& affinity) const;

  int num_shards() const { return num_shards_; }

 private:
  int num_shards_;
  // The last exported snapshot of each shard, the base of the next
  // incremental export. Belongs to the (single) publisher.
  std::vector<std::shared_ptr<const ClusterSnapshot>> previous_;
};

}  // namespace alid

#endif  // ALID_SHARD_SHARD_ROUTER_H_

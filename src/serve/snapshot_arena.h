#ifndef ALID_SERVE_SNAPSHOT_ARENA_H_
#define ALID_SERVE_SNAPSHOT_ARENA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/memory_tracker.h"
#include "common/types.h"
#include "core/cluster_scorer.h"

namespace alid {

/// The snapshot arena's own MemoryTracker resource space: every sealed
/// ClusterBlock charges its bytes here (in addition to the process-global
/// tracker), so the serving tier's arena footprint — across every retained
/// generation, counting each shared block once — stays separately
/// attributable, in the style of sel4-gpi's per-resource-space accounting.
/// current_bytes() returns to its pre-serving baseline once every snapshot
/// (server ring included) is torn down; the teardown tests pin this.
MemoryTracker& SnapshotArenaTracker();

/// One LSH bucket: a key within one hash table, ordered by (table, key).
struct BucketKey {
  int table = 0;
  uint64_t key = 0;

  auto operator<=>(const BucketKey&) const = default;
};

/// One cluster's immutable serving state, allocated in the shared snapshot
/// arena: its metadata (density, seed, stream identity), source ids and the
/// distinct LSH buckets its members occupy, plus the cluster's ClusterScorer
/// (simplex weights and SIMD SoA member tiles) that every query scores
/// through; its tiles are the block's only copy of the member rows, and a
/// stream export shares the stream's own scorer here by refcount. A block is
/// built and mutated only inside one snapshot build (which holds the sole
/// reference), then sealed and published behind shared_ptr<const
/// ClusterBlock>; from then on it is immutable, so a successor snapshot
/// whose stream (uid, version) pair proves the cluster unchanged *shares*
/// the block with a refcount bump instead of copying it — publish cost in
/// bytes is the changed clusters only. Bytes (the scorer's included) are
/// charged exactly once per block (at Seal) to both the global
/// MemoryTracker and SnapshotArenaTracker(), and released when the last
/// referencing snapshot dies.
struct ClusterBlock {
  ClusterBlock() = default;
  /// Traced ("arena"/"release"): the last referencing snapshot's teardown
  /// returns the block's bytes to both trackers (member charges).
  ~ClusterBlock();
  ClusterBlock(const ClusterBlock&) = delete;
  ClusterBlock& operator=(const ClusterBlock&) = delete;

  Index count = 0;       ///< Members of the cluster.
  Scalar density = 0.0;  ///< pi(s_c) of the support.
  Index seed = -1;       ///< Source id of the detection seed.
  /// Stream identity ((0, 0) when the source carries none): every change to
  /// the cluster's members, weights, density or seed bumps the version, so
  /// a block whose (uid, version) matches is shareable verbatim.
  uint64_t uid = 0;
  uint64_t version = 0;

  /// Member -> source id (dataset row / stream slot).
  std::vector<Index> source_ids;
  /// Every (table, key) bucket some member occupies, sorted and distinct:
  /// the cluster is a candidate exactly when a query hashes into one.
  std::vector<BucketKey> bucket_keys;
  /// The cluster's scoring state (weights and tiles in member order);
  /// shared with the stream that exported it and with every block that
  /// inherited it.
  std::shared_ptr<const ClusterScorer> scorer;

  /// Bytes of the block's payload vectors plus its scorer's — what sharing
  /// saves and what Seal() charges.
  size_t MemoryBytes() const;

  /// Charges MemoryBytes() to the global tracker and the arena space. Call
  /// exactly once, after the build filled every field; destruction releases
  /// both charges.
  void Seal();

 private:
  ScopedMemoryCharge global_charge_{0};
  ScopedMemoryCharge arena_charge_{0, &SnapshotArenaTracker()};
};

}  // namespace alid

#endif  // ALID_SERVE_SNAPSHOT_ARENA_H_

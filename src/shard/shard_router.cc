#include "shard/shard_router.h"

#include <algorithm>
#include <array>
#include <map>

#include "affinity/affinity_function.h"
#include "common/check.h"
#include "common/parallel.h"
#include "obs/trace.h"
#include "simd/simd_dispatch.h"
#include "simd/soa_block.h"

namespace alid {

ShardRouter::ShardRouter(int dim, int num_shards,
                         ClusterServerOptions options)
    : ClusterServer(dim, options), num_shards_(num_shards) {
  ALID_CHECK(num_shards_ >= 1);
  previous_.resize(static_cast<size_t>(num_shards_));
}

uint64_t ShardRouter::PublishFromStream(const ShardedStream& stream) {
  ALID_TRACE_SCOPE("router", "publish");
  ALID_CHECK(stream.num_shards() == num_shards_);
  ALID_CHECK(stream.dim() == dim());
  auto next = std::make_shared<ServedGeneration>();
  next->generation = static_cast<uint64_t>(stream.size());
  next->shards.resize(static_cast<size_t>(num_shards_));
  // Per-shard incremental exports, concurrently — each chains against the
  // shard's previously exported snapshot, so a steady-state publish costs
  // only each shard's changed bytes.
  ParallelChunks(options().pool, 0, num_shards_, /*grain=*/1,
                 [&](int64_t, int64_t lo, int64_t hi) {
                   for (int64_t s = lo; s < hi; ++s) {
                     const auto idx = static_cast<size_t>(s);
                     next->shards[idx] = ClusterSnapshot::FromStream(
                         stream.shard(static_cast<int>(s)), nullptr,
                         previous_[idx]);
                   }
                 });
  previous_ = next->shards;
  const uint64_t generation = next->generation;
  Publish(std::shared_ptr<const ServedGeneration>(std::move(next)));
  return generation;
}

std::vector<BoundaryPair> ShardRouter::BoundaryClusters(
    const AffinityParams& affinity) const {
  ALID_TRACE_SCOPE("router", "boundary_report");
  std::vector<BoundaryPair> report;
  const std::shared_ptr<const ServedGeneration> pinned = snapshot();
  if (pinned == nullptr) return report;

  // Every (table, bucket key) a cluster's members occupy — each block holds
  // them deduplicated. The shards hash with the same LshParams seed, so
  // equal keys mean the same bucket of the same table.
  struct BucketRef {
    BucketKey bucket;
    int shard;
    int cluster;

    auto operator<=>(const BucketRef&) const = default;
  };
  std::vector<BucketRef> refs;
  for (int s = 0; s < static_cast<int>(pinned->shards.size()); ++s) {
    const auto blocks = pinned->shards[static_cast<size_t>(s)]->blocks();
    for (int c = 0; c < static_cast<int>(blocks.size()); ++c) {
      for (const BucketKey& bucket :
           blocks[static_cast<size_t>(c)]->bucket_keys) {
        refs.push_back(BucketRef{bucket, s, c});
      }
    }
  }
  std::sort(refs.begin(), refs.end());

  // Count shared buckets per cross-shard cluster pair. The map key orders
  // the report ascending by (shard_a, cluster_a, shard_b, cluster_b).
  std::map<std::array<int, 4>, int64_t> pairs;
  size_t lo = 0;
  while (lo < refs.size()) {
    size_t hi = lo;
    while (hi < refs.size() && refs[hi].bucket == refs[lo].bucket) ++hi;
    for (size_t i = lo; i < hi; ++i) {
      for (size_t j = i + 1; j < hi; ++j) {
        if (refs[i].shard == refs[j].shard) continue;
        ++pairs[{refs[i].shard, refs[i].cluster, refs[j].shard,
                 refs[j].cluster}];
      }
    }
    lo = hi;
  }

  // Exact cross density of each colliding pair, in one fixed double-loop
  // order: the weighted pair sum of the stream's merge rule
  // (InstallPoolCluster) in member order, not the stream's chunked order.
  // Member rows come out of the scorers' tiles; TileDistances is
  // bit-identical to LpDistance, and the sum keeps its i-outer, j-inner
  // order.
  const AffinityFunction fn(affinity);
  const SimdKernelOps& ops = *ActiveSimdOps();
  std::vector<Scalar> row_a(static_cast<size_t>(dim()));
  Scalar dists[kSimdTileLanes];
  report.reserve(pairs.size());
  for (const auto& [key, buckets] : pairs) {
    const ClusterScorer& a =
        *pinned->shards[static_cast<size_t>(key[0])]->blocks()[
            static_cast<size_t>(key[1])]->scorer;
    const ClusterScorer& b =
        *pinned->shards[static_cast<size_t>(key[2])]->blocks()[
            static_cast<size_t>(key[3])]->scorer;
    Scalar cross = 0.0;
    for (Index i = 0; i < a.members.count(); ++i) {
      a.members.CopyRow(i, row_a.data());
      for (Index t = 0; t < b.members.num_tiles(); ++t) {
        TileDistances(ops, b.members, t, row_a.data(), affinity.p, dists);
        const Index base = t * kSimdTileLanes;
        const Index lanes =
            std::min<Index>(kSimdTileLanes, b.members.count() - base);
        for (Index l = 0; l < lanes; ++l) {
          cross += a.weights[static_cast<size_t>(i)] *
                   b.weights[static_cast<size_t>(base + l)] *
                   fn.FromDistance(dists[l]);
        }
      }
    }
    report.push_back(BoundaryPair{key[0], key[1], key[2], key[3], buckets,
                                  cross});
  }
  return report;
}

}  // namespace alid

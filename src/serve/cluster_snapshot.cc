#include "serve/cluster_snapshot.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "common/check.h"
#include "common/epoch_stamp.h"
#include "common/timer.h"
#include "core/online_alid.h"
#include "obs/trace.h"

namespace alid {

namespace {

// Per-thread query scratch: the query's bucket keys and an epoch-stamped
// cluster-candidate mark. Thread-local, so any number of readers query one
// snapshot (or different snapshots) concurrently without allocating.
struct QueryScratch {
  std::vector<uint64_t> keys;  // one per table
  EpochStamp candidates;       // marked cluster ids of the current query
};

QueryScratch& Scratch() {
  thread_local QueryScratch scratch;
  return scratch;
}

// A chained build compacts when (delta entries + dead base entries) *
// kCompactionRatio exceeds the base's entries, so a delta stays under a
// quarter of its base: every query that passes the delta's key filter
// reads the delta's slot, and a larger delta fills the filter further.
// Higher ratios rebuild the base sooner and retain more bases: on perfbench
// serve_mixed (32 clusters, one changed per publish, 64 retained
// generations; seeds 1 and 2, 10 s, 4-core x86 host) the history ring
// held 3.40-3.50 MB at 4, 5.00-5.08 MB at 8 and 6.79-7.55 MB at 16, against
// 10.4 MB with one private directory per generation; 2 held 3.09-3.14 MB.
constexpr size_t kCompactionRatio = 4;

// The owner of a shared base directory: charges its bytes to the global
// tracker once, for every snapshot that shares it.
struct ChargedDirectory {
  explicit ChargedDirectory(CandidateDirectory d)
      : directory(std::move(d)),
        charge(static_cast<int64_t>(directory.MemoryBytes())) {}
  CandidateDirectory directory;
  ScopedMemoryCharge charge;
};

std::shared_ptr<const CandidateDirectory> SharedDirectory(
    CandidateDirectory directory) {
  auto owner = std::make_shared<const ChargedDirectory>(std::move(directory));
  return {owner, &owner->directory};
}

// True iff hashers of one dimensionality built from `a` and `b` draw the
// same projections and offsets, hence give every point the same keys.
bool SameKeys(const LshParams& a, const LshParams& b) {
  return a.num_tables == b.num_tables &&
         a.num_projections == b.num_projections &&
         a.segment_length == b.segment_length && a.seed == b.seed;
}

}  // namespace

bool ClusterSnapshot::CompatibleWith(const ClusterSnapshotOptions& options,
                                     int dim) const {
  const AffinityParams& a = affinity_fn_->params();
  return this->dim() == dim && SameKeys(hasher_->params(), options.lsh) &&
         a.k == options.affinity.k && a.p == options.affinity.p;
}

bool ClusterSnapshot::HashesLike(const ClusterSnapshot& other) const {
  return dim_ == other.dim_ &&
         SameKeys(hasher_->params(), other.hasher_->params());
}

std::shared_ptr<const ClusterSnapshot> ClusterSnapshot::FromClusters(
    const Dataset& data, std::span<const Cluster> clusters,
    const ClusterSnapshotOptions& options, uint64_t generation) {
  return Build(data, clusters, options, generation, nullptr, nullptr);
}

std::shared_ptr<const ClusterSnapshot> ClusterSnapshot::Build(
    const Dataset& data, std::span<const Cluster> clusters,
    const ClusterSnapshotOptions& options, uint64_t generation,
    const OnlineAlid* stream, const ClusterSnapshot* prev) {
  ALID_CHECK(data.dim() > 0);
  ALID_TRACE_SCOPE("publish", "build");
  WallTimer build_timer;
  std::shared_ptr<ClusterSnapshot> snap(new ClusterSnapshot());
  const int dim = data.dim();
  snap->dim_ = dim;
  snap->generation_ = generation;
  snap->affinity_fn_ = std::make_unique<AffinityFunction>(options.affinity);

  const int num_clusters = static_cast<int>(clusters.size());
  const int tables = options.lsh.num_tables;
  const bool compatible = prev != nullptr && prev->CompatibleWith(options, dim);
  // A compatible predecessor's query hasher has the same projections.
  snap->hasher_ = compatible
                      ? prev->hasher_
                      : std::make_shared<const LshIndex>(dim, options.lsh);

  // Incremental re-use plan: a cluster whose stream (uid, version) pair
  // matches a block of the previous snapshot is provably unchanged (every
  // membership/weight/density/seed mutation — and every member-row
  // overwrite, which expiry precedes — bumps the stream's version counter),
  // so that block is shared by refcount. Everything in the block is a pure
  // function of the cluster's state at that version, hence the shared block
  // is bit-identical to what a from-scratch build would write.
  std::unordered_map<uint64_t, size_t> prev_by_uid;
  if (stream != nullptr && compatible) {
    prev_by_uid.reserve(prev->blocks_.size());
    for (size_t p = 0; p < prev->blocks_.size(); ++p) {
      if (prev->blocks_[p]->uid != 0) {
        prev_by_uid.emplace(prev->blocks_[p]->uid, p);
      }
    }
  }

  // Block fill, cluster-major: an unchanged cluster *shares* the previous
  // snapshot's sealed arena block (a refcount bump — zero bytes moved);
  // a changed one materializes a fresh block with the cluster's metadata
  // and source ids and takes the stream's own scorer when it is fresh (the
  // "export, don't rebuild" path — another refcount bump), building one
  // with the same builder otherwise; the scorer is a pure function of the
  // members' rows and weights, so both give the same bits. `fresh` keeps
  // the mutable handle of every new block for the build passes below; once
  // Build returns, only const references remain.
  snap->blocks_.resize(static_cast<size_t>(num_clusters));
  // The predecessor cluster each shared block came from, -1 when fresh.
  std::vector<int32_t> reused_from(static_cast<size_t>(num_clusters), -1);
  std::vector<std::shared_ptr<ClusterBlock>> fresh(
      static_cast<size_t>(num_clusters));
  {
    ALID_TRACE_SCOPE("publish", "block_fill");
    for (int c = 0; c < num_clusters; ++c) {
      const Cluster& cluster = clusters[c];
      ALID_CHECK(cluster.members.size() == cluster.weights.size());
      const Index count = static_cast<Index>(cluster.members.size());
      const uint64_t uid = stream != nullptr ? stream->cluster_uid(c) : 0;
      const uint64_t version =
          stream != nullptr ? stream->cluster_version(c) : 0;
      const auto reuse = prev_by_uid.find(uid);
      if (reuse != prev_by_uid.end() &&
          prev->blocks_[reuse->second]->version == version) {
        // The reuse branch is a refcount bump; the span distinguishing it
        // from a gather is the accounting in build_info_, not a trace event.
        const std::shared_ptr<const ClusterBlock>& block =
            prev->blocks_[reuse->second];
        ALID_CHECK(block->count == count);
        snap->blocks_[c] = block;
        reused_from[c] = static_cast<int32_t>(reuse->second);
        snap->build_info_.bytes_shared +=
            static_cast<int64_t>(block->MemoryBytes());
        snap->build_info_.rows_reused += count;
        ++snap->build_info_.clusters_reused;
      } else {
        ALID_TRACE_SCOPE("publish", "block_gather");
        auto block = std::make_shared<ClusterBlock>();
        block->count = count;
        block->density = cluster.density;
        block->seed = cluster.seed;
        block->uid = uid;
        block->version = version;
        block->source_ids = cluster.members;
        for (const Index source : block->source_ids) {
          ALID_CHECK(source >= 0 && source < data.size());
        }
        std::shared_ptr<const ClusterScorer> scorer =
            stream != nullptr ? stream->cluster_scorer(c) : nullptr;
        if (scorer == nullptr || scorer->version != version) {
          scorer = BuildClusterScorer(data, cluster.members, cluster.weights);
        }
        block->scorer = std::move(scorer);
        snap->blocks_[c] = block;
        fresh[c] = std::move(block);
        snap->build_info_.rows_rebuilt += count;
      }
      snap->num_members_ += count;
    }
  }
  snap->build_info_.clusters_total = num_clusters;

  // Candidate keys. A fresh block collects its members' distinct (table,
  // key) buckets: a stream export reads the keys the stream computed on
  // arrival, any other build hashes the members' source rows (same params,
  // same keys). The candidate lookup files every block's buckets under its
  // cluster id — through the shared base's position map or in the delta —
  // so a cluster is marked exactly when a member shares a bucket with the
  // query.
  {
    ALID_TRACE_SCOPE("publish", "candidate_keys");
    const LshIndex* stream_lsh = stream != nullptr ? &stream->lsh() : nullptr;
    std::vector<uint64_t> hashed;  // count x tables, FromClusters only
    std::vector<uint64_t> keys;    // one table's member keys
    std::vector<BucketKey> buckets;
    for (int c = 0; c < num_clusters; ++c) {
      ClusterBlock* block = fresh[c].get();
      if (block == nullptr) continue;  // keys inherited
      const size_t count = static_cast<size_t>(block->count);
      if (stream_lsh == nullptr) {
        hashed.resize(count * tables);
        for (size_t m = 0; m < count; ++m) {
          snap->hasher_->ComputePointKeys(data[block->source_ids[m]],
                                          &hashed[m * tables]);
        }
      }
      buckets.clear();
      for (int t = 0; t < tables; ++t) {
        keys.clear();
        for (size_t m = 0; m < count; ++m) {
          keys.push_back(stream_lsh != nullptr
                             ? stream_lsh->ItemKey(t, block->source_ids[m])
                             : hashed[m * tables + static_cast<size_t>(t)]);
        }
        std::sort(keys.begin(), keys.end());
        keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
        for (const uint64_t key : keys) buckets.push_back({t, key});
      }
      block->bucket_keys.assign(buckets.begin(), buckets.end());
    }
    if (stream != nullptr && compatible) {
      snap->ChainCandidates(*prev, reused_from);
    }
    if (snap->base_ == nullptr) {
      // Compaction: one fresh base over every block, identity map, no delta.
      std::vector<std::span<const BucketKey>> buckets(
          static_cast<size_t>(num_clusters));
      for (int c = 0; c < num_clusters; ++c) {
        buckets[static_cast<size_t>(c)] = snap->blocks_[c]->bucket_keys;
      }
      snap->base_ = SharedDirectory(CandidateDirectory(tables, buckets));
      snap->build_info_.candidate_entries_built =
          static_cast<int64_t>(snap->base_->entries());
    }
    snap->candidates_charge_.Adjust(
        static_cast<int64_t>(snap->candidate_key_bytes()));
  }

  // Every fresh block is complete: seal it — charging its bytes to the
  // global tracker and the arena's resource space exactly once — and count
  // what this build materialized vs. shared.
  {
    ALID_TRACE_SCOPE("publish", "seal");
    for (int c = 0; c < num_clusters; ++c) {
      if (fresh[c] == nullptr) continue;
      fresh[c]->Seal();
      snap->build_info_.bytes_copied +=
          static_cast<int64_t>(fresh[c]->MemoryBytes());
    }
  }

  snap->build_info_.build_seconds = build_timer.Seconds();
  return snap;
}

void ClusterSnapshot::ChainCandidates(const ClusterSnapshot& prev,
                                      std::span<const int32_t> reused_from) {
  const CandidateDirectory& base = *prev.base_;
  // The predecessor's map inverted: its cluster -> base position, -1 for a
  // cluster in its delta. An empty map is the identity.
  std::vector<int32_t> position_of(prev.blocks_.size(), -1);
  if (prev.base_ids_.empty()) {
    std::iota(position_of.begin(), position_of.end(), 0);
  } else {
    for (int32_t q = 0; q < base.num_clusters(); ++q) {
      const int32_t p = prev.base_ids_[static_cast<size_t>(q)];
      if (p >= 0) position_of[static_cast<size_t>(p)] = q;
    }
  }
  // A shared block at a base position keeps it; every other block (fresh,
  // or inherited from the predecessor's delta) goes to the delta.
  std::vector<int32_t> ids(static_cast<size_t>(base.num_clusters()), -1);
  std::vector<std::span<const BucketKey>> delta(
      static_cast<size_t>(num_clusters()));
  size_t live = 0;
  size_t delta_entries = 0;
  bool identity = static_cast<int>(ids.size()) == num_clusters();
  for (int c = 0; c < num_clusters(); ++c) {
    const std::vector<BucketKey>& keys = blocks_[c]->bucket_keys;
    const int32_t from = reused_from[static_cast<size_t>(c)];
    const int32_t q = from >= 0 ? position_of[static_cast<size_t>(from)] : -1;
    if (q >= 0) {
      ALID_CHECK(ids[static_cast<size_t>(q)] < 0);
      ids[static_cast<size_t>(q)] = c;
      live += keys.size();
    } else {
      delta[static_cast<size_t>(c)] = keys;
      delta_entries += keys.size();
    }
    identity = identity && q == c;
  }
  const size_t dead = base.entries() - live;
  if ((delta_entries + dead) * kCompactionRatio > base.entries()) return;
  base_ = prev.base_;
  if (!identity) {
    base_ids_ = std::move(ids);
    delta_ = CandidateDirectory(base.num_tables(), delta, /*key_filter=*/true);
  }
  build_info_.candidate_entries_shared = static_cast<int64_t>(base.entries());
  build_info_.candidate_entries_built = static_cast<int64_t>(delta_entries);
}

std::shared_ptr<const ClusterSnapshot> ClusterSnapshot::FromStream(
    const OnlineAlid& stream, ThreadPool* /*pool*/,
    std::shared_ptr<const ClusterSnapshot> previous) {
  ALID_TRACE_SCOPE("publish", "from_stream");
  ClusterSnapshotOptions options;
  options.affinity = stream.options().affinity;
  options.lsh = stream.options().lsh;
  return Build(stream.oracle().data(), stream.clusters(), options,
               static_cast<uint64_t>(stream.size()), &stream, previous.get());
}

std::span<const uint64_t> ClusterSnapshot::QueryKeys(
    std::span<const Scalar> point) const {
  std::vector<uint64_t>& keys = Scratch().keys;
  keys.resize(static_cast<size_t>(hasher_->num_tables()));
  hasher_->ComputePointKeys(point, keys.data());
  return keys;
}

const EpochStamp& ClusterSnapshot::MarkCandidates(
    std::span<const uint64_t> keys) const {
  EpochStamp& candidates = Scratch().candidates;
  candidates.Begin(static_cast<size_t>(num_clusters()));
  if (base_ids_.empty()) {
    base_->Mark(keys, &candidates);
  } else {
    base_->MarkWithDelta(keys, base_ids_, delta_, &candidates);
  }
  return candidates;
}

QueryOutcome ClusterSnapshot::Assign(std::span<const Scalar> point) const {
  // An empty snapshot answers before hashing.
  return Assign(point, num_clusters() > 0 ? QueryKeys(point)
                                          : std::span<const uint64_t>());
}

QueryOutcome ClusterSnapshot::Assign(std::span<const Scalar> point,
                                     std::span<const uint64_t> keys) const {
  ALID_CHECK(static_cast<int>(point.size()) == dim());
  QueryOutcome best;
  best.generation = generation_;
  if (num_clusters() == 0) return best;
  const EpochStamp& candidates = MarkCandidates(keys);
  Scalar best_margin = -std::numeric_limits<Scalar>::infinity();
  for (int c = 0; c < num_clusters(); ++c) {
    if (!candidates.IsMarked(static_cast<size_t>(c))) continue;
    // Absorb when (near-)infective — the same slack rule, threshold and
    // lowest-id tie-break as the stream's ScoreArrival.
    const Scalar threshold = blocks_[c]->density * (1.0 - kAbsorbSlack);
    const Scalar affinity =
        blocks_[c]->scorer->Affinity(*affinity_fn_, point);
    const Scalar margin = affinity - threshold;
    if (margin > 0.0 && margin > best_margin) {
      best_margin = margin;
      best.cluster = c;
      best.affinity = affinity;
      best.margin = margin;
    }
  }
  return best;
}

std::vector<ScoredCluster> ClusterSnapshot::TopKClusters(
    std::span<const Scalar> point, int k) const {
  // An empty snapshot or k <= 0 answers before hashing.
  return TopKClusters(point,
                      k > 0 && num_clusters() > 0
                          ? QueryKeys(point)
                          : std::span<const uint64_t>(),
                      k);
}

std::vector<ScoredCluster> ClusterSnapshot::TopKClusters(
    std::span<const Scalar> point, std::span<const uint64_t> keys,
    int k) const {
  ALID_CHECK(static_cast<int>(point.size()) == dim());
  std::vector<ScoredCluster> scored;
  if (k <= 0 || num_clusters() == 0) return scored;
  const EpochStamp& candidates = MarkCandidates(keys);
  for (int c = 0; c < num_clusters(); ++c) {
    if (!candidates.IsMarked(static_cast<size_t>(c))) continue;
    const Scalar affinity =
        blocks_[c]->scorer->Affinity(*affinity_fn_, point);
    ScoredCluster entry;
    entry.cluster = c;
    entry.affinity = affinity;
    entry.margin = affinity - blocks_[c]->density * (1.0 - kAbsorbSlack);
    entry.generation = generation_;
    entry.absorbable = entry.margin > 0.0;
    scored.push_back(entry);
  }
  // Descending affinity, ascending id on exact ties: a stable total order,
  // so batched and serial TopK answers are identical.
  std::sort(scored.begin(), scored.end(),
            [](const ScoredCluster& a, const ScoredCluster& b) {
              if (a.affinity != b.affinity) return a.affinity > b.affinity;
              return a.cluster < b.cluster;
            });
  if (static_cast<int>(scored.size()) > k) scored.resize(k);
  return scored;
}

ClusterSnapshotInfo ClusterSnapshot::ClusterInfo(int c) const {
  ClusterSnapshotInfo info;
  if (c < 0 || c >= num_clusters()) return info;
  const ClusterBlock& block = *blocks_[c];
  info.cluster = c;
  info.size = block.count;
  info.density = block.density;
  info.seed = block.seed;
  info.members.assign(block.source_ids.begin(), block.source_ids.end());
  info.weights = block.scorer->weights;
  return info;
}

}  // namespace alid

#include "serve/cluster_server.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <unordered_set>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace alid {

ClusterServer::ClusterServer(int dim, ClusterServerOptions options)
    : dim_(dim), options_(options) {
  ALID_CHECK(dim_ > 0);
  ALID_CHECK(options_.history_capacity >= 0);
  // History-ring gauges ride the same per-instance registry as the serve
  // counters; each read takes the publication lock shared, exactly like
  // stats() (the byte gauge only to copy the ring it then walks). The
  // callbacks capture `this` — they die with the registry, which dies with
  // the server.
  obs::MetricsRegistry* registry = stats_.mutable_registry();
  registry->AddCallbackGauge("history_ring_bytes",
                             [this] { return HistoryRingBytes(); });
  registry->AddCallbackGauge("generations_retained", [this] {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    return static_cast<int64_t>(history_.size());
  });
  registry->AddCallbackGauge("history_evictions", [this] {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    return history_evictions_;
  });
  if (options_.pool != nullptr) {
    options_.pool->RegisterMetrics(registry, "pool");
  }
}

namespace {

// One cluster of a generation, at its generation-wide id: the metadata
// GenerationDiff reports.
struct ClusterMeta {
  size_t shard = 0;
  uint64_t uid = 0;
  uint64_t version = 0;
  Index size = 0;
  Scalar density = 0.0;
};

std::vector<ClusterMeta> ClusterMetas(const ServedGeneration& gen) {
  std::vector<ClusterMeta> metas;
  for (size_t s = 0; s < gen.shards.size(); ++s) {
    const ClusterSnapshot& shard = *gen.shards[s];
    for (int c = 0; c < shard.num_clusters(); ++c) {
      metas.push_back(ClusterMeta{s, shard.cluster_uid(c),
                                  shard.cluster_version(c),
                                  shard.cluster_size(c), shard.density(c)});
    }
  }
  return metas;
}

// The point's bucket keys, hashed at most once per point of a request:
// on the first call, with the hasher of the generation's shard 0 (Publish
// checks that every shard hashes alike). A caller asks only when a shard
// holds a cluster — an empty shard answers without keys — so a point of an
// all-empty generation is never hashed.
class LazyKeys {
 public:
  LazyKeys(const ServedGeneration& gen, std::span<const Scalar> point)
      : gen_(gen), point_(point) {}

  std::span<const uint64_t> get() {
    if (keys_.empty()) keys_ = gen_.shards.front()->QueryKeys(point_);
    return keys_;
  }

 private:
  const ServedGeneration& gen_;
  std::span<const Scalar> point_;
  std::span<const uint64_t> keys_;  // the thread's query scratch
};

// The absorb decision for one point across every shard of `gen`: each
// shard's keyed Assign with its id offset into the generation's id space,
// merged by strictly-greater margin — equal margins keep the earlier shard,
// and each shard already prefers its lowest cluster id, so the lowest
// generation-wide id wins ties. For S == 1 this is the shard's answer.
QueryOutcome AssignAcrossShards(const ServedGeneration& gen,
                                std::span<const Scalar> point) {
  QueryOutcome best;
  LazyKeys keys(gen, point);
  int offset = 0;
  for (const auto& shard : gen.shards) {
    if (shard->num_clusters() > 0) {
      const QueryOutcome outcome = shard->Assign(point, keys.get());
      if (outcome.cluster >= 0 &&
          (best.cluster < 0 || outcome.margin > best.margin)) {
        best = outcome;
        best.cluster += offset;
      }
    }
    offset += shard->num_clusters();
  }
  best.generation = gen.generation;
  return best;
}

// Top-k of one point across every shard of `gen`: each shard's keyed
// ranking with its ids offset into the generation's id space, merged by
// affinity descending and ascending id on ties — the snapshot's own order,
// so for S == 1 this is the shard's ranking verbatim. The order is total
// (no two candidates share an id), so the merge is deterministic whatever
// sort runs underneath.
std::vector<ScoredCluster> RankAcrossShards(const ServedGeneration& gen,
                                            std::span<const Scalar> point,
                                            int k) {
  LazyKeys keys(gen, point);
  const auto rank = [&](const ClusterSnapshot& shard) {
    return shard.num_clusters() > 0
               ? shard.TopKClusters(point, keys.get(), k)
               : std::vector<ScoredCluster>();
  };
  std::vector<ScoredCluster> ranked = rank(*gen.shards.front());
  int offset = gen.shards.front()->num_clusters();
  for (size_t s = 1; s < gen.shards.size(); ++s) {
    for (ScoredCluster candidate : rank(*gen.shards[s])) {
      candidate.cluster += offset;
      ranked.push_back(candidate);
    }
    offset += gen.shards[s]->num_clusters();
  }
  if (gen.shards.size() > 1) {
    std::sort(ranked.begin(), ranked.end(),
              [](const ScoredCluster& a, const ScoredCluster& b) {
                if (a.affinity != b.affinity) return a.affinity > b.affinity;
                return a.cluster < b.cluster;
              });
    if (static_cast<int>(ranked.size()) > k) {
      ranked.resize(static_cast<size_t>(k));
    }
  }
  for (ScoredCluster& candidate : ranked) {
    candidate.generation = gen.generation;
  }
  return ranked;
}

// The bytes the ring holds beyond `current`: unique arena blocks, shared
// base candidate directories and snapshots' own candidate bytes (delta and
// base-position map) that `current` does not reference — the true extra
// cost of time travel (shared blocks and bases are charged to the live
// generation). The bytes of a set of entries are a set union, so each
// block, base and snapshot is counted once.
int64_t RingBytes(const ServedGeneration* current, const HistoryRing& ring) {
  if (ring.empty()) return 0;
  std::unordered_set<const ClusterSnapshot*> counted_shards;
  std::unordered_set<const CandidateDirectory*> counted_bases;
  std::unordered_set<const ClusterBlock*> counted;
  if (current != nullptr) {
    for (const auto& shard : current->shards) {
      counted_shards.insert(shard.get());
      counted_bases.insert(&shard->candidate_base());
      for (const auto& block : shard->blocks()) counted.insert(block.get());
    }
  }
  int64_t bytes = 0;
  for (const auto& entry : ring) {
    for (const auto& shard : entry->shards) {
      if (counted_shards.insert(shard.get()).second) {
        bytes += static_cast<int64_t>(shard->candidate_key_bytes());
        const CandidateDirectory& base = shard->candidate_base();
        if (counted_bases.insert(&base).second) {
          bytes += static_cast<int64_t>(base.MemoryBytes());
        }
      }
      for (const auto& block : shard->blocks()) {
        if (counted.insert(block.get()).second) {
          bytes += static_cast<int64_t>(block->MemoryBytes());
        }
      }
    }
  }
  return bytes;
}

}  // namespace

void ClusterServer::Publish(std::shared_ptr<const ClusterSnapshot> snapshot) {
  if (snapshot == nullptr) {
    Publish(nullptr);
    return;
  }
  auto generation = std::make_shared<ServedGeneration>();
  generation->generation = snapshot->generation();
  generation->shards.push_back(std::move(snapshot));
  Publish(std::shared_ptr<const ServedGeneration>(std::move(generation)));
}

void ClusterServer::Publish(
    std::shared_ptr<const ServedGeneration> generation) {
  // The build ledger of a generation is the sum over its shards.
  const bool online = generation != nullptr;
  SnapshotBuildInfo ledger;
  if (online) {
    ALID_CHECK(!generation->shards.empty());
    for (const auto& shard : generation->shards) {
      ALID_CHECK(shard != nullptr && shard->dim() == dim_);
      // A request hashes each point once, with shard 0's hasher, and hands
      // the keys to every shard.
      ALID_CHECK(shard->HashesLike(*generation->shards.front()));
      const SnapshotBuildInfo& info = shard->build_info();
      ledger.build_seconds += info.build_seconds;
      ledger.rows_reused += info.rows_reused;
      ledger.clusters_reused += info.clusters_reused;
      ledger.bytes_shared += info.bytes_shared;
      ledger.bytes_copied += info.bytes_copied;
    }
  }
  // Generations released by this publication — ring evictions and the
  // swap operand — die after the lock is released, so an expensive teardown
  // never stalls the readers.
  std::vector<std::shared_ptr<const ServedGeneration>> evicted;
  bool republish = false;
  {
    ALID_TRACE_SCOPE("serve", "publish_swap");
    std::unique_lock<std::shared_mutex> lock(snapshot_mu_);
    // Re-publishing the current shards (a rollback, or a fresh one-shard
    // wrapper around the current snapshot) leaves the ring as it is.
    republish = current_ == generation ||
                (current_ != nullptr && generation != nullptr &&
                 current_->generation == generation->generation &&
                 current_->shards == generation->shards);
    if (!republish && current_ != nullptr && options_.history_capacity > 0) {
      // Retire the outgoing generation into the ring. A generation
      // republished later (rollback) would otherwise accumulate duplicate
      // entries, so an existing entry of the same generation is dropped
      // first.
      const uint64_t retiring = current_->generation;
      for (auto it = history_.begin(); it != history_.end();) {
        if ((*it)->generation == retiring) {
          evicted.push_back(std::move(*it));
          it = history_.erase(it);
        } else {
          ++it;
        }
      }
      history_.push_back(current_);
    }
    while (static_cast<int>(history_.size()) > options_.history_capacity) {
      evicted.push_back(std::move(history_.front()));
      history_.pop_front();
      ++history_evictions_;
    }
    current_.swap(generation);
  }
  evicted.clear();
  generation.reset();
  // Re-publishing the generation that was already current still counts as
  // a publication, but its build cost and re-use totals were recorded when
  // it was first published — folding them again would claim work that
  // never happened.
  stats_.RecordPublish(online && !republish, ledger.build_seconds,
                       republish ? 0 : ledger.rows_reused,
                       republish ? 0 : ledger.clusters_reused,
                       republish ? 0 : ledger.bytes_shared,
                       republish ? 0 : ledger.bytes_copied);
}

std::shared_ptr<const ServedGeneration> ClusterServer::snapshot() const {
  std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
  return current_;
}

std::shared_ptr<const ServedGeneration> ClusterServer::SnapshotAt(
    uint64_t generation) const {
  std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
  if (generation == 0) return current_;
  if (current_ != nullptr && current_->generation == generation) {
    return current_;
  }
  // Newest-first scan: as-of queries overwhelmingly address recent
  // generations, and the ring is small by construction.
  for (auto it = history_.rbegin(); it != history_.rend(); ++it) {
    if ((*it)->generation == generation) return *it;
  }
  return nullptr;
}

uint64_t ClusterServer::generation() const {
  const auto current = snapshot();
  return current != nullptr ? current->generation : 0;
}

QueryResponse ClusterServer::Query(const QueryRequest& request) const {
  const Index count = static_cast<Index>(request.points.size() / dim_);
  QueryResponse response;
  if (request.points.size() % static_cast<size_t>(dim_) != 0 ||
      request.top_k < 0 ||
      !std::all_of(request.points.begin(), request.points.end(),
                   [](Scalar v) { return std::isfinite(v); })) {
    response.status = QueryStatus::kInvalidRequest;
    if (request.top_k > 0) {
      response.ranked.resize(static_cast<size_t>(count));
    } else {
      response.assignments.resize(static_cast<size_t>(count));
    }
    return response;
  }
  WallTimer timer;
  ALID_TRACE_SCOPE("serve", "query");
  // One acquire for the whole request: every point of the call, on every
  // shard, is answered by the same generation even if Publish swaps
  // mid-call — the linearization point of the request is this load. An
  // as-of request pins the retained generation the same way, so its answers
  // are exactly the answers that generation gave when it was current.
  std::shared_ptr<const ServedGeneration> gen;
  {
    ALID_TRACE_SCOPE("serve", "snapshot_pin");
    gen = SnapshotAt(request.generation);
  }
  if (gen == nullptr) {
    response.status = request.generation == 0
                          ? QueryStatus::kOffline
                          : QueryStatus::kGenerationUnavailable;
  } else {
    response.status = QueryStatus::kOk;
    response.generation = gen->generation;
    stats_.RecordFanout(static_cast<int64_t>(count) *
                        static_cast<int64_t>(gen->shards.size()));
  }
  if (request.top_k > 0) {
    response.ranked.resize(static_cast<size_t>(count));
    if (count == 0) return response;
    if (gen != nullptr) {
      // Ranked queries are pure per point; chunking only distributes them.
      ParallelChunks(options_.pool, 0, count, /*grain=*/0,
                     [&](int64_t, int64_t lo, int64_t hi) {
                       ALID_TRACE_SCOPE("serve", "rank_chunk");
                       for (int64_t q = lo; q < hi; ++q) {
                         response.ranked[q] = RankAcrossShards(
                             *gen,
                             request.points.subspan(
                                 static_cast<size_t>(q) * dim_,
                                 static_cast<size_t>(dim_)),
                             request.top_k);
                       }
                     });
    }
    stats_.RecordTopK(count);
    return response;
  }
  response.assignments.resize(static_cast<size_t>(count));
  if (count == 0) return response;
  if (gen != nullptr) {
    // Assignments are pure per point; chunking only distributes them.
    ParallelChunks(options_.pool, 0, count, /*grain=*/0,
                   [&](int64_t, int64_t lo, int64_t hi) {
                     for (int64_t q = lo; q < hi; ++q) {
                       response.assignments[q] = AssignAcrossShards(
                           *gen, request.points.subspan(
                                     static_cast<size_t>(q) * dim_,
                                     static_cast<size_t>(dim_)));
                     }
                   });
  }
  int64_t assigned = 0;
  for (const QueryOutcome& r : response.assignments) {
    assigned += r.cluster >= 0 ? 1 : 0;
  }
  stats_.RecordAssign(count, assigned, timer.Seconds(),
                      /*batch=*/count != 1);
  return response;
}

GenerationDiffResult ClusterServer::GenerationDiff(uint64_t from,
                                                   uint64_t to) const {
  GenerationDiffResult diff;
  const auto gen_from = SnapshotAt(from);
  const auto gen_to = SnapshotAt(to);
  if (gen_from == nullptr || gen_to == nullptr) return diff;
  diff.ok = true;
  diff.from = gen_from->generation;
  diff.to = gen_to->generation;
  const std::vector<ClusterMeta> was = ClusterMetas(*gen_from);
  const std::vector<ClusterMeta> now = ClusterMetas(*gen_to);
  // The match key is (shard, uid): every shard's stream numbers its
  // clusters from uid 1.
  std::map<std::pair<size_t, uint64_t>, int> from_by_key;
  for (int f = 0; f < static_cast<int>(was.size()); ++f) {
    if (was[f].uid != 0) {
      from_by_key.emplace(std::pair{was[f].shard, was[f].uid}, f);
    }
  }
  for (int c = 0; c < static_cast<int>(now.size()); ++c) {
    const auto it = now[c].uid != 0
                        ? from_by_key.find({now[c].shard, now[c].uid})
                        : from_by_key.end();
    if (it == from_by_key.end()) {
      ClusterDrift born;
      born.uid = now[c].uid;
      born.cluster_to = c;
      born.size_to = now[c].size;
      born.density_to = now[c].density;
      diff.births.push_back(born);
      continue;
    }
    const int f = it->second;
    from_by_key.erase(it);
    if (was[f].version == now[c].version) {
      ++diff.unchanged;
      continue;
    }
    ClusterDrift moved;
    moved.uid = now[c].uid;
    moved.cluster_from = f;
    moved.cluster_to = c;
    moved.size_from = was[f].size;
    moved.size_to = now[c].size;
    moved.density_from = was[f].density;
    moved.density_to = now[c].density;
    diff.drifted.push_back(moved);
  }
  // Clusters of `from` never matched: deaths, in ascending id so the report
  // is deterministic. uid == 0 clusters (non-stream sources) cannot match;
  // they are reported too.
  std::vector<int> gone;
  for (const auto& [key, f] : from_by_key) gone.push_back(f);
  for (int f = 0; f < static_cast<int>(was.size()); ++f) {
    if (was[f].uid == 0) gone.push_back(f);
  }
  std::sort(gone.begin(), gone.end());
  for (const int f : gone) {
    ClusterDrift dead;
    dead.uid = was[f].uid;
    dead.cluster_from = f;
    dead.size_from = was[f].size;
    dead.density_from = was[f].density;
    diff.deaths.push_back(dead);
  }
  return diff;
}

ClusterSnapshotInfo ClusterServer::ClusterInfo(int cluster) const {
  stats_.RecordInfo();
  const auto gen = snapshot();
  if (gen == nullptr || cluster < 0) return {};
  int local = cluster;
  for (const auto& shard : gen->shards) {
    if (local < shard->num_clusters()) {
      ClusterSnapshotInfo info = shard->ClusterInfo(local);
      info.cluster = cluster;
      return info;
    }
    local -= shard->num_clusters();
  }
  return {};
}

int64_t ClusterServer::HistoryRingBytes() const {
  std::shared_ptr<const ServedGeneration> current;
  HistoryRing ring;
  {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    current = current_;
    ring = history_;
  }
  return RingBytes(current.get(), ring);
}

ServeStatsView ClusterServer::stats() const {
  ServeStatsView view = stats_.View();
  std::shared_ptr<const ServedGeneration> current;
  HistoryRing ring;
  {
    std::shared_lock<std::shared_mutex> lock(snapshot_mu_);
    current = current_;
    ring = history_;
    view.history_evictions = history_evictions_;
  }
  view.generations_retained = static_cast<int>(ring.size());
  view.history_ring_bytes = RingBytes(current.get(), ring);
  return view;
}

}  // namespace alid

#include "shard/sharded_stream.h"

#include <algorithm>
#include <bit>
#include <string>

#include "common/check.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace alid {

ShardedStream::ShardedStream(int dim, ShardedStreamOptions options)
    : dim_(dim), options_(std::move(options)) {
  ALID_CHECK(dim_ > 0);
  ALID_CHECK(options_.num_shards >= 1);
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<OnlineAlid>(dim_, options_.base));
  }
  auto& reg = metrics_.registry;
  metrics_.ingest_batches = reg.AddCounter("ingest_batches");
  metrics_.arrivals = reg.AddCounter("arrivals");
  metrics_.hot_shard_arrivals = reg.AddGauge("hot_shard_arrivals");
  metrics_.cold_shard_arrivals = reg.AddGauge("cold_shard_arrivals");
  metrics_.ingest_seconds.AttachHistogram(
      reg.AddHistogram("ingest_seconds", obs::LatencyHistogramEdges()));
  for (int s = 0; s < options_.num_shards; ++s) {
    const std::string label = "shard" + std::to_string(s);
    // Arrivals read an atomic counter, so the callback is safe from any
    // exporting thread; the alive/cluster gauges are plain gauges refreshed
    // serially after each cross-shard barrier (OnlineAlid::alive() walks a
    // deque and must not be read concurrently with ingest).
    reg.AddCallbackGauge(label + "_arrivals", [this, s]() {
      return static_cast<int64_t>(shards_[static_cast<size_t>(s)]->size());
    });
    metrics_.shard_alive.push_back(reg.AddGauge(label + "_alive"));
    metrics_.shard_clusters_alive.push_back(
        reg.AddGauge(label + "_clusters_alive"));
  }
}

uint64_t ShardedStream::PartitionKey(std::span<const Scalar> point) {
  // A content hash over the scalar bit patterns: the same bytes route to
  // the same shard no matter how the stream is batched. The fixed basis
  // keeps the empty-point key defined.
  uint64_t h = 0x5A1D'BEEF'0000'0001ull;
  for (const Scalar v : point) {
    h = SplitMix64(h ^ std::bit_cast<uint64_t>(v));
  }
  return h;
}

int ShardedStream::ShardOf(uint64_t partition_key) const {
  return static_cast<int>(SplitMix64(partition_key ^ options_.partition_salt) %
                          static_cast<uint64_t>(shards_.size()));
}

std::vector<ShardSlot> ShardedStream::InsertBatch(
    std::span<const Scalar> points) {
  ALID_CHECK(points.size() % static_cast<size_t>(dim_) == 0);
  const Index count = static_cast<Index>(points.size()) / dim_;
  if (count == 0) return {};
  if (shards_.size() == 1) return InsertPartitioned(points, {});
  // Default keys: the content hash, computed chunk-parallel (pure per
  // arrival, so the keys — and the partition — never depend on executors).
  std::vector<uint64_t> keys(static_cast<size_t>(count));
  ParallelChunks(options_.base.pool, 0, count, options_.base.grain,
                 [&](int64_t, int64_t lo, int64_t hi) {
                   for (int64_t i = lo; i < hi; ++i) {
                     keys[static_cast<size_t>(i)] = PartitionKey(
                         points.subspan(static_cast<size_t>(i) * dim_,
                                        static_cast<size_t>(dim_)));
                   }
                 });
  return InsertPartitioned(points, keys);
}

std::vector<ShardSlot> ShardedStream::InsertBatch(
    std::span<const Scalar> points, std::span<const uint64_t> partition_keys) {
  ALID_CHECK(points.size() % static_cast<size_t>(dim_) == 0);
  const Index count = static_cast<Index>(points.size()) / dim_;
  if (count == 0) return {};
  if (shards_.size() > 1) {
    ALID_CHECK(partition_keys.size() == static_cast<size_t>(count));
  }
  return InsertPartitioned(points, partition_keys);
}

std::vector<ShardSlot> ShardedStream::InsertPartitioned(
    std::span<const Scalar> points, std::span<const uint64_t> partition_keys) {
  ALID_TRACE_SCOPE("shard", "ingest_batch");
  WallTimer timer;
  const Index count = static_cast<Index>(points.size()) / dim_;
  const int num_shards = static_cast<int>(shards_.size());
  std::vector<ShardSlot> result(static_cast<size_t>(count));

  if (num_shards == 1) {
    // The S == 1 contract: bit-identical to — and as cheap as — a plain
    // OnlineAlid. No keys, no gather/scatter, no cross-shard dispatch; the
    // inner parallel phases keep the whole pool.
    const std::vector<Index> slots = shards_[0]->InsertBatch(points);
    for (Index i = 0; i < count; ++i) {
      result[static_cast<size_t>(i)] = ShardSlot{0, slots[static_cast<size_t>(i)]};
    }
  } else {
    // Gather each shard's sub-batch, preserving arrival order within the
    // shard (the partition is deterministic, so every shard sees a
    // deterministic sub-stream regardless of executors).
    std::vector<std::vector<Scalar>> sub(static_cast<size_t>(num_shards));
    std::vector<std::vector<Index>> positions(static_cast<size_t>(num_shards));
    for (Index i = 0; i < count; ++i) {
      const int s = ShardOf(partition_keys[static_cast<size_t>(i)]);
      auto& flat = sub[static_cast<size_t>(s)];
      const auto row = points.subspan(static_cast<size_t>(i) * dim_,
                                      static_cast<size_t>(dim_));
      flat.insert(flat.end(), row.begin(), row.end());
      positions[static_cast<size_t>(s)].push_back(i);
    }
    // One chunk per shard: a shard claimed by a pool worker ingests with
    // its parallel phases degraded to serial (nested-parallelism rule),
    // one claimed by the caller may keep them parallel — both produce the
    // same bits, so the schedule never shows in the state. The serial
    // phases of different shards overlap; that is the whole speedup.
    std::vector<std::vector<Index>> shard_slots(
        static_cast<size_t>(num_shards));
    ParallelChunks(options_.base.pool, 0, num_shards, /*grain=*/1,
                   [&](int64_t, int64_t lo, int64_t hi) {
                     for (int64_t s = lo; s < hi; ++s) {
                       const auto& flat = sub[static_cast<size_t>(s)];
                       if (flat.empty()) continue;
                       shard_slots[static_cast<size_t>(s)] =
                           shards_[static_cast<size_t>(s)]->InsertBatch(flat);
                     }
                   });
    for (int s = 0; s < num_shards; ++s) {
      const auto& pos = positions[static_cast<size_t>(s)];
      const auto& slots = shard_slots[static_cast<size_t>(s)];
      for (size_t j = 0; j < pos.size(); ++j) {
        result[static_cast<size_t>(pos[j])] = ShardSlot{s, slots[j]};
      }
    }
  }

  metrics_.ingest_batches->Add(1);
  metrics_.arrivals->Add(count);
  UpdateShardGauges();
  metrics_.ingest_seconds.Record(timer.Seconds());
  return result;
}

void ShardedStream::Refresh() {
  ALID_TRACE_SCOPE("shard", "refresh");
  ParallelChunks(options_.base.pool, 0, static_cast<int64_t>(shards_.size()),
                 /*grain=*/1, [&](int64_t, int64_t lo, int64_t hi) {
                   for (int64_t s = lo; s < hi; ++s) {
                     shards_[static_cast<size_t>(s)]->Refresh();
                   }
                 });
  UpdateShardGauges();
}

void ShardedStream::UpdateShardGauges() {
  int64_t hot = 0;
  int64_t cold = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const OnlineAlid& shard = *shards_[s];
    metrics_.shard_alive[s]->Set(static_cast<int64_t>(shard.alive()));
    metrics_.shard_clusters_alive[s]->Set(
        static_cast<int64_t>(shard.clusters().size()));
    const int64_t arrivals = static_cast<int64_t>(shard.size());
    hot = std::max(hot, arrivals);
    cold = s == 0 ? arrivals : std::min(cold, arrivals);
  }
  metrics_.hot_shard_arrivals->Set(hot);
  metrics_.cold_shard_arrivals->Set(cold);
}

Index ShardedStream::size() const {
  Index total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

Index ShardedStream::alive() const {
  Index total = 0;
  for (const auto& shard : shards_) total += shard->alive();
  return total;
}

StreamStats ShardedStream::stats() const {
  StreamStats total;
  for (const auto& shard : shards_) {
    const StreamStats s = shard->stats();
    total.arrivals += s.arrivals;
    total.absorbed += s.absorbed;
    total.pooled += s.pooled;
    total.evicted += s.evicted;
    total.redetections += s.redetections;
    total.refreshes += s.refreshes;
    total.clusters_born += s.clusters_born;
    total.clusters_dissolved += s.clusters_dissolved;
    total.sketch_prunes += s.sketch_prunes;
    total.sketch_exact += s.sketch_exact;
    total.refresh_rounds += s.refresh_rounds;
    total.refresh_speculations += s.refresh_speculations;
    total.refresh_conflicts += s.refresh_conflicts;
    total.alive += s.alive;
    total.clusters_alive += s.clusters_alive;
  }
  total.batch_seconds = metrics_.ingest_seconds.Samples();
  return total;
}

}  // namespace alid

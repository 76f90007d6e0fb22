// Tests of the generation-addressed serve API: bounded time travel through
// the history ring (as-of queries bit-identical to the pinned historical
// snapshot), capacity eviction under a hot publisher — and under two
// racing publishers — with concurrent readers (TSan-visible), arena-block
// sharing and its MemoryTracker accounting (returns to baseline after
// teardown — the ASan leg), the GenerationDiff report, and the constructor
// contract death test.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/memory_tracker.h"
#include "common/random.h"
#include "core/online_alid.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "serve/cluster_server.h"
#include "serve/cluster_snapshot.h"
#include "serve/snapshot_arena.h"
#include "test_util.h"

namespace alid {
namespace {

LabeledData Workload(Index n = 420, uint64_t seed = 91, int num_clusters = 4) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 10;
  cfg.num_clusters = num_clusters;
  cfg.omega = 0.6;
  cfg.mean_box = 300.0;
  cfg.overlap_clusters = false;
  cfg.seed = seed;
  return MakeSynthetic(cfg);
}

OnlineAlidOptions StreamOptions(const LabeledData& data) {
  OnlineAlidOptions opts;
  opts.affinity = {.k = data.suggested_k, .p = 2.0};
  opts.lsh.segment_length = data.suggested_lsh_r;
  opts.refresh_interval = 96;
  return opts;
}

// Streams `data` in fixed batches, exporting an incremental snapshot chain
// (each generation sharing its predecessor's unchanged blocks).
std::vector<std::shared_ptr<const ClusterSnapshot>> SnapshotChain(
    const LabeledData& data, OnlineAlid& online, Index batch_rows) {
  std::vector<std::shared_ptr<const ClusterSnapshot>> snaps;
  Rng rng(5);
  const std::vector<Index> order = rng.Permutation(data.size());
  std::vector<Scalar> flat;
  for (Index pos = 0; pos < data.size(); ++pos) {
    const auto row = data.data[order[pos]];
    flat.insert(flat.end(), row.begin(), row.end());
    if (static_cast<Index>(flat.size()) == batch_rows * data.data.dim()) {
      online.InsertBatch(flat);
      flat.clear();
      online.Refresh();
      snaps.push_back(ClusterSnapshot::FromStream(
          online, nullptr, snaps.empty() ? nullptr : snaps.back()));
    }
  }
  return snaps;
}

// Steady-state tail publishes: localized arrivals (tight jitter around one
// planted cluster's members) leave every other cluster untouched between
// publishes — the regime where the incremental export shares blocks.
void AppendLocalizedTail(const LabeledData& data, OnlineAlid& online,
                         std::vector<std::shared_ptr<const ClusterSnapshot>>&
                             snaps,
                         int rounds) {
  Rng jitter(7);
  const int dim = data.data.dim();
  const auto& burst = data.true_clusters.front();
  for (int round = 0; round < rounds; ++round) {
    std::vector<Scalar> flat;
    for (int q = 0; q < 24; ++q) {
      const auto row = data.data[burst[static_cast<size_t>(
          jitter.UniformInt(0, static_cast<int>(burst.size()) - 1))]];
      for (int d = 0; d < dim; ++d) {
        flat.push_back(row[d] + jitter.Gaussian() * 0.05);
      }
    }
    online.InsertBatch(flat);
    snaps.push_back(
        ClusterSnapshot::FromStream(online, nullptr, snaps.back()));
  }
}

// One publish whose arrivals (jittered members of every planted cluster)
// change most clusters at once: after a chain of localized publishes, its
// delta outgrows the shared base and the export compacts.
void AppendSpreadBatch(const LabeledData& data, OnlineAlid& online,
                       std::vector<std::shared_ptr<const ClusterSnapshot>>&
                           snaps) {
  Rng jitter(11);
  const int dim = data.data.dim();
  std::vector<Scalar> flat;
  for (const IndexList& cluster : data.true_clusters) {
    for (int q = 0; q < 8; ++q) {
      const auto row = data.data[cluster[static_cast<size_t>(
          jitter.UniformInt(0, static_cast<int>(cluster.size()) - 1))]];
      for (int d = 0; d < dim; ++d) {
        flat.push_back(row[d] + jitter.Gaussian() * 0.05);
      }
    }
  }
  online.InsertBatch(flat);
  snaps.push_back(ClusterSnapshot::FromStream(online, nullptr, snaps.back()));
}

// The candidate-lookup bytes `ring` holds beyond `current`: each ring
// snapshot's own bytes (delta, key filter and base-position map), plus each
// shared base once unless `current` references it.
int64_t RingCandidateBytes(
    std::span<const std::shared_ptr<const ClusterSnapshot>> ring,
    const ClusterSnapshot& current) {
  std::unordered_set<const CandidateDirectory*> bases;
  bases.insert(&current.candidate_base());
  int64_t bytes = 0;
  for (const auto& snap : ring) {
    bytes += static_cast<int64_t>(snap->candidate_key_bytes());
    if (bases.insert(&snap->candidate_base()).second) {
      bytes += static_cast<int64_t>(snap->candidate_base().MemoryBytes());
    }
  }
  return bytes;
}

// Returns once `answered` is positive, or after 10 s: a publisher calls it
// before stopping its readers, so a reader descheduled for the whole
// publish loop still gets to answer.
void WaitForAnAnswer(const std::atomic<int64_t>& answered) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (answered.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

// A fixed probe mix: jittered members (assignable) + far noise.
std::vector<Scalar> Probes(const LabeledData& data, int count,
                           uint64_t seed = 17) {
  Rng rng(seed);
  std::vector<Scalar> probes;
  const int dim = data.data.dim();
  for (int q = 0; q < count; ++q) {
    if (q % 3 != 2) {
      const auto row =
          data.data[static_cast<Index>(rng.UniformInt(0, data.size() - 1))];
      for (int d = 0; d < dim; ++d) {
        probes.push_back(row[d] + rng.Gaussian() * 0.1);
      }
    } else {
      for (int d = 0; d < dim; ++d) probes.push_back(rng.Uniform(-700, 700));
    }
  }
  return probes;
}

TEST(ServeHistoryDeathTest, ConstructorRejectsNonPositiveDim) {
  // The dim contract is checked at construction, not first use: a server
  // wired to the wrong config dies here instead of serving garbage.
  EXPECT_DEATH(ClusterServer(0), "dim_ > 0");
  EXPECT_DEATH(ClusterServer(-3), "dim_ > 0");
}

TEST(ServeHistoryTest, AsOfQueryBitIdenticalToPinnedHistoricalSnapshot) {
  LabeledData data = Workload(520, 33);
  OnlineAlid online(data.data.dim(), StreamOptions(data));
  const auto snaps = SnapshotChain(data, online, 80);
  ASSERT_GE(snaps.size(), 4u);
  const int dim = data.data.dim();
  const std::vector<Scalar> probes = Probes(data, 60);

  ClusterServer server(dim, {.history_capacity = 8});
  // Pin generation g's answers while it is CURRENT...
  std::vector<std::vector<QueryOutcome>> expected;
  std::vector<std::vector<std::vector<ScoredCluster>>> expected_ranked;
  for (const auto& snap : snaps) {
    server.Publish(snap);
    expected.push_back(server.Query({.points = probes}).assignments);
    expected_ranked.push_back(
        server.Query({.points = probes, .top_k = 3}).ranked);
  }
  // ...then re-ask every retained generation as-of. The snapshot is
  // immutable, so the answers must be bit-identical — cluster, affinity and
  // margin bits included — not merely "close".
  for (size_t s = 0; s + 1 < snaps.size(); ++s) {
    const uint64_t gen = snaps[s]->generation();
    if (server.SnapshotAt(gen) == nullptr) continue;  // evicted by capacity
    SCOPED_TRACE(testing::Message() << "generation " << gen);
    const QueryResponse asof =
        server.Query({.points = probes, .generation = gen});
    EXPECT_EQ(asof.status, QueryStatus::kOk);
    EXPECT_EQ(asof.generation, gen);
    EXPECT_EQ(asof.assignments, expected[s]);
    const QueryResponse asof_ranked =
        server.Query({.points = probes, .top_k = 3, .generation = gen});
    EXPECT_EQ(asof_ranked.ranked, expected_ranked[s]);
  }
  // The current generation answers the same through either address.
  const uint64_t current = server.generation();
  EXPECT_EQ(server.Query({.points = probes, .generation = current})
                .assignments,
            expected.back());
  // An evicted / never-published generation is a typed failure, and its
  // response still has one (unassigned) entry per point.
  const QueryResponse gone =
      server.Query({.points = probes, .generation = 0xdeadbeefULL});
  EXPECT_EQ(gone.status, QueryStatus::kGenerationUnavailable);
  EXPECT_FALSE(gone.ok());
  ASSERT_EQ(gone.assignments.size(), probes.size() / dim);
  EXPECT_EQ(gone.assignments.front().cluster, -1);
}

TEST(ServeHistoryTest, CapacityBoundsTheRing) {
  LabeledData data = Workload(480, 41);
  OnlineAlid online(data.data.dim(), StreamOptions(data));
  const auto snaps = SnapshotChain(data, online, 80);
  ASSERT_GE(snaps.size(), 4u);
  const int dim = data.data.dim();

  // capacity = 0 disables time travel entirely.
  ClusterServer none(dim, {.history_capacity = 0});
  for (const auto& snap : snaps) none.Publish(snap);
  EXPECT_EQ(none.stats().generations_retained, 0);
  EXPECT_EQ(none.SnapshotAt(snaps.front()->generation()), nullptr);
  EXPECT_NE(none.SnapshotAt(snaps.back()->generation()), nullptr);

  // capacity = 2 keeps exactly the two newest retired generations.
  ClusterServer two(dim, {.history_capacity = 2});
  for (const auto& snap : snaps) two.Publish(snap);
  EXPECT_EQ(two.stats().generations_retained, 2);
  EXPECT_EQ(two.stats().history_evictions,
            static_cast<int64_t>(snaps.size()) - 1 - 2);
  const auto retained = two.SnapshotAt(snaps[snaps.size() - 2]->generation());
  ASSERT_NE(retained, nullptr);
  EXPECT_EQ(retained->shards, std::vector{snaps[snaps.size() - 2]});
  EXPECT_EQ(two.SnapshotAt(snaps.front()->generation()), nullptr);

  // Republishing the current snapshot is a no-op for the ring, whether as
  // the pinned generation or as the bare snapshot (a fresh one-shard
  // wrapper).
  ClusterServer eight(dim, {.history_capacity = 8});
  for (const auto& snap : snaps) eight.Publish(snap);
  const ServeStatsView before = eight.stats();
  EXPECT_GT(before.generations_retained, 0);
  eight.Publish(eight.snapshot());
  EXPECT_EQ(eight.stats().generations_retained, before.generations_retained);
  eight.Publish(snaps.back());
  const ServeStatsView after = eight.stats();
  EXPECT_EQ(after.generations_retained, before.generations_retained);
  EXPECT_EQ(after.history_evictions, before.history_evictions);
  EXPECT_EQ(after.history_ring_bytes, before.history_ring_bytes);
}

TEST(ServeHistoryTest, RollbackKeepsOneRingEntryPerGeneration) {
  // Republishing an older generation (a rollback) and then moving on
  // retires it a second time: its older ring entry is dropped first, so
  // the ring holds each generation once and the drop is no eviction.
  LabeledData data = Workload(480, 43);
  OnlineAlid online(data.data.dim(), StreamOptions(data));
  const auto snaps = SnapshotChain(data, online, 80);
  ASSERT_GE(snaps.size(), 4u);
  const int dim = data.data.dim();
  const std::vector<Scalar> probes = Probes(data, 30);
  const auto& g1 = snaps[0];
  std::vector<QueryOutcome> g1_serial;
  for (size_t q = 0; q < probes.size(); q += dim) {
    g1_serial.push_back(
        g1->Assign(std::span<const Scalar>(probes).subspan(q, dim)));
  }

  ClusterServer server(dim, {.history_capacity = 4});
  server.Publish(g1);
  server.Publish(snaps[1]);
  server.Publish(snaps[2]);
  server.Publish(g1);
  server.Publish(snaps[3]);
  const ServeStatsView stats = server.stats();
  EXPECT_EQ(stats.generations_retained, 3);
  EXPECT_EQ(stats.history_evictions, 0);
  const QueryResponse asof =
      server.Query({.points = probes, .generation = g1->generation()});
  ASSERT_EQ(asof.status, QueryStatus::kOk);
  EXPECT_EQ(asof.assignments, g1_serial);
  int64_t gauge = -1;
  for (const obs::MetricSample& m : server.metrics().Snapshot()) {
    if (m.name == "history_ring_bytes") gauge = m.value;
  }
  EXPECT_GT(stats.history_ring_bytes, 0);
  EXPECT_EQ(gauge, stats.history_ring_bytes);
}

TEST(ServeHistoryTest, RingEvictionUnderHotPublisherAndConcurrentReaders) {
  // The TSan leg: a publisher hammers Publish (retiring + evicting ring
  // entries) while readers time-travel across the whole generation range.
  // Every kOk answer must be bit-identical to the answers its snapshot gave
  // in isolation — eviction races can fail a lookup (typed status), never
  // corrupt one.
  LabeledData data = Workload(520, 29);
  OnlineAlid online(data.data.dim(), StreamOptions(data));
  const auto snaps = SnapshotChain(data, online, 64);
  ASSERT_GE(snaps.size(), 5u);
  const int dim = data.data.dim();
  const std::vector<Scalar> probes = Probes(data, 24);

  // Ground truth per generation, computed serially against each snapshot.
  std::unordered_map<uint64_t, std::vector<QueryOutcome>> truth;
  {
    ClusterServer oracle(dim, {.history_capacity = 0});
    for (const auto& snap : snaps) {
      oracle.Publish(snap);
      truth[snap->generation()] =
          oracle.Query({.points = probes}).assignments;
    }
  }

  ClusterServer server(dim, {.history_capacity = 2});
  server.Publish(snaps[0]);
  std::atomic<bool> done{false};
  std::atomic<bool> corrupt{false};
  std::atomic<bool> unknown_generation{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(100 + static_cast<uint64_t>(t));
      while (!done.load(std::memory_order_acquire)) {
        const auto& target = snaps[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int>(snaps.size()) - 1))];
        const uint64_t gen = target->generation();
        const QueryResponse response =
            server.Query({.points = probes, .generation = gen});
        if (response.status == QueryStatus::kOk) {
          if (response.generation != gen) unknown_generation.store(true);
          if (response.assignments != truth.at(gen)) corrupt.store(true);
        } else if (response.status != QueryStatus::kGenerationUnavailable) {
          unknown_generation.store(true);
        }
      }
    });
  }
  std::thread publisher([&] {
    for (int round = 0; round < 12; ++round) {
      for (const auto& snap : snaps) {
        server.Publish(snap);
        std::this_thread::yield();
      }
    }
    done.store(true, std::memory_order_release);
  });
  publisher.join();
  for (auto& reader : readers) reader.join();
  EXPECT_FALSE(corrupt.load());
  EXPECT_FALSE(unknown_generation.load());
  EXPECT_GT(server.stats().history_evictions, 0);
}

TEST(ServeHistoryTest, ConcurrentPublishersKeepAnswersAndRingBytesExact) {
  // Two publishers race over one ring (one walks the chain forward, one
  // backward) while readers time-travel. Each publish retires, evicts and
  // swaps under one exclusive lock, so every kOk answer is still its
  // snapshot's serial truth, and the final ring's byte gauge is exactly
  // what a fresh server reports for the same ring published serially.
  LabeledData data = Workload(520, 53);
  OnlineAlid online(data.data.dim(), StreamOptions(data));
  auto snaps = SnapshotChain(data, online, 64);
  ASSERT_GE(snaps.size(), 5u);
  AppendLocalizedTail(data, online, snaps, 3);  // blocks shared along
  const int dim = data.data.dim();
  const std::vector<Scalar> probes = Probes(data, 24);

  std::unordered_map<uint64_t, std::vector<QueryOutcome>> truth;
  std::unordered_map<uint64_t, std::vector<std::vector<ScoredCluster>>>
      truth_ranked;
  {
    ClusterServer oracle(dim, {.history_capacity = 0});
    for (const auto& snap : snaps) {
      oracle.Publish(snap);
      truth[snap->generation()] =
          oracle.Query({.points = probes}).assignments;
      truth_ranked[snap->generation()] =
          oracle.Query({.points = probes, .top_k = 3}).ranked;
    }
  }

  const int capacity = 4;
  ClusterServer server(dim, {.history_capacity = capacity});
  server.Publish(snaps[0]);
  std::atomic<int> publishing{2};
  std::atomic<bool> corrupt{false};
  std::atomic<bool> bad_status{false};
  std::atomic<int64_t> answered{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(300 + static_cast<uint64_t>(t));
      while (publishing.load(std::memory_order_acquire) > 0) {
        const uint64_t gen =
            snaps[static_cast<size_t>(rng.UniformInt(
                      0, static_cast<int>(snaps.size()) - 1))]
                ->generation();
        const bool ranked = rng.UniformInt(0, 1) == 1;
        const QueryResponse response = server.Query(
            {.points = probes, .top_k = ranked ? 3 : 0, .generation = gen});
        if (response.status == QueryStatus::kOk) {
          answered.fetch_add(1);
          if (response.generation != gen ||
              (ranked ? response.ranked != truth_ranked.at(gen)
                      : response.assignments != truth.at(gen))) {
            corrupt.store(true);
          }
        } else if (response.status != QueryStatus::kGenerationUnavailable) {
          bad_status.store(true);
        }
      }
    });
  }
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      for (int round = 0; round < 8; ++round) {
        for (size_t i = 0; i < snaps.size(); ++i) {
          server.Publish(snaps[p == 0 ? i : snaps.size() - 1 - i]);
          std::this_thread::yield();
        }
      }
      // On a loaded host the rounds can end before any reader is
      // scheduled; the readers get up to 10 s to answer one request.
      WaitForAnAnswer(answered);
      publishing.fetch_sub(1, std::memory_order_release);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(corrupt.load());
  EXPECT_FALSE(bad_status.load());
  EXPECT_GT(answered.load(), 0);

  const ServeStatsView stats = server.stats();
  EXPECT_LE(stats.generations_retained, capacity);
  EXPECT_GT(stats.history_evictions, 0);
  // The final ring, published serially into a fresh server: the retained
  // generations (ring order does not change the byte total), then the
  // current one. A ring entry of the current generation holds the current
  // snapshot itself, so it adds no bytes either way.
  const auto current = server.snapshot();
  ASSERT_NE(current, nullptr);
  ClusterServer serial(dim, {.history_capacity = capacity});
  for (const auto& snap : snaps) {
    if (snap->generation() != current->generation &&
        server.SnapshotAt(snap->generation()) != nullptr) {
      serial.Publish(snap);
    }
  }
  serial.Publish(current);
  EXPECT_GT(stats.history_ring_bytes, 0);
  EXPECT_EQ(stats.history_ring_bytes, serial.stats().history_ring_bytes);
}

TEST(ServeHistoryTest, AsOfReadersWhileThePublisherCrossesACompaction) {
  // Eight planted clusters: localized publishes chain on one shared base
  // with a delta, a spread publish compacts, and the chain starts again.
  // Readers time-travel over a capacity-8 ring while a publisher replays
  // the sequence, so ring entries of a chained base, of the compacted one
  // and of both chains coexist and die under live readers (the TSan leg);
  // every kOk answer must be its snapshot's serial truth.
  LabeledData data = Workload(640, 71, /*num_clusters=*/8);
  OnlineAlid online(data.data.dim(), StreamOptions(data));
  auto snaps = SnapshotChain(data, online, 80);
  ASSERT_GE(snaps.size(), 2u);
  const size_t head = snaps.size();
  AppendLocalizedTail(data, online, snaps, 3);
  AppendSpreadBatch(data, online, snaps);
  AppendLocalizedTail(data, online, snaps, 3);
  // The sequence crosses a compaction: a generation chained on a non-empty
  // base, then one with a fresh base, then a chain on that one.
  bool crossed = false;
  for (size_t i = head; i + 2 < snaps.size(); ++i) {
    if (ChainedWithContent(*snaps[i - 1], *snaps[i]) &&
        !SharesBase(*snaps[i], *snaps[i + 1]) &&
        SharesBase(*snaps[i + 1], *snaps[i + 2])) {
      crossed = true;
    }
  }
  ASSERT_TRUE(crossed);
  const int dim = data.data.dim();
  const std::vector<Scalar> probes = Probes(data, 24);

  std::unordered_map<uint64_t, std::vector<QueryOutcome>> truth;
  std::unordered_map<uint64_t, std::vector<std::vector<ScoredCluster>>>
      truth_ranked;
  for (const auto& snap : snaps) {
    ClusterServer oracle(dim, {.history_capacity = 0});
    oracle.Publish(snap);
    truth[snap->generation()] = oracle.Query({.points = probes}).assignments;
    truth_ranked[snap->generation()] =
        oracle.Query({.points = probes, .top_k = 3}).ranked;
  }

  ClusterServer server(dim, {.history_capacity = 8});
  server.Publish(snaps[0]);
  std::atomic<bool> done{false};
  std::atomic<bool> corrupt{false};
  std::atomic<bool> bad_status{false};
  std::atomic<int64_t> answered{0};
  // Readers address mostly the tail, where the chains and the compaction
  // are.
  const int64_t tail = static_cast<int64_t>(head) - 1;
  const int64_t last = static_cast<int64_t>(snaps.size()) - 1;
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(500 + static_cast<uint64_t>(t));
      while (!done.load(std::memory_order_acquire)) {
        const int64_t first = rng.UniformInt(0, 3) == 0 ? 0 : tail;
        const size_t pick = static_cast<size_t>(rng.UniformInt(first, last));
        const uint64_t gen = snaps[pick]->generation();
        const bool ranked = rng.UniformInt(0, 1) == 1;
        const QueryResponse response = server.Query(
            {.points = probes, .top_k = ranked ? 3 : 0, .generation = gen});
        if (response.status == QueryStatus::kOk) {
          answered.fetch_add(1);
          if (response.generation != gen ||
              (ranked ? response.ranked != truth_ranked.at(gen)
                      : response.assignments != truth.at(gen))) {
            corrupt.store(true);
          }
        } else if (response.status != QueryStatus::kGenerationUnavailable) {
          bad_status.store(true);
        }
      }
    });
  }
  std::thread publisher([&] {
    for (int round = 0; round < 10; ++round) {
      for (const auto& snap : snaps) {
        server.Publish(snap);
        std::this_thread::yield();
      }
    }
    // On a loaded host the rounds can end before any reader is scheduled.
    WaitForAnAnswer(answered);
    done.store(true, std::memory_order_release);
  });
  publisher.join();
  for (auto& reader : readers) reader.join();
  EXPECT_FALSE(corrupt.load());
  EXPECT_FALSE(bad_status.load());
  EXPECT_GT(answered.load(), 0);
  EXPECT_GT(server.stats().history_evictions, 0);
  // The last round left the tail in the ring: its byte gauge counts each
  // shared base once.
  const std::span<const std::shared_ptr<const ClusterSnapshot>> ring(
      snaps.data() + snaps.size() - 9, 8);
  int64_t block_bytes = 0;
  std::unordered_set<const ClusterBlock*> counted;
  for (const auto& block : snaps.back()->blocks()) counted.insert(block.get());
  for (const auto& snap : ring) {
    for (const auto& block : snap->blocks()) {
      if (counted.insert(block.get()).second) {
        block_bytes += static_cast<int64_t>(block->MemoryBytes());
      }
    }
  }
  EXPECT_EQ(server.stats().history_ring_bytes,
            block_bytes + RingCandidateBytes(ring, *snaps.back()));
}

TEST(ServeHistoryTest, ArenaAccountingSharesBlocksAndReturnsToBaseline) {
  const int64_t arena_baseline = SnapshotArenaTracker().current_bytes();
  const int64_t global_baseline = MemoryTracker::Global().current_bytes();
  // Four planted clusters compact on every changed publish; eight chain
  // the localized tail on one shared candidate base.
  bool ring_shared_a_base = false;
  for (const int planted : {4, 8}) {
    SCOPED_TRACE(testing::Message() << planted << " planted clusters");
    LabeledData data = Workload(520, 61, planted);
    auto online = std::make_unique<OnlineAlid>(data.data.dim(),
                                               StreamOptions(data));
    auto snaps = SnapshotChain(data, *online, 80);
    ASSERT_GE(snaps.size(), 3u);
    AppendLocalizedTail(data, *online, snaps, 3);

    // The arena space charges each block exactly once, however many
    // snapshots share it: live arena bytes == unique block bytes.
    std::unordered_set<const ClusterBlock*> unique_blocks;
    int64_t unique_bytes = 0;
    int64_t total_bytes = 0;
    for (const auto& snap : snaps) {
      for (const auto& block : snap->blocks()) {
        total_bytes += static_cast<int64_t>(block->MemoryBytes());
        if (unique_blocks.insert(block.get()).second) {
          unique_bytes += static_cast<int64_t>(block->MemoryBytes());
        }
      }
    }
    EXPECT_EQ(SnapshotArenaTracker().current_bytes() - arena_baseline,
              unique_bytes);
    // Sharing is real: the chain references more block-bytes than it owns.
    EXPECT_LT(unique_bytes, total_bytes);

    // Each snapshot's build ledger balances: shared + copied == its blocks.
    for (const auto& snap : snaps) {
      int64_t blocks_bytes = 0;
      for (const auto& block : snap->blocks()) {
        blocks_bytes += static_cast<int64_t>(block->MemoryBytes());
      }
      EXPECT_EQ(snap->build_info().bytes_shared +
                    snap->build_info().bytes_copied,
                blocks_bytes);
    }
    // Steady-state incremental publish shares most of its bytes.
    EXPECT_GT(snaps.back()->build_info().bytes_shared, 0);

    // A re-export of the unchanged stream shares every block, the query
    // hasher and the predecessor's candidate base, so the only bytes it
    // adds to the global tracker are its own delta and base-position map:
    // candidate_key_bytes() is exactly that charge (0 when the predecessor
    // is compact), and dropping the snapshot returns it.
    {
      const int64_t before = MemoryTracker::Global().current_bytes();
      auto again = ClusterSnapshot::FromStream(*online, nullptr, snaps.back());
      ASSERT_EQ(again->build_info().clusters_reused, again->num_clusters());
      EXPECT_TRUE(SharesBase(*snaps.back(), *again));
      EXPECT_EQ(again->candidate_key_bytes(),
                snaps.back()->candidate_key_bytes());
      EXPECT_EQ(MemoryTracker::Global().current_bytes() - before,
                static_cast<int64_t>(again->candidate_key_bytes()));
      again.reset();
      EXPECT_EQ(MemoryTracker::Global().current_bytes(), before);
    }

    // A server ring holds references, not copies: publishing the whole
    // chain adds nothing to the arena.
    ClusterServer server(data.data.dim(), {.history_capacity = 4});
    for (const auto& snap : snaps) server.Publish(snap);
    EXPECT_EQ(SnapshotArenaTracker().current_bytes() - arena_baseline,
              unique_bytes);
    // The ring gauge is exactly what the four retained generations hold
    // beyond the current one: their unshared blocks (each counted once),
    // their own candidate bytes and each candidate base the current
    // generation does not share, once.
    ASSERT_GE(snaps.size(), 5u);
    const std::span<const std::shared_ptr<const ClusterSnapshot>> ring(
        snaps.data() + snaps.size() - 5, 4);
    std::unordered_set<const ClusterBlock*> counted;
    for (const auto& block : snaps.back()->blocks()) {
      counted.insert(block.get());
    }
    int64_t ring_bytes = RingCandidateBytes(ring, *snaps.back());
    for (const auto& snap : ring) {
      ring_shared_a_base =
          ring_shared_a_base || SharesBase(*snap, *snaps.back());
      for (const auto& block : snap->blocks()) {
        if (counted.insert(block.get()).second) {
          ring_bytes += static_cast<int64_t>(block->MemoryBytes());
        }
      }
    }
    EXPECT_GT(server.stats().history_ring_bytes, 0);
    EXPECT_EQ(server.stats().history_ring_bytes, ring_bytes);
  }
  EXPECT_TRUE(ring_shared_a_base);
  // Everything torn down (streams, snapshots, server rings): both resource
  // spaces return to their pre-test baselines — no leaked charges, no
  // leaked blocks or bases (the ASan leg verifies the allocations
  // themselves).
  EXPECT_EQ(SnapshotArenaTracker().current_bytes(), arena_baseline);
  EXPECT_EQ(MemoryTracker::Global().current_bytes(), global_baseline);
}

TEST(ServeHistoryTest, RingBytesCountRetainedCandidateDirectories) {
  // A retained generation holds its own candidate bytes (delta, key filter
  // and base-position map) and a candidate base besides the blocks the
  // current snapshot no longer references; the ring gauge counts all of
  // them exactly, the base only when the current snapshot does not share
  // it. Four planted clusters compact the newer generation (the older
  // base is retained); eight chain it on the older one's base.
  for (const int planted : {4, 8}) {
    SCOPED_TRACE(testing::Message() << planted << " planted clusters");
    LabeledData data = Workload(520, 61, planted);
    OnlineAlid online(data.data.dim(), StreamOptions(data));
    auto snaps = SnapshotChain(data, online, 80);
    ASSERT_GE(snaps.size(), 2u);
    AppendLocalizedTail(data, online, snaps, 1);
    const auto& older = snaps[snaps.size() - 2];
    const auto& newer = snaps.back();
    ASSERT_GT(older->num_clusters(), 0);
    EXPECT_EQ(SharesBase(*older, *newer), planted == 8);
    std::unordered_set<const ClusterBlock*> current;
    for (const auto& block : newer->blocks()) current.insert(block.get());
    int64_t block_bytes = 0;  // blocks only `older` references
    for (const auto& block : older->blocks()) {
      if (current.count(block.get()) == 0) {
        block_bytes += static_cast<int64_t>(block->MemoryBytes());
      }
    }
    const int64_t base_bytes =
        SharesBase(*older, *newer)
            ? 0
            : static_cast<int64_t>(older->candidate_base().MemoryBytes());

    ClusterServer server(data.data.dim(), {.history_capacity = 1});
    server.Publish(older);
    server.Publish(newer);
    const ServeStatsView stats = server.stats();
    EXPECT_EQ(stats.generations_retained, 1);
    EXPECT_GT(older->candidate_base().MemoryBytes(), 0u);
    EXPECT_EQ(stats.history_ring_bytes,
              block_bytes + base_bytes +
                  static_cast<int64_t>(older->candidate_key_bytes()));
  }
}

TEST(ServeHistoryTest, GenerationDiffReportsBirthsDeathsAndDrift) {
  LabeledData data = Workload(520, 47);
  OnlineAlid online(data.data.dim(), StreamOptions(data));
  const auto snaps = SnapshotChain(data, online, 80);
  ASSERT_GE(snaps.size(), 3u);
  ClusterServer server(data.data.dim(), {.history_capacity = 16});
  for (const auto& snap : snaps) server.Publish(snap);

  const auto& from = snaps.front();
  const auto& to = snaps.back();
  const GenerationDiffResult diff =
      server.GenerationDiff(from->generation(), to->generation());
  ASSERT_TRUE(diff.ok);
  EXPECT_EQ(diff.from, from->generation());
  EXPECT_EQ(diff.to, to->generation());
  // Every cluster of both sides is accounted for exactly once.
  EXPECT_EQ(static_cast<int>(diff.deaths.size() + diff.drifted.size()) +
                diff.unchanged,
            from->num_clusters());
  EXPECT_EQ(static_cast<int>(diff.births.size() + diff.drifted.size()) +
                diff.unchanged,
            to->num_clusters());
  for (const ClusterDrift& b : diff.births) {
    EXPECT_EQ(b.cluster_from, -1);
    EXPECT_GE(b.cluster_to, 0);
    EXPECT_GT(b.size_to, 0);
  }
  for (const ClusterDrift& d : diff.deaths) {
    EXPECT_EQ(d.cluster_to, -1);
    EXPECT_GE(d.cluster_from, 0);
  }
  for (const ClusterDrift& m : diff.drifted) {
    EXPECT_GE(m.cluster_from, 0);
    EXPECT_GE(m.cluster_to, 0);
    EXPECT_NE(m.uid, 0u);
  }
  // Unchanged clusters are exactly the ones whose blocks the two snapshots
  // share — the metadata diff and the arena ledger tell one story.
  std::unordered_set<const ClusterBlock*> from_blocks;
  for (const auto& block : from->blocks()) from_blocks.insert(block.get());
  int shared = 0;
  for (const auto& block : to->blocks()) {
    shared += from_blocks.count(block.get()) > 0 ? 1 : 0;
  }
  EXPECT_EQ(shared, diff.unchanged);

  // Self-diff: everything unchanged. 0 addresses the current snapshot.
  const GenerationDiffResult self = server.GenerationDiff(0, 0);
  ASSERT_TRUE(self.ok);
  EXPECT_EQ(self.unchanged, to->num_clusters());
  EXPECT_TRUE(self.births.empty());
  EXPECT_TRUE(self.deaths.empty());
  EXPECT_TRUE(self.drifted.empty());
  // An unaddressable side fails typed, with empty vectors.
  const GenerationDiffResult bad =
      server.GenerationDiff(0xdeadbeefULL, to->generation());
  EXPECT_FALSE(bad.ok);
  EXPECT_TRUE(bad.births.empty());
}

}  // namespace
}  // namespace alid

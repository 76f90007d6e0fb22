// Tests of the snapshot's candidate directory: for every key vector, the
// clusters it marks must be exactly the clusters a brute-force scan over
// the (table, key, cluster) entries finds.
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/epoch_stamp.h"
#include "common/random.h"
#include "serve/candidate_directory.h"
#include "serve/snapshot_arena.h"

namespace alid {
namespace {

constexpr uint64_t kMaxKey = std::numeric_limits<uint64_t>::max();

// Per-cluster bucket lists: entries[c] are cluster c's (table, key) pairs.
using Entries = std::vector<std::vector<BucketKey>>;

CandidateDirectory Build(int tables, const Entries& entries) {
  std::vector<std::span<const BucketKey>> spans(entries.begin(), entries.end());
  return CandidateDirectory(tables, spans);
}

std::vector<int> Marked(const CandidateDirectory& dir, int clusters,
                        const std::vector<uint64_t>& keys) {
  EpochStamp marks;
  marks.Begin(static_cast<size_t>(clusters));
  dir.Mark(keys, &marks);
  std::vector<int> out;
  for (int c = 0; c < clusters; ++c) {
    if (marks.IsMarked(static_cast<size_t>(c))) out.push_back(c);
  }
  return out;
}

std::vector<int> BruteForce(const Entries& entries,
                            const std::vector<uint64_t>& keys) {
  std::vector<int> out;
  for (size_t c = 0; c < entries.size(); ++c) {
    for (const BucketKey& b : entries[c]) {
      if (keys[static_cast<size_t>(b.table)] == b.key) {
        out.push_back(static_cast<int>(c));
        break;
      }
    }
  }
  return out;
}

// Probes the directory with key vectors built from the entries (every
// entry's key in its own table, the other tables on random or foreign
// keys) plus fully random ones, and compares each with the brute force.
// Returns the number of probes that marked something, so a case can insist
// it exercised hits and not only misses.
int ExpectMatchesBruteForce(int tables, const Entries& entries, uint64_t seed) {
  const CandidateDirectory dir = Build(tables, entries);
  const int clusters = static_cast<int>(entries.size());
  Rng rng(seed);
  const auto random_key = [&] { return rng.engine()(); };
  std::vector<BucketKey> all;
  for (const auto& buckets : entries) {
    all.insert(all.end(), buckets.begin(), buckets.end());
  }
  std::vector<std::vector<uint64_t>> probes;
  for (const BucketKey& b : all) {
    std::vector<uint64_t> keys(static_cast<size_t>(tables));
    for (auto& k : keys) k = random_key();
    keys[static_cast<size_t>(b.table)] = b.key;
    probes.push_back(keys);
    // The same key under every table: hits only where it was filed.
    probes.emplace_back(static_cast<size_t>(tables), b.key);
    // Every table on some entry's key, whatever table that entry is in.
    if (!all.empty()) {
      for (auto& k : keys) {
        k = all[static_cast<size_t>(
                    rng.UniformInt(0, static_cast<int64_t>(all.size()) - 1))]
                .key;
      }
      probes.push_back(keys);
    }
  }
  for (int i = 0; i < 64; ++i) {
    std::vector<uint64_t> keys(static_cast<size_t>(tables));
    for (auto& k : keys) k = random_key();
    probes.push_back(keys);
  }
  int hits = 0;
  for (const auto& keys : probes) {
    const std::vector<int> want = BruteForce(entries, keys);
    EXPECT_EQ(Marked(dir, clusters, keys), want);
    hits += want.empty() ? 0 : 1;
  }
  return hits;
}

TEST(CandidateDirectoryTest, ZeroEntriesMarkNothing) {
  const std::vector<uint64_t> keys = {0, 7, kMaxKey};
  for (const Entries& entries : {Entries{}, Entries(5)}) {
    const CandidateDirectory dir = Build(3, entries);
    EXPECT_EQ(dir.MemoryBytes(), 0u);
    EXPECT_TRUE(Marked(dir, static_cast<int>(entries.size()), keys).empty());
    EXPECT_EQ(ExpectMatchesBruteForce(3, entries, 1), 0);
  }
}

TEST(CandidateDirectoryTest, KeysSharingTheirTopBitsShareOneSlot) {
  // 40 bits of common prefix: however many slots the entry count buys,
  // every key lands in the same one, so a probe must compare its way
  // through the whole slot.
  const uint64_t prefix = 0xabcdef1234ull << 24;
  Entries entries(50);
  for (int c = 0; c < 50; ++c) {
    for (int i = 0; i < 6; ++i) {
      entries[static_cast<size_t>(c)].push_back(
          {0, prefix | static_cast<uint64_t>(c * 6 + i)});
    }
  }
  EXPECT_GT(ExpectMatchesBruteForce(1, entries, 2), 0);
  // A key with the shared prefix that no cluster holds marks nothing.
  const CandidateDirectory dir = Build(1, entries);
  EXPECT_TRUE(Marked(dir, 50, {prefix | 0xfffff}).empty());
}

TEST(CandidateDirectoryTest, ExtremeKeysLandInTheEdgeSlots) {
  // Enough filler entries for many slots per table, so 0 and 2^64 - 1 sit
  // in a table's first and last slot.
  Rng rng(3);
  Entries entries(40);
  for (int c = 0; c < 40; ++c) {
    for (int t = 0; t < 2; ++t) {
      for (int i = 0; i < 8; ++i) {
        entries[static_cast<size_t>(c)].push_back({t, rng.engine()()});
      }
    }
  }
  const uint64_t edges[] = {0, 1, (1ull << 63) - 1, 1ull << 63, kMaxKey - 1,
                            kMaxKey};
  for (int e = 0; e < 6; ++e) {
    entries[static_cast<size_t>(e)].push_back({e % 2, edges[e]});
    entries[static_cast<size_t>(39 - e)].push_back({(e + 1) % 2, edges[e]});
  }
  EXPECT_GT(ExpectMatchesBruteForce(2, entries, 4), 0);
  const CandidateDirectory dir = Build(2, entries);
  EXPECT_EQ(Marked(dir, 40, {0, 0}), (std::vector<int>{0, 39}));
  EXPECT_EQ(Marked(dir, 40, {kMaxKey, kMaxKey}), (std::vector<int>{5, 34}));
  EXPECT_EQ(Marked(dir, 40, {kMaxKey, 0}), (std::vector<int>{34, 39}));
}

TEST(CandidateDirectoryTest, OneBucketHeldBySeveralClustersMarksThemAll) {
  Entries entries(9);
  for (const int c : {1, 4, 7, 8}) {
    entries[static_cast<size_t>(c)].push_back({1, 0x5555});
  }
  entries[0].push_back({0, 0x5555});
  entries[2].push_back({1, 0x5556});
  EXPECT_GT(ExpectMatchesBruteForce(2, entries, 5), 0);
  const CandidateDirectory dir = Build(2, entries);
  EXPECT_EQ(Marked(dir, 9, {0x1234, 0x5555}), (std::vector<int>{1, 4, 7, 8}));
}

TEST(CandidateDirectoryTest, AKeyMarksOnlyInItsOwnTable) {
  const uint64_t key = 0x9e3779b97f4a7c15ull;
  Entries entries = {{{0, key}}, {{1, key}}, {{2, 42}}};
  const CandidateDirectory dir = Build(3, entries);
  EXPECT_EQ(Marked(dir, 3, {key, 1, 1}), (std::vector<int>{0}));
  EXPECT_EQ(Marked(dir, 3, {1, key, 1}), (std::vector<int>{1}));
  EXPECT_EQ(Marked(dir, 3, {key, key, key}), (std::vector<int>{0, 1}));
  EXPECT_EQ(Marked(dir, 3, {1, 1, key}), (std::vector<int>{}));
  EXPECT_GT(ExpectMatchesBruteForce(3, entries, 6), 0);
}

TEST(CandidateDirectoryTest, TablesWithVeryDifferentEntryCounts) {
  // Table 0 holds 2000 entries, table 1 one, table 2 none and table 3 sixty:
  // the slot count follows the mean, so table 0's slots run long and the
  // others' mostly empty.
  Rng rng(7);
  Entries entries(30);
  const int per_table[] = {2000, 1, 0, 60};
  for (int t = 0; t < 4; ++t) {
    for (int i = 0; i < per_table[t]; ++i) {
      entries[static_cast<size_t>(rng.UniformInt(0, 29))].push_back(
          {t, rng.engine()()});
    }
  }
  EXPECT_GT(ExpectMatchesBruteForce(4, entries, 8), 0);
}

TEST(CandidateDirectoryTest, RandomEntriesMatchBruteForce) {
  // Random cluster counts, table counts and bucket sharing: a key drawn
  // from a small pool is shared by several clusters and several tables.
  Rng rng(9);
  for (int round = 0; round < 20; ++round) {
    const int tables = static_cast<int>(rng.UniformInt(1, 12));
    const int clusters = static_cast<int>(rng.UniformInt(1, 60));
    std::vector<uint64_t> pool(static_cast<size_t>(rng.UniformInt(1, 200)));
    for (auto& k : pool) k = rng.engine()();
    const int64_t last = static_cast<int64_t>(pool.size()) - 1;
    Entries entries(static_cast<size_t>(clusters));
    for (auto& buckets : entries) {
      const int count = static_cast<int>(rng.UniformInt(0, 3 * tables));
      for (int i = 0; i < count; ++i) {
        const int table = static_cast<int>(rng.UniformInt(0, tables - 1));
        const size_t key = static_cast<size_t>(rng.UniformInt(0, last));
        buckets.push_back({table, pool[key]});
      }
    }
    SCOPED_TRACE(testing::Message() << "round " << round);
    ExpectMatchesBruteForce(tables, entries, 100 + round);
  }
}

TEST(CandidateDirectoryDeathTest, MarkRejectsAWrongKeyCount) {
  const Entries entries = {{{0, 1}, {1, 2}}};
  const CandidateDirectory dir = Build(2, entries);
  EpochStamp marks;
  marks.Begin(1);
  const std::vector<uint64_t> one = {1};
  const std::vector<uint64_t> three = {1, 2, 3};
  EXPECT_DEATH(dir.Mark(one, &marks), "ALID_CHECK");
  EXPECT_DEATH(dir.Mark(three, &marks), "ALID_CHECK");
}

}  // namespace
}  // namespace alid

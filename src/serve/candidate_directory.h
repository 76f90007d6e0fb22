#ifndef ALID_SERVE_CANDIDATE_DIRECTORY_H_
#define ALID_SERVE_CANDIDATE_DIRECTORY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/epoch_stamp.h"
#include "serve/snapshot_arena.h"

namespace alid {

/// A snapshot's candidate lookup: which clusters hold a given LSH bucket.
/// Built once from every cluster's distinct (table, key) buckets; a query
/// then marks the clusters of its keys, one key per table.
///
/// Layout (table-major, private to this class): each table owns S slots, S
/// a power of two shared by all tables, and a key lives in the slot named
/// by its top log2(S) bits. A slot's entries are contiguous in two parallel
/// arrays, 8-byte keys and 4-byte cluster ids, delimited by a slot-offset
/// array; one counting pass over the entries places them, in input order
/// within a slot. S is the smallest power of two above half the mean entry
/// count per table, so a slot holds one to two entries on average and a
/// query reads one short slot per table instead of binary-searching.
///
/// Chained snapshots (cluster_snapshot.h) split the lookup in two: a base
/// directory shared by several generations, whose cluster ids are *base
/// positions* that each generation maps to its own cluster ids, and a small
/// per-generation delta over the clusters the base does not hold. A delta is
/// built with a key filter (512 bits per table over bits 32..40 of its
/// keys), so the fused lookup (MarkWithDelta) skips the delta's slot for
/// most keys. Immutable after construction; Mark and MarkWithDelta are safe
/// for concurrent readers.
class CandidateDirectory {
 public:
  /// An empty directory over no tables.
  CandidateDirectory() = default;

  /// `clusters[c]` lists cluster c's buckets, each table in
  /// [0, num_tables). A (table, key) pair may appear under several clusters.
  /// `key_filter` adds the per-table key filter a delta is probed through.
  CandidateDirectory(int num_tables,
                     std::span<const std::span<const BucketKey>> clusters,
                     bool key_filter = false);

  /// Marks in `marks` every cluster that holds bucket (t, keys[t]) for some
  /// table t. Dies unless keys.size() is the table count. Does not Begin
  /// `marks`: the caller sizes it to the cluster count.
  void Mark(std::span<const uint64_t> keys, EpochStamp* marks) const;

  /// The fused lookup of a base and a delta, one pass over the tables: for
  /// each table t, marks ids[p] for every base position p holding bucket
  /// (t, keys[t]) (nothing when ids[p] < 0), then, when `delta` may hold
  /// that bucket, every delta cluster that does, under its own id. Dies
  /// unless keys.size() is the table count of both directories and
  /// ids.size() is this directory's cluster count. Does not Begin `marks`.
  void MarkWithDelta(std::span<const uint64_t> keys,
                     std::span<const int32_t> ids,
                     const CandidateDirectory& delta,
                     EpochStamp* marks) const;

  int num_tables() const { return num_tables_; }
  /// Clusters the directory was built over (base positions, for a base).
  int num_clusters() const { return num_clusters_; }
  /// (table, key, cluster) entries filed.
  size_t entries() const { return keys_.size(); }

  /// Bytes of the slot offsets, the keys, the cluster ids and the key
  /// filter.
  size_t MemoryBytes() const {
    return slot_begin_.size() * sizeof(uint32_t) +
           keys_.size() * sizeof(uint64_t) +
           clusters_.size() * sizeof(int32_t) +
           filter_.size() * sizeof(uint64_t);
  }

 private:
  // The key filter: kFilterBits bits per table, indexed by bits
  // [kFilterShift, kFilterShift + 9) of the key — bits the slot index (the
  // top bits) leaves to chance.
  static constexpr int kFilterShift = 32;
  static constexpr uint64_t kFilterBits = 512;
  static constexpr size_t kFilterWords = kFilterBits / 64;

  // Index of bucket (table, key)'s slot. The double shift keeps a
  // zero-bit (one-slot) directory defined: it maps every key to slot 0.
  size_t Slot(int table, uint64_t key) const {
    return (static_cast<size_t>(table) << slot_bits_) +
           static_cast<size_t>((key >> 1) >> (63 - slot_bits_));
  }

  // Word and bit of (table, key) in the key filter.
  static size_t FilterWord(int table, uint64_t key) {
    return static_cast<size_t>(table) * kFilterWords +
           static_cast<size_t>(((key >> kFilterShift) % kFilterBits) / 64);
  }
  static uint64_t FilterMask(uint64_t key) {
    return uint64_t{1} << ((key >> kFilterShift) % 64);
  }

  // False only when bucket (table, key) is surely absent: no entries, or
  // the key filter's bit is clear.
  bool MayHold(int table, uint64_t key) const {
    if (keys_.empty()) return false;
    return filter_.empty() ||
           (filter_[FilterWord(table, key)] & FilterMask(key)) != 0;
  }

  int num_tables_ = 0;
  int num_clusters_ = 0;
  int slot_bits_ = 0;  // log2(S)
  // Slot s holds entries [slot_begin_[s], slot_begin_[s + 1]); empty when
  // there are no entries.
  std::vector<uint32_t> slot_begin_;
  std::vector<uint64_t> keys_;
  std::vector<int32_t> clusters_;
  // kFilterWords words per table; empty without a filter or entries.
  std::vector<uint64_t> filter_;
};

}  // namespace alid

#endif  // ALID_SERVE_CANDIDATE_DIRECTORY_H_

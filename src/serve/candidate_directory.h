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
/// Immutable after construction; Mark is safe for concurrent readers.
class CandidateDirectory {
 public:
  /// An empty directory over no tables.
  CandidateDirectory() = default;

  /// `clusters[c]` lists cluster c's buckets, each table in
  /// [0, num_tables). A (table, key) pair may appear under several clusters.
  CandidateDirectory(int num_tables,
                     std::span<const std::span<const BucketKey>> clusters);

  /// Marks in `marks` every cluster that holds bucket (t, keys[t]) for some
  /// table t. Dies unless keys.size() is the table count. Does not Begin
  /// `marks`: the caller sizes it to the cluster count.
  void Mark(std::span<const uint64_t> keys, EpochStamp* marks) const;

  /// Bytes of the slot offsets, the keys and the cluster ids.
  size_t MemoryBytes() const {
    return slot_begin_.size() * sizeof(uint32_t) +
           keys_.size() * sizeof(uint64_t) + clusters_.size() * sizeof(int32_t);
  }

 private:
  // Index of bucket (table, key)'s slot. The double shift keeps a
  // zero-bit (one-slot) directory defined: it maps every key to slot 0.
  size_t Slot(int table, uint64_t key) const {
    return (static_cast<size_t>(table) << slot_bits_) +
           static_cast<size_t>((key >> 1) >> (63 - slot_bits_));
  }

  int num_tables_ = 0;
  int slot_bits_ = 0;  // log2(S)
  // Slot s holds entries [slot_begin_[s], slot_begin_[s + 1]); empty when
  // there are no entries.
  std::vector<uint32_t> slot_begin_;
  std::vector<uint64_t> keys_;
  std::vector<int32_t> clusters_;
};

}  // namespace alid

#endif  // ALID_SERVE_CANDIDATE_DIRECTORY_H_

#include "serve/candidate_directory.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.h"

namespace alid {

CandidateDirectory::CandidateDirectory(
    int num_tables, std::span<const std::span<const BucketKey>> clusters)
    : num_tables_(num_tables) {
  ALID_CHECK(num_tables > 0);
  ALID_CHECK(clusters.size() <=
             static_cast<size_t>(std::numeric_limits<int32_t>::max()));
  size_t entries = 0;
  for (const std::span<const BucketKey> buckets : clusters) {
    entries += buckets.size();
  }
  if (entries == 0) return;
  ALID_CHECK(entries < std::numeric_limits<uint32_t>::max());
  slot_bits_ = std::bit_width(entries / (2 * static_cast<size_t>(num_tables)));
  slot_begin_.assign((static_cast<size_t>(num_tables) << slot_bits_) + 1, 0);
  // Count each slot's entries one position ahead, so the prefix sum leaves
  // slot s's first entry in slot_begin_[s].
  for (const std::span<const BucketKey> buckets : clusters) {
    for (const BucketKey& b : buckets) {
      ALID_CHECK(b.table >= 0 && b.table < num_tables);
      ++slot_begin_[Slot(b.table, b.key) + 1];
    }
  }
  for (size_t s = 1; s < slot_begin_.size(); ++s) {
    slot_begin_[s] += slot_begin_[s - 1];
  }
  // Scatter in input order, advancing each slot's start as its cursor; the
  // cursors end at the next slot's start, so shifting them right by one
  // restores the starts.
  keys_.resize(entries);
  clusters_.resize(entries);
  for (size_t c = 0; c < clusters.size(); ++c) {
    for (const BucketKey& b : clusters[c]) {
      const uint32_t at = slot_begin_[Slot(b.table, b.key)]++;
      keys_[at] = b.key;
      clusters_[at] = static_cast<int32_t>(c);
    }
  }
  std::shift_right(slot_begin_.begin(), slot_begin_.end(), 1);
  slot_begin_[0] = 0;
}

void CandidateDirectory::Mark(std::span<const uint64_t> keys,
                              EpochStamp* marks) const {
  ALID_CHECK(static_cast<int>(keys.size()) == num_tables_);
  if (keys_.empty()) return;
  for (int t = 0; t < num_tables_; ++t) {
    const uint64_t key = keys[static_cast<size_t>(t)];
    const size_t s = Slot(t, key);
    for (uint32_t i = slot_begin_[s]; i < slot_begin_[s + 1]; ++i) {
      if (keys_[i] == key) marks->Mark(static_cast<size_t>(clusters_[i]));
    }
  }
}

}  // namespace alid

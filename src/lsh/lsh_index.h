#ifndef ALID_LSH_LSH_INDEX_H_
#define ALID_LSH_LSH_INDEX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/dataset.h"
#include "common/memory_tracker.h"
#include "common/types.h"

namespace alid {

/// Parameters of the p-stable LSH scheme of Datar et al. (SoCG 2004), the
/// index behind CIVS (Section 4.3) and the baselines' matrix sparsifier
/// (Section 5.1).
struct LshParams {
  /// Number of hash tables (the paper's l; Fig. 6 uses 50).
  int num_tables = 8;
  /// Projections concatenated per hash value (the paper's mu; Fig. 6 uses 40).
  int num_projections = 12;
  /// Length r of the equally divided segments of the projected real line.
  /// Controls recall and the induced sparse degree (Fig. 6's x axis).
  double segment_length = 1.0;
  /// Seed for the Gaussian projections and offsets.
  uint64_t seed = 42;
};

/// p-stable (Gaussian, hence L2) locality sensitive hash index over a
/// Dataset. Each item is hashed into one bucket per table; a query returns
/// the union of its buckets (its Locality Sensitive Region, Fig. 4). As in
/// the paper, per-item bucket assignments are kept as an inverted list so
/// queries by item index need no re-hashing.
///
/// The index only tells which items collide. The order of every output
/// (QueryByIndex, QueryByIndexBatch, QueryByPoint, VisitBuckets) is
/// unspecified and changes with the removal and insertion history; every
/// consumer reads its output as a set.
class LshIndex {
 public:
  /// Largest supported num_projections (the paper's largest mu is 40):
  /// ComputePointKeys keeps a group of tables' projections in a fixed stack
  /// buffer.
  static constexpr int kMaxProjections = 64;

  LshIndex(const Dataset& data, LshParams params);

  /// Dataset-free index of the given dimensionality, its tables seeded as
  /// in the hashing constructor. It holds no items and never inserts: a
  /// serving snapshot keeps one as its query hasher (same params, same keys
  /// as the source index).
  LshIndex(int dim, LshParams params);

  ~LshIndex();

  LshIndex(const LshIndex&) = delete;
  LshIndex& operator=(const LshIndex&) = delete;

  const LshParams& params() const { return params_; }
  int num_tables() const { return params_.num_tables; }
  /// Number of item slots the tables know about.
  /// Removed slots still count; see live_count().
  Index size() const { return indexed_count_; }
  /// Items currently present in the buckets (size() minus removed slots).
  Index live_count() const { return live_count_; }

  /// The one key function: writes the point's bucket key for every table
  /// into out[0 .. num_tables()). Table t's key folds its floors
  /// floor((a . v + b) / r) in projection order, h = (h ^ floor) *
  /// 0x9E3779B97F4A7C15, and finalizes h with SplitMix64. Every path that
  /// hashes (the eager constructor, InsertItem, QueryByPoint, a snapshot's
  /// query hasher) calls it, so keys computed from a copied row equal the
  /// keys of the original dataset row — the property that lets a snapshot
  /// match a query's keys against its blocks' bucket keys. Dies unless
  /// point.size() is the index's dimensionality. Thread-safe; works in
  /// dataset-free mode.
  void ComputePointKeys(std::span<const Scalar> point, uint64_t* out) const;

  /// Present item i's bucket key in `table`, as inserted: read back, not
  /// re-hashed.
  uint64_t ItemKey(int table, Index i) const {
    ALID_DCHECK(i >= 0 && i < indexed_count_ && removed_[i] == 0);
    return item_keys_[static_cast<size_t>(i) * params_.num_tables + table];
  }

  /// Hashes the attached dataset's row i and files it in every table: either
  /// the next append slot (i == size()) or a previously removed slot whose
  /// row was overwritten by a new arrival. Requires an attached Dataset.
  /// Not thread-safe.
  void InsertItem(Index i);

  /// Removes item i from every bucket — the sliding-window expiry path of
  /// the streaming runtime — by swapping it with its bucket's last item. The
  /// slot may later be re-used through InsertItem. Not thread-safe.
  void RemoveItem(Index i);

  /// True iff slot i was removed and not yet re-inserted.
  bool IsItemRemoved(Index i) const {
    return i >= 0 && i < indexed_count_ && removed_[i] != 0;
  }

  /// All items colliding with item i in at least one table (i excluded),
  /// deduplicated, in unspecified order: QueryByIndexBatch of {i}.
  std::vector<Index> QueryByIndex(Index i) const;

  /// Batched CIVS query (one multi-probe call): the deduplicated union of
  /// the buckets of every item in `items` across every table, with the
  /// queried items themselves excluded. Buckets shared by several support
  /// items — the common case, since a cluster's support collides by design —
  /// are visited once, and dedup runs on a reusable thread-local stamp
  /// buffer, so there is no per-query hash-set allocation. Appends to *out
  /// after clearing it; order is unspecified. Thread-safe.
  void QueryByIndexBatch(std::span<const Index> items,
                         std::vector<Index>* out) const;

  /// All items colliding with an arbitrary point: appends the deduplicated
  /// union of the point's buckets to *out after clearing it, deduplicating
  /// on a thread-local stamp buffer; order is unspecified. Dies unless
  /// point.size() is the index's dimensionality. Thread-safe against
  /// concurrent readers.
  void QueryByPoint(std::span<const Scalar> point,
                    std::vector<Index>* out) const;

  /// Invokes visitor(bucket_items) for every bucket of every table with at
  /// least `min_size` items, buckets and their items in unspecified order.
  /// PALID samples its seeds from these (Sec. 4.6).
  void VisitBuckets(int min_size,
                    const std::function<void(std::span<const Index>)>& visitor)
      const;

  /// Mean collision-list length over items — a cheap recall/selectivity
  /// diagnostic used by tests and benches.
  double MeanCandidatesPerItem(int sample = 200, uint64_t seed = 7) const;

  /// Bytes of projection tiles, offsets, buckets and inverted lists
  /// (charged to MemoryTracker). The tiles are charged at their padded
  /// size: whole kSimdTileLanes-wide tiles, so num_tables *
  /// num_projections * dim scalars when that lane count is a multiple of 8.
  /// The eager constructor also charges every bucket's 8-byte key;
  /// InsertItem charges only the item's keys and bucket entries.
  size_t MemoryBytes() const { return memory_bytes_; }

 private:
  // Draws the Gaussian projections and the offsets of every table from
  // params_ and scatters the projections into the tiles. Both constructors
  // share this, so a dataset-free index hashes every point exactly like an
  // eager one built from the same params — the property that lets a
  // snapshot compare query keys with the stream's own keys.
  void InitTables();

  const Dataset* data_;  // nullptr in dataset-free mode
  int dim_ = 0;
  LshParams params_;
  // Every table's projection vectors as one dimension-major tile array
  // (the SoaBlock layout): lane j = t * num_projections + p holds table t's
  // projection p, and lanes past num_tables * num_projections are zero.
  std::vector<Scalar> projection_tiles_;
  int num_projection_tiles_ = 0;
  std::vector<Scalar> offsets_;  // one per lane j, U[0, r)
  // Per table: bucket key -> the items filed under it.
  std::vector<std::unordered_map<uint64_t, std::vector<Index>>> buckets_;
  // Inverted list, item-major: item i's key in table t at
  // item_keys_[i * num_tables + t], written in place by ComputePointKeys.
  std::vector<uint64_t> item_keys_;
  Index indexed_count_ = 0;  // how many dataset rows the tables know about
  Index live_count_ = 0;     // indexed slots currently present in buckets
  std::vector<uint8_t> removed_;  // slot -> removed flag
  size_t memory_bytes_ = 0;
  std::unique_ptr<ScopedMemoryCharge> charge_;
};

}  // namespace alid

#endif  // ALID_LSH_LSH_INDEX_H_

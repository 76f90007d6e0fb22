#include "lsh/lsh_index.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>

#include "common/check.h"
#include "common/epoch_stamp.h"
#include "common/random.h"
#include "simd/simd_dispatch.h"

namespace alid {

namespace {

// floor(v) as an int32, saturated to [INT32_MIN, INT32_MAX] with NaN sent to
// INT32_MIN: a huge or non-finite query coordinate still hashes (to an edge
// bucket) instead of hitting the undefined float-to-int conversion, and
// every in-range value converts exactly as a plain cast of floor(v) would.
// v is clamped to [INT32_MIN, INT32_MAX + 0.5] first (NaN fails the first
// comparison and becomes INT32_MIN), which leaves the saturated floor
// unchanged and makes the truncating cast defined; a truncation above the
// clamped value (a negative non-integer) then steps down by one. Every
// projection of every hashed point takes this path, and it is shorter than
// std::floor's SSE2 expansion followed by two range checks.
int32_t SaturatingFloor(Scalar v) {
  constexpr Scalar kMin = std::numeric_limits<int32_t>::min();
  constexpr Scalar kHigh = std::numeric_limits<int32_t>::max() + 0.5;
  const Scalar low = v > kMin ? v : kMin;
  const Scalar clamped = low < kHigh ? low : kHigh;
  const int32_t t = static_cast<int32_t>(clamped);
  return t - (static_cast<Scalar>(t) > clamped ? 1 : 0);
}

// Tables whose FNV-1a chains HashPoint runs side by side. A whole group's
// lanes (kHashWidth * num_projections) fill whole tiles, so every group
// starts on a tile boundary.
constexpr int kHashWidth = 8;
static_assert(kHashWidth % kSimdTileLanes == 0);

// 64-bit FNV-1a of kHashWidth tables at once: floors[w * per_table + p] is
// table w's floor value p, and table w's key is the FNV-1a of its floor
// values in projection order, each little-endian byte by byte. The chains
// are independent, so their multiplies overlap instead of waiting on one
// another; each table still sees exactly its own byte sequence.
void HashFloorsSideBySide(const int32_t* floors, int per_table,
                          uint64_t* keys) {
  uint64_t h[kHashWidth];
  std::fill(h, h + kHashWidth, 1469598103934665603ull);
  for (int p = 0; p < per_table; ++p) {
    for (int b = 0; b < 4; ++b) {
      for (int w = 0; w < kHashWidth; ++w) {
        const uint32_t v = static_cast<uint32_t>(floors[w * per_table + p]);
        h[w] ^= (v >> (8 * b)) & 0xffu;
        h[w] *= 1099511628211ull;
      }
    }
  }
  std::copy(h, h + kHashWidth, keys);
}

}  // namespace

void LshIndex::InitTables() {
  ALID_CHECK(params_.num_tables > 0);
  ALID_CHECK(params_.num_projections > 0 &&
             params_.num_projections <= kMaxProjections);
  ALID_CHECK(params_.segment_length > 0.0);
  const int d = dim_;
  const int per_table = params_.num_projections;
  const int lanes = params_.num_tables * per_table;
  num_projection_tiles_ = (lanes + kSimdTileLanes - 1) / kSimdTileLanes;
  projection_tiles_.assign(
      static_cast<size_t>(num_projection_tiles_) * d * kSimdTileLanes, 0.0);
  offsets_.resize(static_cast<size_t>(lanes));
  // Per table: its projection vectors one after another, then its offsets —
  // the draw order every index built from these params has always used.
  Rng rng(params_.seed);
  for (int t = 0; t < params_.num_tables; ++t) {
    for (int p = 0; p < per_table; ++p) {
      const int j = t * per_table + p;
      Scalar* lane = projection_tiles_.data() +
                     static_cast<size_t>(j / kSimdTileLanes) * d *
                         kSimdTileLanes +
                     j % kSimdTileLanes;
      for (int k = 0; k < d; ++k) {
        lane[static_cast<size_t>(k) * kSimdTileLanes] = rng.Gaussian();
      }
    }
    for (int p = 0; p < per_table; ++p) {
      offsets_[static_cast<size_t>(t * per_table + p)] =
          rng.Uniform(0.0, params_.segment_length);
    }
  }
  tables_.resize(params_.num_tables);
  memory_bytes_ =
      (projection_tiles_.size() + offsets_.size()) * sizeof(Scalar);
}

LshIndex::LshIndex(const Dataset& data, LshParams params)
    : data_(&data), dim_(data.dim()), params_(params) {
  ALID_CHECK(dim_ > 0);
  InitTables();
  const Index n = data.size();
  for (auto& table : tables_) table.item_key.resize(n);
  // Items in ascending id, each hashed once for every table, so every
  // bucket receives its items in ascending id.
  std::vector<uint64_t> keys(tables_.size());
  for (Index i = 0; i < n; ++i) {
    HashPoint(data[i], keys.data());
    for (size_t t = 0; t < tables_.size(); ++t) {
      tables_[t].item_key[i] = keys[t];
      tables_[t].buckets[keys[t]].push_back(i);
    }
  }

  indexed_count_ = n;
  live_count_ = n;
  removed_.assign(static_cast<size_t>(n), 0);
  for (const auto& table : tables_) {
    memory_bytes_ += table.item_key.size() * sizeof(uint64_t);
    for (const auto& [key, items] : table.buckets) {
      memory_bytes_ += sizeof(key) + items.size() * sizeof(Index);
    }
  }
  charge_ =
      std::make_unique<ScopedMemoryCharge>(static_cast<int64_t>(memory_bytes_));
}

LshIndex::LshIndex(int dim, LshParams params)
    : data_(nullptr), dim_(dim), params_(params) {
  ALID_CHECK(dim_ > 0);
  InitTables();
  charge_ =
      std::make_unique<ScopedMemoryCharge>(static_cast<int64_t>(memory_bytes_));
}

void LshIndex::ComputePointKeys(std::span<const Scalar> point,
                                uint64_t* out) const {
  ALID_CHECK_MSG(static_cast<int>(point.size()) == dim_,
                 "point dimension differs from the index dimension");
  HashPoint(point, out);
}

void LshIndex::InsertItem(Index i) {
  ALID_CHECK(data_ != nullptr);
  ALID_CHECK(i >= 0 && i < data_->size());
  if (i == indexed_count_) {  // a new slot enters as a removed one
    for (auto& table : tables_) table.item_key.push_back(0);
    removed_.push_back(1);
    ++indexed_count_;
    memory_bytes_ += tables_.size() * sizeof(uint64_t);
  }
  ALID_CHECK_MSG(IsItemRemoved(i),
                 "only removed slots may be re-inserted out of order");
  std::vector<uint64_t> keys(tables_.size());
  HashPoint((*data_)[i], keys.data());
  for (size_t t = 0; t < tables_.size(); ++t) {
    tables_[t].item_key[i] = keys[t];
    tables_[t].buckets[keys[t]].push_back(i);
  }
  removed_[i] = 0;
  ++live_count_;
  memory_bytes_ += tables_.size() * sizeof(Index);
  charge_->Adjust(static_cast<int64_t>(memory_bytes_));
}

void LshIndex::RemoveItem(Index i) {
  ALID_CHECK(i >= 0 && i < indexed_count_);
  ALID_CHECK_MSG(removed_[i] == 0, "item already removed");
  for (auto& table : tables_) {
    auto it = table.buckets.find(table.item_key[i]);
    ALID_CHECK(it != table.buckets.end());
    auto& items = it->second;
    auto pos = std::find(items.begin(), items.end(), i);
    ALID_CHECK(pos != items.end());
    // erase() keeps the remaining order, so bucket iteration — and with it
    // every query result — depends only on the operation history, never on
    // which item happened to sit last.
    items.erase(pos);
    if (items.empty()) table.buckets.erase(it);
  }
  removed_[i] = 1;
  --live_count_;
  memory_bytes_ -= tables_.size() * sizeof(Index);
  charge_->Adjust(static_cast<int64_t>(memory_bytes_));
}

LshIndex::~LshIndex() = default;

void LshIndex::HashPoint(std::span<const Scalar> point, uint64_t* out) const {
  ALID_DCHECK(static_cast<int>(point.size()) == dim_);
  // One group of up to kHashWidth consecutive tables at a time: one
  // tile_dot call projects the group, one loop floors every lane, and the
  // group's chains are hashed side by side. A short last group hashes its
  // idle chains on zeros and keeps only its own tables' keys.
  Scalar dots[kHashWidth * kMaxProjections];
  int32_t floors[kHashWidth * kMaxProjections];
  uint64_t keys[kHashWidth];
  const SimdKernelOps& ops = *ActiveSimdOps();
  const size_t tile_size = static_cast<size_t>(dim_) * kSimdTileLanes;
  const int per_table = params_.num_projections;
  const Scalar r = params_.segment_length;
  for (int first = 0; first < params_.num_tables; first += kHashWidth) {
    const int tables = std::min(kHashWidth, params_.num_tables - first);
    const int lanes = tables * per_table;
    const int lane0 = first * per_table;
    const size_t first_tile = static_cast<size_t>(lane0 / kSimdTileLanes);
    const int tiles = (lanes + kSimdTileLanes - 1) / kSimdTileLanes;
    ops.tile_dot(projection_tiles_.data() + first_tile * tile_size, tiles, dim_,
                 point.data(), dots);
    const Scalar* offsets = offsets_.data() + lane0;
    for (int j = 0; j < lanes; ++j) {
      floors[j] = SaturatingFloor((dots[j] + offsets[j]) / r);
    }
    std::fill(floors + lanes, floors + kHashWidth * per_table, 0);
    HashFloorsSideBySide(floors, per_table, keys);
    std::copy(keys, keys + tables, out + first);
  }
}

std::vector<Index> LshIndex::QueryByIndex(Index i) const {
  std::vector<Index> out;
  QueryByIndexBatch(std::span<const Index>(&i, 1), &out);
  return out;
}

void LshIndex::QueryByIndexBatch(std::span<const Index> items,
                                 std::vector<Index>* out) const {
  // Epoch-stamped scratch (EpochStamp): repeated calls — every CIVS
  // iteration of every map task — touch only the entries they visit.
  // Thread-local, hence safe under PALID.
  thread_local EpochStamp stamp;
  thread_local std::vector<uint64_t> keys;

  out->clear();
  if (items.empty()) return;
  stamp.Begin(static_cast<size_t>(size()));
  for (Index i : items) {
    ALID_CHECK(i >= 0 && i < size());
    ALID_CHECK_MSG(removed_[i] == 0, "cannot query a removed item");
    stamp.Mark(i);
  }
  for (const auto& table : tables_) {
    keys.clear();
    for (Index i : items) keys.push_back(table.item_key[i]);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (uint64_t key : keys) {
      auto it = table.buckets.find(key);
      if (it == table.buckets.end()) continue;
      for (Index j : it->second) {
        if (!stamp.IsMarked(j)) {
          stamp.Mark(j);
          out->push_back(j);
        }
      }
    }
  }
}

void LshIndex::QueryByPoint(std::span<const Scalar> point,
                            std::vector<Index>* out) const {
  // Same epoch-stamped scratch discipline as QueryByIndexBatch:
  // thread-local, so concurrent serving threads dedup independently without
  // allocating.
  thread_local EpochStamp stamp;
  thread_local std::vector<uint64_t> keys;

  ALID_CHECK_MSG(static_cast<int>(point.size()) == dim_,
                 "point dimension differs from the index dimension");
  keys.resize(tables_.size());
  HashPoint(point, keys.data());
  out->clear();
  stamp.Begin(static_cast<size_t>(size()));
  for (size_t t = 0; t < tables_.size(); ++t) {
    const Table& table = tables_[t];
    auto it = table.buckets.find(keys[t]);
    if (it == table.buckets.end()) continue;
    for (Index j : it->second) {
      if (!stamp.IsMarked(j)) {
        stamp.Mark(j);
        out->push_back(j);
      }
    }
  }
}

void LshIndex::VisitBuckets(
    int min_size,
    const std::function<void(std::span<const Index>)>& visitor) const {
  for (const auto& table : tables_) {
    for (const auto& [key, items] : table.buckets) {
      if (static_cast<int>(items.size()) >= min_size) {
        visitor(std::span<const Index>(items.data(), items.size()));
      }
    }
  }
}

double LshIndex::MeanCandidatesPerItem(int sample, uint64_t seed) const {
  const Index n = size();
  if (n == 0) return 0.0;
  Rng rng(seed);
  const int count = std::min<int>(sample, n);
  auto ids = rng.SampleWithoutReplacement(n, count);
  double total = 0.0;
  int live = 0;
  for (Index i : ids) {
    if (removed_[i] != 0) continue;  // expired stream slots have no buckets
    total += static_cast<double>(QueryByIndex(i).size());
    ++live;
  }
  return live > 0 ? total / live : 0.0;
}

}  // namespace alid

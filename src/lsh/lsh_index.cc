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

// Tables ComputePointKeys projects per tile_dot call: the bound of its stack
// buffer. A whole group's lanes (kGroupTables * num_projections) fill whole
// tiles, so every group starts on a tile boundary.
constexpr int kGroupTables = 8;
static_assert(kGroupTables % kSimdTileLanes == 0);

// Multiplier of the word-wise key fold (the 64-bit golden ratio).
constexpr uint64_t kKeyMultiplier = 0x9E3779B97F4A7C15ull;

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
  buckets_.resize(static_cast<size_t>(params_.num_tables));
  memory_bytes_ =
      (projection_tiles_.size() + offsets_.size()) * sizeof(Scalar);
}

LshIndex::LshIndex(const Dataset& data, LshParams params)
    : data_(&data), dim_(data.dim()), params_(params) {
  ALID_CHECK(dim_ > 0);
  InitTables();
  const Index n = data.size();
  const size_t tables = buckets_.size();
  item_keys_.resize(static_cast<size_t>(n) * tables);
  for (Index i = 0; i < n; ++i) {
    uint64_t* keys = &item_keys_[static_cast<size_t>(i) * tables];
    ComputePointKeys(data[i], keys);
    for (size_t t = 0; t < tables; ++t) buckets_[t][keys[t]].push_back(i);
  }

  indexed_count_ = n;
  live_count_ = n;
  removed_.assign(static_cast<size_t>(n), 0);
  memory_bytes_ += item_keys_.size() * sizeof(uint64_t);
  for (const auto& table : buckets_) {
    for (const auto& [key, items] : table) {
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

LshIndex::~LshIndex() = default;

void LshIndex::ComputePointKeys(std::span<const Scalar> point,
                                uint64_t* out) const {
  ALID_CHECK_MSG(static_cast<int>(point.size()) == dim_,
                 "point dimension differs from the index dimension");
  // One group of up to kGroupTables consecutive tables at a time: one
  // tile_dot call projects the group, then each table folds its floors.
  Scalar dots[kGroupTables * kMaxProjections];
  const SimdKernelOps& ops = *ActiveSimdOps();
  const size_t tile_size = static_cast<size_t>(dim_) * kSimdTileLanes;
  const int per_table = params_.num_projections;
  const Scalar r = params_.segment_length;
  for (int first = 0; first < params_.num_tables; first += kGroupTables) {
    const int tables = std::min(kGroupTables, params_.num_tables - first);
    const int lane0 = first * per_table;
    const size_t first_tile = static_cast<size_t>(lane0 / kSimdTileLanes);
    const int tiles =
        (tables * per_table + kSimdTileLanes - 1) / kSimdTileLanes;
    ops.tile_dot(projection_tiles_.data() + first_tile * tile_size, tiles, dim_,
                 point.data(), dots);
    const Scalar* offsets = offsets_.data() + lane0;
    for (int w = 0; w < tables; ++w) {
      uint64_t h = 0;
      for (int j = w * per_table; j < (w + 1) * per_table; ++j) {
        const int32_t floor = SaturatingFloor((dots[j] + offsets[j]) / r);
        h = (h ^ static_cast<uint32_t>(floor)) * kKeyMultiplier;
      }
      out[first + w] = SplitMix64(h);
    }
  }
}

void LshIndex::InsertItem(Index i) {
  ALID_CHECK(data_ != nullptr);
  ALID_CHECK(i >= 0 && i < data_->size());
  const size_t tables = buckets_.size();
  if (i == indexed_count_) {  // a new slot enters as a removed one
    item_keys_.resize(item_keys_.size() + tables);
    removed_.push_back(1);
    ++indexed_count_;
    memory_bytes_ += tables * sizeof(uint64_t);
  }
  ALID_CHECK_MSG(IsItemRemoved(i),
                 "only removed slots may be re-inserted out of order");
  uint64_t* keys = &item_keys_[static_cast<size_t>(i) * tables];
  ComputePointKeys((*data_)[i], keys);
  for (size_t t = 0; t < tables; ++t) buckets_[t][keys[t]].push_back(i);
  removed_[i] = 0;
  ++live_count_;
  memory_bytes_ += tables * sizeof(Index);
  charge_->Adjust(static_cast<int64_t>(memory_bytes_));
}

void LshIndex::RemoveItem(Index i) {
  ALID_CHECK(i >= 0 && i < indexed_count_);
  ALID_CHECK_MSG(removed_[i] == 0, "item already removed");
  const size_t tables = buckets_.size();
  for (size_t t = 0; t < tables; ++t) {
    auto it = buckets_[t].find(item_keys_[static_cast<size_t>(i) * tables + t]);
    ALID_CHECK(it != buckets_[t].end());
    auto& items = it->second;
    auto pos = std::find(items.begin(), items.end(), i);
    ALID_CHECK(pos != items.end());
    *pos = items.back();  // bucket order is unspecified: swap-remove
    items.pop_back();
    if (items.empty()) buckets_[t].erase(it);
  }
  removed_[i] = 1;
  --live_count_;
  memory_bytes_ -= tables * sizeof(Index);
  charge_->Adjust(static_cast<int64_t>(memory_bytes_));
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
  const size_t tables = buckets_.size();
  for (size_t t = 0; t < tables; ++t) {
    keys.clear();
    for (Index i : items) {
      keys.push_back(item_keys_[static_cast<size_t>(i) * tables + t]);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (uint64_t key : keys) {
      auto it = buckets_[t].find(key);
      if (it == buckets_[t].end()) continue;
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

  keys.resize(buckets_.size());
  ComputePointKeys(point, keys.data());
  out->clear();
  stamp.Begin(static_cast<size_t>(size()));
  for (size_t t = 0; t < buckets_.size(); ++t) {
    auto it = buckets_[t].find(keys[t]);
    if (it == buckets_[t].end()) continue;
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
  for (const auto& table : buckets_) {
    for (const auto& [key, items] : table) {
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

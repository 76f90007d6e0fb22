#include "serve/snapshot_arena.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace alid {

MemoryTracker& SnapshotArenaTracker() {
  // The arena tracker is also the process's "arena_*" gauge source: the
  // global registry exports the serving tier's attributed footprint without
  // any snapshot code having to push updates.
  static MemoryTracker* tracker = [] {
    auto* t = new MemoryTracker();
    obs::MetricsRegistry::Global().AddCallbackGauge(
        "arena_current_bytes", [t] { return t->current_bytes(); });
    obs::MetricsRegistry::Global().AddCallbackGauge(
        "arena_peak_bytes", [t] { return t->peak_bytes(); });
    return t;
  }();
  return *tracker;
}

ClusterBlock::~ClusterBlock() {
  // An event marker, not a measurement: the payload vectors and both
  // charges destroy after this body, so the span records *when* a block
  // left the arena rather than how long the frees took.
  ALID_TRACE_SCOPE("arena", "release");
}

size_t ClusterBlock::MemoryBytes() const {
  return source_ids.size() * sizeof(Index) +
         bucket_keys.size() * sizeof(BucketKey) + scorer->MemoryBytes();
}

void ClusterBlock::Seal() {
  ALID_TRACE_SCOPE("arena", "seal");
  const int64_t bytes = static_cast<int64_t>(MemoryBytes());
  global_charge_.Adjust(bytes);
  arena_charge_.Adjust(bytes);
}

}  // namespace alid

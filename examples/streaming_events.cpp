// Streaming dominant-cluster detection — the paper's future-work extension
// grown into a windowed subsystem.
//
// News items arrive in batches. Each batch is hashed and scored against the
// live events on the calling thread, and a sliding window expires old
// coverage: expired items leave the LSH index. Every event that gained
// arrivals or lost expired items is then re-detected once, warm from its
// own weighted support. No global
// recomputation ever runs, and the index footprint stays bounded by the
// window, not the stream.
//
//   ./build/example_streaming_events
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common/random.h"
#include "core/online_alid.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "obs/metrics.h"

int main() {
  using namespace alid;

  // A stream with four bursty topics among background chatter.
  SyntheticConfig config;
  config.n = 1200;
  config.dim = 16;
  config.num_clusters = 4;
  config.omega = 0.5;
  config.mean_box = 300.0;
  config.overlap_clusters = false;  // distinct topics for a clean demo
  LabeledData stream = MakeSynthetic(config);

  constexpr Index kBatch = 64;    // arrivals absorbed per ingest tick
  constexpr Index kWindow = 800;  // live coverage kept per tick

  OnlineAlidOptions options;
  options.affinity = {.k = stream.suggested_k, .p = 2.0};
  options.lsh.segment_length = stream.suggested_lsh_r;
  options.refresh_interval = 200;
  options.window = kWindow;
  OnlineAlid online(stream.data.dim(), options);

  Rng rng(99);
  const auto order = rng.Permutation(stream.size());
  // slot -> generator index of its *current* occupant (slots are re-used
  // once the window starts expiring arrivals).
  std::vector<Index> generator_of(stream.size(), -1);

  std::vector<Scalar> batch;
  std::vector<Index> batch_gen;
  Index fed = 0;
  for (Index step = 0; step < stream.size(); ++step) {
    const auto point = stream.data[order[step]];
    batch.insert(batch.end(), point.begin(), point.end());
    batch_gen.push_back(order[step]);
    if (static_cast<Index>(batch_gen.size()) < kBatch &&
        step + 1 < stream.size()) {
      continue;
    }
    const std::vector<Index> slots = online.InsertBatch(batch);
    for (size_t k = 0; k < slots.size(); ++k) {
      if (slots[k] >= static_cast<Index>(generator_of.size())) {
        generator_of.resize(slots[k] + 1, -1);
      }
      generator_of[slots[k]] = batch_gen[k];
    }
    fed += static_cast<Index>(batch_gen.size());
    batch.clear();
    batch_gen.clear();
    if (fed % 320 == 0) {
      const StreamStats& s = online.stats();
      std::printf("after %4d arrivals: %d live clusters, %d items in "
                  "window, %lld absorbed, %lld evicted\n",
                  fed, s.clusters_alive, s.alive,
                  static_cast<long long>(s.absorbed),
                  static_cast<long long>(s.evicted));
    }
  }
  online.Refresh();

  // Score the live window: ground truth restricted to the items that are
  // still inside it, translated into slot space.
  std::vector<IndexList> truth;
  for (const IndexList& cluster : stream.true_clusters) {
    IndexList t;
    for (Index slot = 0; slot < static_cast<Index>(generator_of.size());
         ++slot) {
      if (!online.IsAlive(slot)) continue;
      if (std::find(cluster.begin(), cluster.end(), generator_of[slot]) !=
          cluster.end()) {
        t.push_back(slot);
      }
    }
    if (!t.empty()) truth.push_back(std::move(t));
  }
  std::vector<IndexList> detected;
  for (const Cluster& c : online.clusters()) detected.push_back(c.members);

  const StreamStats& stats = online.stats();
  std::printf("\nend of stream: %zu dominant clusters over the %d-item "
              "window, AVG-F %.3f against the live bursts\n",
              online.clusters().size(), online.alive(),
              AverageF1(truth, detected));
  std::printf("stream totals: %lld arrivals, %lld absorbed on entry, %lld "
              "evicted, %lld local re-detections, %lld kernel "
              "evaluations\n",
              static_cast<long long>(stats.arrivals),
              static_cast<long long>(stats.absorbed),
              static_cast<long long>(stats.evicted),
              static_cast<long long>(stats.redetections),
              static_cast<long long>(online.oracle().entries_computed()));
  std::printf("pool refresh passes (serial peel): %lld\n",
              static_cast<long long>(stats.refreshes));
  // The stream's registry histogram of batch ingest latency: one count per
  // decade bucket from 1 us to 1 s, the +inf bucket last.
  for (const obs::MetricSample& sample : online.metrics().Snapshot()) {
    if (sample.name != "ingest_seconds") continue;
    std::printf("ingest-latency histogram (%lld batches, <=1us .. <=1s, "
                "+inf): ",
                static_cast<long long>(sample.count));
    for (const int64_t count : sample.buckets) {
      std::printf("%lld ", static_cast<long long>(count));
    }
    std::printf("\n");
  }
  return 0;
}

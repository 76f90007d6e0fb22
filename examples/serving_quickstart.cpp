// Serving quickstart: stream -> snapshot -> generation-addressed queries,
// end to end.
//
// The write side streams arrivals through OnlineAlid and periodically
// exports an immutable ClusterSnapshot; the read side answers Query()
// requests at full speed against whatever snapshot is currently published —
// an RCU swap, so queries never block on ingest and never see torn state.
// Consecutive snapshots share their unchanged clusters' arena blocks, so a
// publish costs O(changed bytes), retired generations stay addressable
// through the server's history ring (bounded time travel), and
// GenerationDiff explains what changed between any two of them.
//
//   ./build/example_serving_quickstart
#include <cstdio>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/online_alid.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "serve/cluster_server.h"
#include "serve/cluster_snapshot.h"

int main() {
  using namespace alid;

  // A stream with four bursty topics among background chatter.
  SyntheticConfig config;
  config.n = 1200;
  config.dim = 16;
  config.num_clusters = 4;
  config.omega = 0.5;
  config.mean_box = 300.0;
  config.overlap_clusters = false;
  LabeledData stream = MakeSynthetic(config);
  const int dim = stream.data.dim();

  OnlineAlidOptions options;
  options.affinity = {.k = stream.suggested_k, .p = 2.0};
  options.lsh.segment_length = stream.suggested_lsh_r;
  options.refresh_interval = 200;
  OnlineAlid online(dim, options);

  ThreadPool pool(4);  // the server's pool: batched queries run on it

  ClusterServer server(dim, {.pool = &pool});
  WallTimer serving;  // the overall-QPS clock: the server keeps none
  std::shared_ptr<const ClusterSnapshot> published;

  // Ingest in batches; after each batch, export + publish a fresh snapshot.
  // (In production the export runs on a refresh thread; queries keep
  // answering from the previous snapshot while the new one builds.)
  Rng rng(99);
  const auto order = rng.Permutation(stream.size());
  std::vector<Scalar> batch;
  for (Index pos = 0; pos < stream.size(); ++pos) {
    const auto point = stream.data[order[pos]];
    batch.insert(batch.end(), point.begin(), point.end());
    if (batch.size() == static_cast<size_t>(200 * dim) ||
        pos + 1 == stream.size()) {
      online.InsertBatch(batch);
      batch.clear();
      online.Refresh();
      // Incremental export: chaining on the served snapshot lets every
      // cluster the batch left untouched *share* its arena blocks (a
      // refcount bump) — publish cost tracks what changed, not the window.
      published = ClusterSnapshot::FromStream(online, nullptr, published);
      server.Publish(published);
      const SnapshotBuildInfo& build = published->build_info();
      std::printf("published snapshot @%llu arrivals: %d clusters over %d "
                  "support members (%.1f ms build, %d/%d clusters re-used, "
                  "%lld bytes shared / %lld copied)\n",
                  static_cast<unsigned long long>(server.generation()),
                  published->num_clusters(), published->num_members(),
                  build.build_seconds * 1e3, build.clusters_reused,
                  build.clusters_total,
                  static_cast<long long>(build.bytes_shared),
                  static_cast<long long>(build.bytes_copied));
    }
  }

  // Steady state: a localized burst (tight jitter around one topic) leaves
  // the other clusters untouched — their blocks move into the next
  // generation as refcount bumps, and the ledger shows it.
  const uint64_t before_burst = server.generation();
  {
    Rng jitter(7);
    const auto& burst = stream.true_clusters.front();
    batch.clear();
    for (int q = 0; q < 32; ++q) {
      const auto row = stream.data[burst[static_cast<size_t>(
          jitter.UniformInt(0, static_cast<int>(burst.size()) - 1))]];
      for (int d = 0; d < dim; ++d) {
        batch.push_back(row[d] + jitter.Gaussian() * 0.05);
      }
    }
    online.InsertBatch(batch);
    published = ClusterSnapshot::FromStream(online, nullptr, published);
    server.Publish(published);
    const SnapshotBuildInfo& build = published->build_info();
    std::printf("localized burst -> generation %llu: %d/%d clusters "
                "unchanged, %lld bytes shared / %lld copied\n",
                static_cast<unsigned long long>(server.generation()),
                build.clusters_reused, build.clusters_total,
                static_cast<long long>(build.bytes_shared),
                static_cast<long long>(build.bytes_copied));
  }

  // Single query: where does a brand-new item belong, and how strongly?
  const auto probe = stream.data[order[7]];
  const QueryOutcome single =
      server.Query({.points = probe}).assignments.front();
  if (single.cluster >= 0) {
    std::printf("\nprobe -> cluster %d (affinity %.3f, margin %.3f) under "
                "snapshot generation %llu\n",
                single.cluster, single.affinity, single.margin,
                static_cast<unsigned long long>(single.generation));
  } else {
    std::printf("\nprobe -> unassigned (noise)\n");
  }

  // Ranked alternatives plus the metadata behind the winner: top_k > 0
  // switches the same Query() call into ranked mode.
  const QueryResponse ranked = server.Query({.points = probe, .top_k = 3});
  for (const ScoredCluster& s : ranked.ranked.front()) {
    const ClusterSnapshotInfo info = server.ClusterInfo(s.cluster);
    std::printf("  candidate cluster %d: pi=%.3f%s, support %d, density "
                "%.3f\n",
                s.cluster, s.affinity, s.absorbable ? " [absorbable]" : "",
                info.size, info.density);
  }

  // Batched queries run chunked on the shared pool — bit-identical to the
  // serial loop, and every answer of one batch names one generation.
  std::vector<Scalar> queries;
  Rng noise(3);
  for (int q = 0; q < 512; ++q) {
    const auto row = stream.data[static_cast<Index>(
        noise.UniformInt(0, stream.size() - 1))];
    for (int d = 0; d < dim; ++d) {
      queries.push_back(row[d] + noise.Gaussian() * 0.05);
    }
  }
  const QueryResponse answers = server.Query({.points = queries});
  int assigned = 0;
  for (const QueryOutcome& r : answers.assignments) {
    assigned += r.cluster >= 0 ? 1 : 0;
  }
  std::printf("\nbatch of %zu jittered queries: %d assigned, %zu noise, all "
              "answered by generation %llu\n",
              answers.assignments.size(), assigned,
              answers.assignments.size() - assigned,
              static_cast<unsigned long long>(answers.generation));

  // Bounded time travel: retired generations stay addressable through the
  // history ring, and an as-of query reproduces exactly the answers that
  // generation gave when it was current.
  const uint64_t current = server.generation();
  const uint64_t past = before_burst;  // the generation the burst retired
  const QueryResponse asof =
      server.Query({.points = probe, .generation = past});
  if (asof.ok()) {
    std::printf("\nas-of generation %llu the probe mapped to cluster %d "
                "(today: %d)\n",
                static_cast<unsigned long long>(asof.generation),
                asof.assignments.front().cluster, single.cluster);
    // ...and GenerationDiff explains what changed in between.
    const GenerationDiffResult diff = server.GenerationDiff(past, current);
    std::printf("generations %llu -> %llu: %zu born, %zu died, %zu drifted, "
                "%d unchanged (the unchanged ones share their arena blocks)\n",
                static_cast<unsigned long long>(diff.from),
                static_cast<unsigned long long>(diff.to), diff.births.size(),
                diff.deaths.size(), diff.drifted.size(), diff.unchanged);
  }

  const ServeStatsView stats = server.stats();
  const double serving_seconds = serving.Seconds();
  std::printf("\nserver totals: %lld queries (%lld singles, %lld batch "
              "calls), %lld assigned, %lld snapshots published, %.0f QPS "
              "overall\n",
              static_cast<long long>(stats.queries),
              static_cast<long long>(stats.single_queries),
              static_cast<long long>(stats.batch_calls),
              static_cast<long long>(stats.assigned),
              static_cast<long long>(stats.snapshots_published),
              static_cast<double>(stats.queries) / serving_seconds);
  std::printf("incremental publishes re-used %lld member rows across %lld "
              "clusters\n",
              static_cast<long long>(stats.rows_reused),
              static_cast<long long>(stats.clusters_reused));
  std::printf("arena ledger: %lld bytes shared vs %lld copied across "
              "publishes; history ring holds %d generations at %lld extra "
              "bytes\n",
              static_cast<long long>(stats.bytes_shared),
              static_cast<long long>(stats.bytes_copied),
              stats.generations_retained,
              static_cast<long long>(stats.history_ring_bytes));
  // The server's registry histogram of per-query latency: one count per
  // decade bucket from 1 us to 1 s, the +inf bucket last.
  for (const obs::MetricSample& sample : server.metrics().Snapshot()) {
    if (sample.name != "query_seconds") continue;
    std::printf("per-query latency histogram (%lld samples, <=1us .. <=1s, "
                "+inf): ",
                static_cast<long long>(sample.count));
    for (const int64_t count : sample.buckets) {
      std::printf("%lld ", static_cast<long long>(count));
    }
    std::printf("\n");
  }
  return 0;
}

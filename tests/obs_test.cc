// Tests of the observability layer (src/obs/): metrics-registry snapshot
// consistency under concurrent writers, histogram bucket-edge semantics,
// exporter formats, the span tracer's bounded drop-oldest rings, the
// disabled tracer's zero-allocation contract, one latency-histogram
// observation per stream/server call — and the layer's defining promise:
// streamed and served results are bit-identical with tracing on or off.
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/online_alid.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/cluster_server.h"
#include "serve/cluster_snapshot.h"
#include "test_util.h"

// Allocation probe for the disabled-tracer contract: global operator new
// bumps a relaxed counter, so a test can assert a code region allocated
// nothing. Deletes route to free() to match; the array and aligned forms
// keep their defaults (nothing in the probed region uses them). GCC pairs
// its builtin operator-new knowledge with the free() below and flags
// -Wmismatched-new-delete at inlined call sites; the pairing is correct
// (the replaced new allocates with malloc), so the warning is disarmed.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
static std::atomic<int64_t> g_heap_allocations{0};

void* operator new(size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, size_t) noexcept { std::free(ptr); }

namespace alid {
namespace {

using obs::MetricsRegistry;
using obs::ObsOptions;
using obs::TraceRecorder;

TEST(MetricsTest, CountersGaugesAndCallbacks) {
  MetricsRegistry registry;
  obs::Counter* hits = registry.AddCounter("hits");
  obs::Gauge* depth = registry.AddGauge("depth");
  int64_t level = 7;
  registry.AddCallbackGauge("level", [&level] { return level; });

  hits->Add(3);
  hits->Add();
  depth->Set(10);
  depth->Add(-4);

  const auto samples = registry.Snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "hits");
  EXPECT_EQ(samples[0].value, 4);
  EXPECT_EQ(samples[1].name, "depth");
  EXPECT_EQ(samples[1].value, 6);
  EXPECT_EQ(samples[2].name, "level");
  EXPECT_EQ(samples[2].value, 7);

  level = -2;  // callback gauges read at export time, not registration time
  EXPECT_EQ(registry.Snapshot()[2].value, -2);
}

TEST(MetricsTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  MetricsRegistry registry;
  obs::Histogram* hist = registry.AddHistogram("lat", {1.0, 2.0, 4.0});

  hist->Observe(0.5);  // <= 1.0 -> bucket 0
  hist->Observe(1.0);  // == edge, inclusive -> bucket 0
  hist->Observe(1.5);  // -> bucket 1
  hist->Observe(2.0);  // == edge -> bucket 1
  hist->Observe(4.0);  // == last edge -> bucket 2
  hist->Observe(9.0);  // beyond every edge -> the +inf bucket

  const auto buckets = hist->BucketCounts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2);
  EXPECT_EQ(buckets[1], 2);
  EXPECT_EQ(buckets[2], 1);
  EXPECT_EQ(buckets[3], 1);
  EXPECT_EQ(hist->count(), 6);
  EXPECT_DOUBLE_EQ(hist->sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 9.0);
}

TEST(MetricsTest, ExporterFormats) {
  MetricsRegistry registry;
  registry.AddCounter("absorbed")->Add(12);
  registry.AddGauge("alive")->Set(5);
  obs::Histogram* hist = registry.AddHistogram("batch_ms", {1.0});
  hist->Observe(0.5);
  hist->Observe(3.0);

  EXPECT_EQ(registry.ToJsonFields(),
            "\"absorbed\":12,\"alive\":5,\"batch_ms_count\":2,"
            "\"batch_ms_sum\":3.5");
  std::string braced = "{";  // built with += — GCC-12 -Wrestrict trips on +
  braced += registry.ToJsonFields();
  braced += "}";
  EXPECT_EQ(registry.ToJson(), braced);

  const std::string prom = registry.ToPrometheusText();
  EXPECT_NE(prom.find("# TYPE alid_absorbed counter"), std::string::npos);
  EXPECT_NE(prom.find("alid_absorbed 12"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE alid_alive gauge"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE alid_batch_ms histogram"), std::string::npos);
  // Cumulative le buckets: the +inf bucket equals the total count.
  EXPECT_NE(prom.find("alid_batch_ms_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("alid_batch_ms_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
}

// The registry's core concurrency contract: registration is locked,
// updates are relaxed atomics, and Snapshot()/exporters may run at any
// time against concurrent writers. Final totals must be exact — relaxed
// ordering loses no increments. Run under TSan via the concurrency suite.
TEST(MetricsTest, SnapshotConsistentUnderConcurrentWriters) {
  MetricsRegistry registry;
  obs::Counter* counter = registry.AddCounter("events");
  obs::Gauge* gauge = registry.AddGauge("level");
  obs::Histogram* hist = registry.AddHistogram("obs", {0.25, 0.5, 0.75});

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto samples = registry.Snapshot();
      ASSERT_EQ(samples.size(), 3u);
      EXPECT_GE(samples[0].value, 0);
      EXPECT_FALSE(registry.ToJsonFields().empty());
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Add(1);
        gauge->Set(t);
        hist->Observe(static_cast<double>(i % 100) / 100.0);
      }
    });
  }
  for (auto& thread : writers) thread.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(counter->value(), int64_t{kThreads} * kPerThread);
  EXPECT_EQ(hist->count(), int64_t{kThreads} * kPerThread);
  int64_t bucket_total = 0;
  for (int64_t b : hist->BucketCounts()) bucket_total += b;
  EXPECT_EQ(bucket_total, hist->count());
}

TEST(TraceTest, RingWrapsDropOldestAndCountsDrops) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable(ObsOptions{.trace_ring_capacity = 8});
  recorder.Clear();
  for (int i = 0; i < 20; ++i) {
    ALID_TRACE_SCOPE("test", "wrap");
  }
  // This thread's ring holds the newest 8 of 20 events; Clear() emptied
  // every ring, so other threads contribute nothing here.
  EXPECT_EQ(recorder.buffered_events(), 8);
  EXPECT_EQ(recorder.dropped_events(), 12);

  const std::string json = recorder.ExportChromeTrace();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"wrap\""), std::string::npos);

  recorder.Clear();
  EXPECT_EQ(recorder.buffered_events(), 0);
  EXPECT_EQ(recorder.dropped_events(), 0);
  EXPECT_TRUE(recorder.enabled());  // Clear keeps the enabled state
  recorder.Disable();
}

TEST(TraceTest, DisableEnableKeepsRecordedSpans) {
  // The benches' tracing-overhead rows pause the recorder with Disable()
  // and resume it with Enable(); spans recorded before the pause must still
  // be exported afterwards.
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable();
  recorder.Clear();
  { ALID_TRACE_SCOPE("test", "before_pause"); }
  recorder.Disable();
  { ALID_TRACE_SCOPE("test", "while_paused"); }
  recorder.Enable();
  { ALID_TRACE_SCOPE("test", "after_pause"); }
  const std::string json = recorder.ExportChromeTrace();
  EXPECT_NE(json.find("\"name\":\"before_pause\""), std::string::npos);
  EXPECT_EQ(json.find("\"name\":\"while_paused\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"after_pause\""), std::string::npos);
  EXPECT_EQ(recorder.buffered_events(), 2);

  // A new capacity re-arms the rings empty.
  recorder.Enable(ObsOptions{.trace_ring_capacity = 16});
  EXPECT_EQ(recorder.buffered_events(), 0);
  recorder.Disable();
  recorder.Clear();
}

TEST(TraceTest, WriteChromeTraceRoundTrips) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable(ObsOptions{.trace_ring_capacity = 64});
  {
    ALID_TRACE_SCOPE("test", "outer");
    ALID_TRACE_SCOPE("test", "inner");
  }
  const std::string path =
      ::testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(recorder.WriteChromeTrace(path));
  ASSERT_FALSE(recorder.WriteChromeTrace("/nonexistent-dir/trace.json"));
  recorder.Disable();
  recorder.Clear();

  std::FILE* file = std::fopen(path.c_str(), "r");
  ASSERT_NE(file, nullptr);
  std::string contents;
  char buffer[4096];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    contents.append(buffer, read);
  }
  std::fclose(file);
  EXPECT_NE(contents.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(contents.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(contents.find("\"name\":\"inner\""), std::string::npos);
}

// The disabled hot path's contract: one relaxed load and a branch — no
// heap allocation whatsoever. The probe counts every global operator new
// across a large span loop with tracing off.
TEST(TraceTest, DisabledSpansAllocateNothing) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Disable();
  const int64_t before = g_heap_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100000; ++i) {
    ALID_TRACE_SCOPE("test", "disabled");
  }
  const int64_t after = g_heap_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0);
}

LabeledData Workload(Index n = 420, uint64_t seed = 91) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = 10;
  cfg.num_clusters = 4;
  cfg.omega = 0.6;
  cfg.mean_box = 300.0;
  cfg.overlap_clusters = false;
  cfg.seed = seed;
  return MakeSynthetic(cfg);
}

OnlineAlidOptions StreamOptions(const LabeledData& data) {
  OnlineAlidOptions opts;
  opts.affinity = {.k = data.suggested_k, .p = 2.0};
  opts.lsh.segment_length = data.suggested_lsh_r;
  opts.refresh_interval = 96;
  opts.window = 260;  // evictions + repairs happen mid-stream
  return opts;
}

std::unique_ptr<OnlineAlid> RunStream(const LabeledData& data,
                                      const OnlineAlidOptions& opts,
                                      Index batch) {
  auto online = std::make_unique<OnlineAlid>(data.data.dim(), opts);
  Rng rng(5);
  const auto order = rng.Permutation(data.size());
  std::vector<Scalar> flat;
  for (Index pos = 0; pos < data.size(); ++pos) {
    const auto row = data.data[order[pos]];
    if (static_cast<Index>(flat.size()) / data.data.dim() ==
        static_cast<Index>(batch)) {
      online->InsertBatch(flat);
      flat.clear();
    }
    flat.insert(flat.end(), row.begin(), row.end());
  }
  if (!flat.empty()) online->InsertBatch(flat);
  return online;
}

void ExpectIdenticalStreamState(const OnlineAlid& a, const OnlineAlid& b) {
  DetectionResult da, db;
  da.clusters = a.clusters();
  db.clusters = b.clusters();
  ExpectIdenticalDetections(da, db);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.alive(), b.alive());
  const StreamStats sa = a.stats();
  const StreamStats sb = b.stats();
  EXPECT_EQ(sa.arrivals, sb.arrivals);
  EXPECT_EQ(sa.absorbed, sb.absorbed);
  EXPECT_EQ(sa.pooled, sb.pooled);
  EXPECT_EQ(sa.evicted, sb.evicted);
  EXPECT_EQ(sa.redetections, sb.redetections);
  EXPECT_EQ(sa.refreshes, sb.refreshes);
  // The stateless oracle's kernel-evaluation count is as deterministic as
  // the state it paid for.
  EXPECT_EQ(a.oracle().entries_computed(), b.oracle().entries_computed());
}

// The latency export: the stream's ingest latency and the server's
// query/publish latencies are histogram-typed registry metrics, one
// observation per call, shipped through the registry exporters.
TEST(MetricsTest, LatencyHistogramsShipThroughExporters) {
  LabeledData data = Workload(300, 5);
  std::unique_ptr<OnlineAlid> online =
      RunStream(data, StreamOptions(data), 50);
  ClusterServer server(data.data.dim());
  server.Publish(ClusterSnapshot::FromStream(*online));
  server.Query(QueryRequest{.points = data.data[0]});

  const auto histogram_count =
      [](const MetricsRegistry& registry,
         const std::string& name) -> int64_t {
    for (const auto& sample : registry.Snapshot()) {
      if (sample.name == name) {
        EXPECT_EQ(sample.kind, obs::MetricKind::kHistogram);
        EXPECT_EQ(sample.edges, obs::LatencyHistogramEdges());
        return sample.count;
      }
    }
    ADD_FAILURE() << "no histogram named " << name;
    return -1;
  };
  // One observation per InsertBatch / Query / Publish call: 300 arrivals
  // in batches of 50.
  EXPECT_EQ(histogram_count(online->metrics(), "ingest_seconds"), 6);
  EXPECT_EQ(histogram_count(server.metrics(), "query_seconds"), 1);
  EXPECT_EQ(histogram_count(server.metrics(), "publish_seconds"), 1);

  // And the text exporters carry them end to end.
  EXPECT_NE(online->metrics().ToJsonFields().find("\"ingest_seconds_count\":"),
            std::string::npos);
  EXPECT_NE(
      server.metrics().ToPrometheusText().find(
          "# TYPE alid_query_seconds histogram"),
      std::string::npos);
}

// The tracer's defining promise: spans only timestamp — they read no
// algorithm state and feed nothing back — so the streamed state is
// bit-identical with tracing on or off, even with rings wrapping hard
// (a tiny capacity maximizes drop-path executions mid-stream).
TEST(TraceTest, StreamStateBitIdenticalTracingOnVsOff) {
  LabeledData data = Workload();
  const OnlineAlidOptions opts = StreamOptions(data);
  TraceRecorder& recorder = TraceRecorder::Global();

  recorder.Disable();
  recorder.Clear();
  std::unique_ptr<OnlineAlid> untraced = RunStream(data, opts, 37);
  ASSERT_GT(untraced->clusters().size(), 0u);
  ASSERT_GT(untraced->stats().evicted, 0);

  recorder.Enable(ObsOptions{.trace_ring_capacity = 32});
  std::unique_ptr<OnlineAlid> traced = RunStream(data, opts, 37);
  recorder.Disable();
  EXPECT_GT(recorder.buffered_events() + recorder.dropped_events(), 0);
  recorder.Clear();

  ExpectIdenticalStreamState(*untraced, *traced);
}

TEST(TraceTest, ServeAnswersBitIdenticalTracingOnVsOff) {
  LabeledData data = Workload(360, 17);
  std::unique_ptr<OnlineAlid> online =
      RunStream(data, StreamOptions(data), 41);
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Disable();
  recorder.Clear();

  const int dim = data.data.dim();
  ClusterServer server(dim);
  server.Publish(ClusterSnapshot::FromStream(*online));

  // Query points: jittered copies of data rows, some near misses.
  Rng rng(23);
  std::vector<Scalar> queries;
  for (Index q = 0; q < 200; ++q) {
    const auto row = data.data[q % data.size()];
    for (int d = 0; d < dim; ++d) {
      queries.push_back(row[d] +
                        static_cast<Scalar>(0.01 * rng.Uniform()));
    }
  }

  const QueryResponse untraced = server.Query(QueryRequest{.points = queries});
  recorder.Enable(ObsOptions{.trace_ring_capacity = 64});
  const QueryResponse traced = server.Query(QueryRequest{.points = queries});
  recorder.Disable();
  recorder.Clear();

  ASSERT_TRUE(untraced.ok());
  ASSERT_TRUE(traced.ok());
  ASSERT_EQ(untraced.assignments.size(), traced.assignments.size());
  for (size_t i = 0; i < untraced.assignments.size(); ++i) {
    EXPECT_EQ(untraced.assignments[i], traced.assignments[i])
        << "query " << i;
  }
}

}  // namespace
}  // namespace alid

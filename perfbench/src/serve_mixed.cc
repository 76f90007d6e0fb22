// serve_mixed — 3 closed-loop reader threads call ClusterServer::Query (no
// pool) while 1 writer thread ingests small localized batches into an
// OnlineAlid and publishes a chained incremental snapshot on a fixed
// schedule (open loop). Readers send a fixed, seeded mix of four request
// classes in equal shares: single-point assigns, top-3 rankings, 64-point
// batches and 64-point as-of requests to a retained generation, over
// bench_serve's query points (60% jittered members, 20% near misses, 20%
// far noise). Most clusters stand still between generations, so this
// exercises the query path and the O(changed) publish and bypasses heavy
// absorb.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "common/memory_tracker.h"
#include "common/random.h"
#include "common/timer.h"
#include "data/synthetic.h"
#include "report.h"
#include "serve/cluster_server.h"
#include "stream_common.h"

namespace alid::perfbench {
namespace {

constexpr int kDim = 16;
constexpr Index kBasePoints = 1600;
/// One generation touches one planted cluster, so 31 of 32 stand still.
constexpr int kClusters = 32;
constexpr Index kBaseBatch = 120;
/// Arrivals per generation: a 10 s run adds as many rows as the base holds.
constexpr Index kWriterBatch = 8;
/// The writer's publish schedule: 200 generations in a 10 s run, twice the
/// 100 samples publish_p90_s needs.
constexpr double kPeriodS = 0.05;
constexpr int kReaders = 3;
constexpr Index kQueryPoints = 1 << 16;
/// Batch and as-of requests carry 64 points, as bench_serve's batch and
/// as-of rows do; the as-of probe set is the first 64 query points.
constexpr Index kBatchQuery = 64;
/// As-of targets: one of the last 8 generations (bench_serve's ring depth).
/// The server retains 64, so a target stays addressable even when a reader
/// is descheduled for seconds between picking it and asking.
constexpr int kAsOfRecent = 8;
constexpr int kHistory = 64;
constexpr int kTopK = 3;
constexpr int kMinTruth = 8;
constexpr double kAvgFFloor = 0.5;
/// Query throughput is counted per slice of the phase; the reported QPS is
/// the median slice, so a stall of the shared host skews one slice only.
constexpr double kSliceS = 0.5;

/// The readers' request classes, drawn with equal probability.
enum RequestClass { kSingle, kTopK3, kBatch, kAsOf, kClasses };
constexpr const char* kClassNames[kClasses] = {"single", "top3", "batch64",
                                               "asof64"};

struct Input {
  LabeledData base;
  std::vector<Scalar> base_order;      // base rows in arrival order
  std::vector<int> base_labels;        // parallel to base_order
  std::vector<Scalar> writer_points;   // generation g: kWriterBatch rows
  std::vector<int> writer_labels;
  std::vector<Scalar> queries;         // kQueryPoints rows
  uint64_t lsh_seed = 0;
  uint64_t reader_seed = 0;
  int generations = 0;
};

Input MakeInput(uint64_t seed, double seconds) {
  Input input;
  SyntheticConfig cfg;
  cfg.n = kBasePoints;
  cfg.dim = kDim;
  cfg.num_clusters = kClusters;
  cfg.omega = 0.8;
  cfg.mean_box = 300.0;
  cfg.overlap_clusters = false;
  cfg.seed = DeriveSeed(seed, 0x5E27E);
  input.base = MakeSynthetic(cfg);
  input.lsh_seed = DeriveSeed(seed, 0x15B);
  input.reader_seed = DeriveSeed(seed, 0x12EAD);

  Rng rng(DeriveSeed(seed, 0x0BDE2));
  for (const Index i : rng.Permutation(input.base.size())) {
    const auto row = input.base.data[i];
    input.base_order.insert(input.base_order.end(), row.begin(), row.end());
    input.base_labels.push_back(input.base.labels[i]);
  }
  // Writer batches: fresh draws from one planted cluster's Gaussian (its
  // members' mean and per-dimension spread), so a generation touches one
  // cluster and its arrivals are new members, not copies of old ones.
  std::vector<std::vector<double>> mean(kClusters,
                                        std::vector<double>(kDim, 0.0));
  std::vector<std::vector<double>> stddev = mean;
  for (int c = 0; c < kClusters; ++c) {
    const IndexList& members = input.base.true_clusters[c];
    for (const Index i : members) {
      for (int d = 0; d < kDim; ++d) mean[c][d] += input.base.data[i][d];
    }
    for (double& m : mean[c]) m /= static_cast<double>(members.size());
    for (const Index i : members) {
      for (int d = 0; d < kDim; ++d) {
        const double diff = input.base.data[i][d] - mean[c][d];
        stddev[c][d] += diff * diff;
      }
    }
    for (double& s : stddev[c]) {
      s = std::sqrt(s / static_cast<double>(members.size()));
    }
  }
  input.generations = static_cast<int>(seconds / kPeriodS) + 1;
  Rng writer(DeriveSeed(seed, 0x3217E));
  for (int g = 0; g < input.generations; ++g) {
    const int c = static_cast<int>(writer.UniformInt(0, kClusters - 1));
    for (Index q = 0; q < kWriterBatch; ++q) {
      for (int d = 0; d < kDim; ++d) {
        input.writer_points.push_back(mean[c][d] +
                                      writer.Gaussian() * stddev[c][d]);
      }
      input.writer_labels.push_back(c);
    }
  }
  // Query points, bench_serve's mix: 60% members jittered by 0.05, 20% near
  // misses (they collide with a cluster's buckets but score far below its
  // absorb threshold), 20% far uniform noise.
  Rng query(DeriveSeed(seed, 0x9E2F));
  for (Index q = 0; q < kQueryPoints; ++q) {
    const double mix = query.Uniform();
    const auto row = input.base.data[static_cast<Index>(
        query.UniformInt(0, input.base.size() - 1))];
    const double magnitude = 2.0 + query.Uniform() * 6.0;
    for (int d = 0; d < kDim; ++d) {
      input.queries.push_back(
          mix < 0.6   ? row[d] + query.Gaussian() * 0.05
          : mix < 0.8 ? row[d] + query.Gaussian() * magnitude
                      : query.Uniform(-900.0, 900.0));
    }
  }
  return input;
}

// The writer's stream and the server, built from the base rows.
struct Service {
  std::unique_ptr<OnlineAlid> stream;
  std::unique_ptr<ClusterServer> server;
  std::shared_ptr<const ClusterSnapshot> snapshot;
  std::vector<int> label_of_slot;
  bool slots_ok = true;
};

Service MakeService(const Input& input) {
  Service service;
  // The generator suggests an LSH segment of three intra-cluster distances.
  service.stream = std::make_unique<OnlineAlid>(
      kDim, StreamOptions(input.base.suggested_lsh_r / 3.0, 0, 0, nullptr,
                          input.lsh_seed));
  const std::span<const Scalar> rows(input.base_order);
  const std::span<const int> labels(input.base_labels);
  const Index count = static_cast<Index>(labels.size());
  for (Index begin = 0; begin < count; begin += kBaseBatch) {
    const Index size = std::min(kBaseBatch, count - begin);
    const std::vector<Index> slots = service.stream->InsertBatch(
        rows.subspan(static_cast<size_t>(begin) * kDim,
                     static_cast<size_t>(size) * kDim));
    service.stream->Refresh();
    service.slots_ok =
        RecordSlots(slots, labels.subspan(begin, size),
                    service.stream->size(), service.label_of_slot) &&
        service.slots_ok;
  }
  ClusterServerOptions options;
  options.history_capacity = kHistory;
  service.server = std::make_unique<ClusterServer>(kDim, options);
  service.snapshot = ClusterSnapshot::FromStream(*service.stream);
  service.server->Publish(service.snapshot);
  return service;
}

struct Recorded {
  uint64_t generation = 0;
  std::vector<QueryOutcome> answers;
};

/// One request class's share of a reader's work.
struct ClassTally {
  int64_t requests = 0;
  int64_t points = 0;
  double seconds = 0.0;
};

struct ReaderResult {
  std::vector<float> single_us;  // single-point request latencies
  // Request latency sums of untraced and traced requests (a traced run
  // traces every second request of each reader).
  double plain_s = 0.0;
  double traced_s = 0.0;
  int64_t traced = 0;
  int64_t requests = 0;
  std::array<ClassTally, kClasses> classes;
  std::vector<int64_t> slice_points;  // points answered per kSliceS slice
  int64_t failed = 0;
  std::vector<std::string> failures;
};

struct Phase {
  double seconds = 0.0;
  std::vector<double> ingest_s;
  std::vector<double> publish_s;
  std::vector<double> late_s;
  double arrivals = 0.0;
  double rows_reused = 0.0;
  double rows_rebuilt = 0.0;
  double bytes_copied = 0.0;
  std::vector<ReaderResult> readers;
  StreamCounters counters;  // the writer stream's counters over the phase
  ServeStatsView server;    // the server's counters over the phase
  double avg_f = 0.0;
};

// Runs the readers and the writer for `seconds`. The writer runs on this
// thread and counts its slot checks into `report`; each reader keeps its
// own tally.
Phase RunPhase(const Input& input, Service& service, double seconds,
               SpanTracer* tracer, WorkloadReport& report) {
  Phase phase;
  ClusterServer& server = *service.server;
  StreamCounters before;
  before.Add(*service.stream);
  const ServeStatsView server_before = server.stats();

  const std::span<const Scalar> queries(input.queries);
  const std::span<const Scalar> probe = queries.first(kBatchQuery * kDim);
  std::mutex recorded_mu;
  std::vector<Recorded> recorded;  // guarded by recorded_mu
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> next_request{1};
  const int64_t phase_start = NowNs();
  const size_t slices = static_cast<size_t>(seconds / kSliceS) + 2;

  const auto reader = [&](int r, ReaderResult& out) {
    Rng rng(DeriveSeed(input.reader_seed, static_cast<uint64_t>(r)));
    Index cursor = static_cast<Index>(rng.UniformInt(0, kQueryPoints - 1));
    const auto take = [&](Index count) {
      if (cursor + count > kQueryPoints) cursor = 0;
      const auto points = queries.subspan(static_cast<size_t>(cursor) * kDim,
                                          static_cast<size_t>(count) * kDim);
      cursor += count;
      return points;
    };
    const auto fail = [&](const std::string& what) {
      ++out.failed;
      if (out.failures.size() < 4) out.failures.push_back(what);
    };
    out.single_us.reserve(1 << 20);
    out.slice_points.assign(slices, 0);
    while (!stop.load(std::memory_order_relaxed)) {
      const auto request_class =
          static_cast<RequestClass>(rng.UniformInt(0, kClasses - 1));
      const uint64_t request = next_request.fetch_add(1);
      QueryRequest query;
      std::optional<Recorded> expect;
      if (request_class == kAsOf) {
        {
          std::lock_guard<std::mutex> lock(recorded_mu);
          if (!recorded.empty()) {
            const size_t recent =
                std::min<size_t>(kAsOfRecent, recorded.size());
            expect = recorded[recorded.size() - 1 -
                              static_cast<size_t>(rng.UniformInt(
                                  0, static_cast<int64_t>(recent) - 1))];
          }
        }
        if (!expect) continue;
        query.points = probe;
        query.generation = expect->generation;
      } else {
        query.points = take(request_class == kBatch ? kBatchQuery : 1);
        query.top_k = request_class == kTopK3 ? kTopK : 0;
      }
      SpanTracer* traced = out.requests % 2 == 1 ? tracer : nullptr;
      const int64_t start = NowNs();
      QueryResponse response;
      {
        SpanScope span(traced, "serve.query", request);
        response = server.Query(query);
      }
      const int64_t end = NowNs();
      const double request_s = static_cast<double>(end - start) * 1e-9;
      ++out.requests;
      (traced != nullptr ? out.traced_s : out.plain_s) += request_s;
      out.traced += traced != nullptr ? 1 : 0;
      const int64_t points = static_cast<int64_t>(query.points.size()) / kDim;
      ClassTally& tally = out.classes[request_class];
      ++tally.requests;
      tally.points += points;
      tally.seconds += request_s;
      out.slice_points[std::min(
          slices - 1, static_cast<size_t>(static_cast<double>(
                                              end - phase_start) *
                                          1e-9 / kSliceS))] += points;
      if (points == 1) {
        out.single_us.push_back(static_cast<float>((end - start) * 1e-3));
      }
      if (!response.ok()) {
        fail("request " + std::to_string(request) + " status " +
             std::to_string(static_cast<int>(response.status)));
      } else if (expect && response.assignments != expect->answers) {
        fail("as-of answers for generation " +
             std::to_string(expect->generation) +
             " differ from those recorded while it was current");
      }
    }
  };

  const auto writer = [&] {
    const auto start = std::chrono::steady_clock::now();
    const int generations = std::min(
        input.generations, static_cast<int>(seconds / kPeriodS));
    for (int g = 0; g < generations; ++g) {
      const auto due =
          start +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(g * kPeriodS));
      std::this_thread::sleep_until(due);
      phase.late_s.push_back(std::max(
          0.0, std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             due)
                   .count()));
      const uint64_t request = next_request.fetch_add(1);
      SpanScope span(tracer, "serve.generation", request);
      const size_t first = static_cast<size_t>(g) * kWriterBatch;
      const auto batch = std::span<const Scalar>(input.writer_points)
                             .subspan(first * kDim,
                                      static_cast<size_t>(kWriterBatch) * kDim);
      WallTimer ingest;
      std::vector<Index> slots;
      {
        SpanScope insert(tracer, "online_alid.insert_batch");
        slots = service.stream->InsertBatch(batch);
      }
      phase.ingest_s.push_back(ingest.Seconds());
      report.Check(RecordSlots(slots,
                               std::span<const int>(input.writer_labels)
                                   .subspan(first, kWriterBatch),
                               service.stream->size(), service.label_of_slot),
                   "generation " + std::to_string(g) +
                       " returned an invalid slot list");
      WallTimer publish;
      {
        SpanScope build(tracer, "serve.from_stream");
        service.snapshot = ClusterSnapshot::FromStream(*service.stream,
                                                       nullptr,
                                                       service.snapshot);
      }
      {
        SpanScope publish_span(tracer, "serve.publish");
        server.Publish(service.snapshot);
      }
      phase.publish_s.push_back(publish.Seconds());
      const SnapshotBuildInfo& info = service.snapshot->build_info();
      phase.rows_reused += info.rows_reused;
      phase.rows_rebuilt += info.rows_rebuilt;
      phase.bytes_copied += static_cast<double>(info.bytes_copied);
      phase.arrivals += kWriterBatch;
      // The probe answers while this generation is current: the reference
      // every later as-of request to it must reproduce bit for bit.
      Recorded record;
      const QueryResponse now = server.Query({.points = probe});
      record.generation = now.generation;
      record.answers = now.assignments;
      std::lock_guard<std::mutex> lock(recorded_mu);
      recorded.push_back(std::move(record));
    }
  };

  phase.readers.resize(kReaders);
  WallTimer wall;
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back(reader, r, std::ref(phase.readers[r]));
    }
    writer();
    stop.store(true);
    for (std::thread& t : threads) t.join();
  }
  phase.seconds = wall.Seconds();

  StreamCounters after;
  after.Add(*service.stream);
  phase.counters = after;
  phase.counters -= before;
  phase.server = server.stats();
  phase.server.queries -= server_before.queries;
  phase.server.assigned -= server_before.assigned;
  phase.server.sketch_prunes -= server_before.sketch_prunes;
  phase.server.sketch_exact -= server_before.sketch_exact;

  std::vector<IndexList> detected;
  for (const Cluster& cluster : service.stream->clusters()) {
    detected.push_back(cluster.members);
  }
  phase.avg_f = LiveAvgF(service.label_of_slot, detected, kMinTruth);
  return phase;
}

void CheckPhase(const Phase& phase, WorkloadReport& report) {
  for (const ReaderResult& reader : phase.readers) {
    report.attempted += reader.requests;
    report.failed += reader.failed;
    for (const std::string& failure : reader.failures) {
      if (report.failures.size() < 8) report.failures.push_back(failure);
    }
  }
  report.Check(phase.avg_f >= kAvgFFloor,
               "AVG-F " + std::to_string(phase.avg_f) + " below floor");
}

// One report line per request class: its share of the requests, of the
// points answered (what items_per_s counts) and of the readers' busy time.
void PrintClasses(const Phase& phase, WorkloadReport& report) {
  std::array<ClassTally, kClasses> classes;
  ClassTally total;
  for (const ReaderResult& reader : phase.readers) {
    for (int c = 0; c < kClasses; ++c) {
      for (ClassTally* tally : {&classes[c], &total}) {
        tally->requests += reader.classes[c].requests;
        tally->points += reader.classes[c].points;
        tally->seconds += reader.classes[c].seconds;
      }
    }
  }
  for (int c = 0; c < kClasses; ++c) {
    char buffer[200];
    std::snprintf(
        buffer, sizeof(buffer),
        "class %-8s requests %lld (%.1f%%) points %lld (%.1f%%) reader time "
        "%.1f%%",
        kClassNames[c], static_cast<long long>(classes[c].requests),
        100.0 * Ratio(static_cast<double>(classes[c].requests),
                      static_cast<double>(total.requests)),
        static_cast<long long>(classes[c].points),
        100.0 * Ratio(static_cast<double>(classes[c].points),
                      static_cast<double>(total.points)),
        100.0 * Ratio(classes[c].seconds, total.seconds));
    report.Line(buffer);
  }
}

}  // namespace

WorkloadReport RunServeMixed(const RunConfig& config) {
  WorkloadReport report;
  MemoryTracker::Global().Reset();

  std::optional<Input> input;
  std::optional<Service> service;
  const double setup_s = MedianSetupSeconds(kSetupRepeats, [&] {
    service.reset();
    input.emplace(MakeInput(config.seed, config.seconds));
    service.emplace(MakeService(*input));
  });
  report.Check(service->slots_ok, "the base stream returned an invalid slot");

  if (!config.trace) {
    const Phase phase =
        RunPhase(*input, *service, config.seconds, nullptr, report);
    CheckPhase(phase, report);
    std::vector<double> single;
    for (const ReaderResult& reader : phase.readers) {
      single.insert(single.end(), reader.single_us.begin(),
                    reader.single_us.end());
    }
    double ingest_total = 0.0;
    for (const double s : phase.ingest_s) ingest_total += s;
    // Whole slices only: the last two may be partial.
    std::vector<double> slice_qps(phase.readers.front().slice_points.size() - 2,
                                  0.0);
    for (const ReaderResult& reader : phase.readers) {
      for (size_t i = 0; i < slice_qps.size(); ++i) {
        slice_qps[i] += static_cast<double>(reader.slice_points[i]) / kSliceS;
      }
    }
    const double qps = Median(slice_qps);
    report.Set("setup_s", setup_s, "s");
    report.Set("items_per_s", qps, "1/s");
    report.Set("latency_p50_s", Median(single) * 1e-6, "s");
    report.Set("avg_f", phase.avg_f, "F1");
    report.Set("peak_mem_mb", PeakMemMb(), "MiB");
    report.Named("ingest_items_per_s", Ratio(phase.arrivals, ingest_total),
                 "1/s");
    report.Timing("ingest_batch_s", phase.ingest_s, "s");
    report.NamedTail("ingest_batch_p90_s", phase.ingest_s, 0.9, "s");
    report.Timing("publish_s", phase.publish_s, "s");
    report.NamedTail("publish_p90_s", phase.publish_s, 0.9, "s");
    report.Named("query_qps", qps, "1/s");
    PrintClasses(phase, report);
    report.Timing("query_single_us", single, "us");
    report.NamedTail("query_p99_us", single, 0.99, "us");
    report.Timing("writer_late_s", phase.late_s, "s");
    return report;
  }

  SpanTracer tracer;
  const Phase phase =
      RunPhase(*input, *service, config.seconds, &tracer, report);
  CheckPhase(phase, report);
  double plain_s = 0.0, traced_s = 0.0;
  int64_t requests = 0, traced = 0;
  for (const ReaderResult& reader : phase.readers) {
    plain_s += reader.plain_s;
    traced_s += reader.traced_s;
    requests += reader.requests;
    traced += reader.traced;
  }
  const double generations = static_cast<double>(phase.publish_s.size());
  double late = 0.0;
  for (const double s : phase.late_s) late += s;

  const auto layers = FoldSpans(tracer.Collect());
  PrintLayers(report, layers);
  report.Set("online_alid.insert_batch_busy_s",
             BusyPerUnit(layers, "online_alid.insert_batch", generations),
             "s");
  report.Set("serve.from_stream_busy_s",
             BusyPerUnit(layers, "serve.from_stream", generations), "s");
  report.Set("serve.publish_swap_s",
             BusyPerUnit(layers, "serve.publish", generations), "s");
  report.Set("serve.query_busy_s",
             BusyPerUnit(layers, "serve.query", static_cast<double>(traced)),
             "s");
  report.Set("serve.writer_late_s", Ratio(late, generations), "s");
  report.Set("serve.rows_reused_ratio",
             Ratio(phase.rows_reused, phase.rows_reused + phase.rows_rebuilt),
             "ratio");
  report.Set("serve.bytes_copied_per_publish",
             Ratio(phase.bytes_copied, generations), "B");
  const ServeStatsView& server = phase.server;
  report.Set("serve.sketch_prune_ratio",
             Ratio(static_cast<double>(server.sketch_prunes),
                   static_cast<double>(server.sketch_prunes +
                                       server.sketch_exact)),
             "ratio");
  report.Set("serve.assigned_ratio",
             Ratio(static_cast<double>(server.assigned),
                   static_cast<double>(server.queries)),
             "ratio");
  report.Set("serve.history_ring_bytes",
             static_cast<double>(server.history_ring_bytes), "B");
  SetStreamMetrics(report, phase.counters, 1.0);
  report.NotRun({"online_alid.refresh_busy_s"},
                "the writer never calls Refresh()");
  // Readers interleave traced and untraced requests of one random mix, so
  // the overhead is the ratio of their mean latencies.
  report.Set("trace.overhead_ratio",
             Ratio(Ratio(traced_s, static_cast<double>(traced)),
                   Ratio(plain_s, static_cast<double>(requests - traced))),
             "ratio");
  const std::string path = WriteSpans(tracer, config, "serve_mixed");
  report.Line("spans written to " + (path.empty() ? "(failed)" : path));
  return report;
}

}  // namespace alid::perfbench

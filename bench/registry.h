#ifndef ALID_BENCH_REGISTRY_H_
#define ALID_BENCH_REGISTRY_H_

// Unified benchmark registry — the one harness behind every bench in this
// repo (the init/run/teardown idiom of the classic C bench registries,
// grown typed options and a JSON trajectory contract).
//
// Each benchmark registers a unique name, a set of labels (the CI shard and
// gate-selection axis), the JSON record names it promises to emit, and its
// callbacks. One driver binary (`alid_bench`, bench/bench_main.cc) runs any
// subset via --filter/--labels, so a new benchmark joins the CI perf
// trajectory by registering — never by editing the workflow.
//
// The JSON contract: a benchmark emits machine-readable results through
// BenchContext::EmitJson as single-line records ({"bench":"<record>",...}).
// The registry prints them in the legacy `JSON {...}` stdout format (what CI
// greps into bench_trajectory.jsonl), mirrors them into --json-out, injects
// the registration labels as a top-level "labels" key (what
// tools/check_speedup.py selects sweeps by), and fails the run when a
// benchmark ends without emitting every record it promised — the
// silently-no-op regression class tools/bench_compare.py --schema-check
// re-checks on the merged CI artifact.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"

namespace alid::bench {

class BenchContext;
using BenchFn = std::function<void(BenchContext&)>;

/// One registered benchmark.
struct BenchmarkDef {
  std::string name;                  ///< Unique registry name.
  std::vector<std::string> labels;   ///< Shard/gate labels ("paper", ...).
  std::vector<std::string> records;  ///< JSON record names it must emit.
  BenchFn init;                      ///< Optional once-per-run setup.
  BenchFn run;                       ///< The measured body (required).
  BenchFn teardown;                  ///< Optional cleanup.
};

/// Options shared by every benchmark of one driver invocation.
struct BenchOptions {
  /// Global size multiplier (ALID_BENCH_SCALE env, overridable by --scale).
  double scale = 1.0;
  /// Un-measured run() repetitions before the measured ones (JSON dropped).
  int warmup = 0;
  /// Measured run() repetitions; JSON records are emitted only on the last
  /// so a record can never appear twice in one trajectory.
  int iterations = 1;
  /// Secondary JSON sink (one record per line, no "JSON " prefix), or null.
  std::FILE* json_out = nullptr;
  /// When non-empty, span tracing is enabled for the whole invocation and
  /// the buffered events are written here as Chrome trace-event JSON after
  /// the last benchmark (load the file in Perfetto / chrome://tracing).
  std::string trace_out;
};

/// Per-benchmark execution context handed to init/run/teardown.
class BenchContext {
 public:
  BenchContext(const BenchmarkDef* def, const BenchOptions* options)
      : def_(def), options_(options) {}

  const BenchOptions& options() const { return *options_; }
  const BenchmarkDef& benchmark() const { return *def_; }

  /// The global size multiplier of this invocation.
  double scale() const { return options_->scale; }

  /// `base` scaled by the global multiplier, as a size.
  Index Scaled(double base) const {
    return static_cast<Index>(base * options_->scale);
  }

  /// True on the iteration whose JSON records reach the trajectory (the
  /// last measured one); false during warmup and earlier iterations.
  bool measured() const { return measured_; }

  /// Emits one single-line JSON record ({"bench":"<name>",...}). The record
  /// name must be one this benchmark registered; the registry injects the
  /// registration labels, prints the legacy `JSON {...}` stdout line and
  /// mirrors the record into --json-out. Dropped (but still validated)
  /// outside the final measured iteration.
  void EmitJson(const std::string& record);

  /// Marks the benchmark failed (the driver exits non-zero) with a reason.
  void Fail(const std::string& message);

  bool failed() const { return failed_; }

 private:
  friend class BenchRegistry;

  const BenchmarkDef* def_;
  const BenchOptions* options_;
  bool measured_ = true;
  bool failed_ = false;
  std::vector<std::string> emitted_;  // record names seen this iteration
};

/// The process-wide registry behind ALID_BENCHMARK.
class BenchRegistry {
 public:
  static BenchRegistry& Instance();

  /// Registers one benchmark (names must be unique; enforced at run time so
  /// a static-init collision cannot abort before main prints anything).
  void Register(BenchmarkDef def);

  /// Benchmarks sorted by name (registration order is link order — not a
  /// contract anything may depend on).
  std::vector<const BenchmarkDef*> Sorted() const;

  /// The driver: parses --list/--list-records/--filter/--labels/--warmup/
  /// --iterations/--json-out/--trace-out/--scale, runs the selected
  /// benchmarks and returns the process exit code (0 ok; 1 a benchmark
  /// failed or broke its record promise; 2 usage error or an empty
  /// selection).
  int RunMain(int argc, char** argv);

 private:
  std::vector<BenchmarkDef> benchmarks_;
};

/// Registration hook used by the ALID_BENCHMARK macros.
int RegisterBenchmark(BenchmarkDef def);

/// Splits a comma-separated list ("a,b" -> {"a","b"}; "" -> {}).
std::vector<std::string> SplitCsv(const std::string& csv);

/// Parses a benchmark size multiplier. Accepts a finite decimal >= 0.05
/// (the floor below which every Scaled() size collapses to a handful of
/// items and the "benchmark" measures nothing); rejects garbage, trailing
/// junk, non-finite and out-of-range values by returning false with an
/// explanation in *error. The one parser behind ALID_BENCH_SCALE, --scale
/// and bench_util.h's Scale(), so all three agree on what a valid scale is.
bool ParseBenchScale(const char* text, double* scale, std::string* error);

/// ParseBenchScale or exit(2) with the error on stderr, naming `source`
/// (e.g. "ALID_BENCH_SCALE", "--scale"). A malformed scale used to fall
/// back to 1.0 silently — a run claiming paper-grid numbers at toy sizes;
/// now it refuses to run instead.
double ParseBenchScaleOrDie(const char* text, const char* source);

/// printf-appends to `out` (the JSON-record builder every bench shares).
void AppendF(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

/// Keeps `value` observable without a store — the micro-loop sink (the
/// google-benchmark idiom, local so the registry has no extra dependency).
template <typename T>
inline void KeepAlive(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Times `fn` adaptively: grows a batch of calls until one batch takes
/// `min_seconds`, then times 5 batches of that size and returns the median
/// seconds per call (so a call costs at least 6x min_seconds of wall
/// time). The component-micro helper.
double TimePerCall(const std::function<void()>& fn, double min_seconds = 0.02);

#define ALID_BENCH_CONCAT_(a, b) a##b
#define ALID_BENCH_CONCAT(a, b) ALID_BENCH_CONCAT_(a, b)

/// Registers a benchmark with init and teardown callbacks.
#define ALID_BENCHMARK_FULL(name, labels, records, init_fn, run_fn,   \
                            teardown_fn)                              \
  static const int ALID_BENCH_CONCAT(alid_bench_registered_,          \
                                     __COUNTER__) =                   \
      ::alid::bench::RegisterBenchmark(                               \
          {name, ::alid::bench::SplitCsv(labels),                     \
           ::alid::bench::SplitCsv(records), init_fn, run_fn,         \
           teardown_fn})

/// Registers a run-only benchmark (no init/teardown).
#define ALID_BENCHMARK(name, labels, records, run_fn) \
  ALID_BENCHMARK_FULL(name, labels, records, nullptr, run_fn, nullptr)

}  // namespace alid::bench

#endif  // ALID_BENCH_REGISTRY_H_

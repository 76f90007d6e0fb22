#ifndef ALID_PERFBENCH_REPORT_H_
#define ALID_PERFBENCH_REPORT_H_

// What every workload hands back to main(): the metrics named in
// BENCHMARK.json (end-to-end for an untraced run, per-layer for a traced
// one), the workload's full named end-to-end table for the human-readable
// report, and the output-check tally behind error_rate.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "span_trace.h"
#include "stats.h"

namespace alid::perfbench {

/// Threads a workload may keep busy at once (pool workers, the thread
/// driving a pool's ParallelFor, and client threads together).
inline constexpr int kThreads = 4;

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span file into.
  std::string trace_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct WorkloadReport {
  /// Machine-readable metrics for the final JSON line.
  std::map<std::string, Metric> metrics;
  /// Human-readable lines: every named end-to-end metric the workload
  /// measures, timings with their sample counts.
  std::vector<std::string> lines;
  /// Output checks (the error_rate numerator and denominator).
  int64_t attempted = 0;
  int64_t failed = 0;
  /// First few check failures, for the report.
  std::vector<std::string> failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Line(const std::string& line) { lines.push_back(line); }
  /// Counts one output check; `what` describes a failing one.
  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
  /// Reports, as 0, the per-layer metrics of a layer the workload runs only
  /// in part; `why` names the part it does not run.
  void NotRun(const std::vector<std::string>& names, const std::string& why);
  /// Prints a named value: "<name> <value> <unit>".
  void Named(const std::string& name, double value, const char* unit);
  /// Prints a timing line: "<name> p50=<value><unit> ... (n=<count>)".
  void Timing(const std::string& name, const std::vector<double>& samples,
              const char* unit);
  /// Prints a named tail, or the refusal when the run was too short for it.
  void NamedTail(const std::string& name, const std::vector<double>& samples,
                 double q, const char* unit);
};

inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// An independent seed per generator family, derived from the workload seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// Wall seconds of a run's rounds, untraced and traced.
struct RoundTimes {
  std::vector<double> plain;
  std::vector<double> traced;
  /// Mean traced round over mean untraced round.
  double OverheadRatio() const;
};

/// Runs cycles of round(input, round_index, tracer) over inputs 0..inputs-1
/// until the run's seconds have elapsed (whole cycles only, so every input
/// weighs the same); each round returns its wall seconds. A traced run runs
/// at least two cycles and traces every second one, so traced and untraced
/// rounds cover the same inputs and their ratio is the tracing overhead.
RoundTimes RunCycles(
    const RunConfig& config, SpanTracer* tracer, int inputs,
    const std::function<double(int, int, SpanTracer*)>& round);

/// Set-up repetitions behind setup_s.
inline constexpr int kSetupRepeats = 5;

/// Median wall seconds of `repeats` calls of `setup` (the setup_s metric:
/// set-up repeated within one run so work moved into it shows).
double MedianSetupSeconds(int repeats, const std::function<void()>& setup);

/// Busy seconds of one span name per unit of work (0 when never recorded).
double BusyPerUnit(const std::map<std::string, LayerTime>& layers,
                   const std::string& span, double units);

/// Adds one report line per span name: count, busy and self time.
void PrintLayers(WorkloadReport& report,
                 const std::map<std::string, LayerTime>& layers);

/// MemoryTracker peak in MiB.
double PeakMemMb();

/// Ensures `dir` exists and writes the tracer's spans to
/// `<dir>/<workload>-seed<seed>.tsv`; returns the path (empty on failure).
std::string WriteSpans(const SpanTracer& tracer, const RunConfig& config,
                       const std::string& workload);

WorkloadReport RunPalidStatic(const RunConfig& config);
WorkloadReport RunStreamHeavyTail(const RunConfig& config);
WorkloadReport RunServeMixed(const RunConfig& config);
WorkloadReport RunShardEmbedding(const RunConfig& config);

}  // namespace alid::perfbench

#endif  // ALID_PERFBENCH_REPORT_H_

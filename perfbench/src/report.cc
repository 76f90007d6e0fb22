#include "report.h"

#include <cstdio>
#include <filesystem>

#include "common/memory_tracker.h"
#include "common/random.h"
#include "common/timer.h"

namespace alid::perfbench {

void WorkloadReport::Named(const std::string& name, double value,
                           const char* unit) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "%s %.6g %s", name.c_str(), value,
                unit);
  Line(buffer);
}

void WorkloadReport::NotRun(const std::vector<std::string>& names,
                            const std::string& why) {
  std::string line = "not run (" + why + "):";
  for (const std::string& name : names) {
    Set(name, 0.0, "none");
    line += " " + name;
  }
  Line(line);
}

void WorkloadReport::Timing(const std::string& name,
                            const std::vector<double>& samples,
                            const char* unit) {
  Line(name + " " + FormatSummary(Summarize(samples), 1.0, unit));
}

void WorkloadReport::NamedTail(const std::string& name,
                               const std::vector<double>& samples, double q,
                               const char* unit) {
  char buffer[160];
  if (const std::optional<double> value = Tail(samples, q)) {
    std::snprintf(buffer, sizeof(buffer), "%s %.6g %s (n=%zu)", name.c_str(),
                  *value, unit, samples.size());
  } else {
    std::snprintf(buffer, sizeof(buffer),
                  "%s refused: n=%zu leaves %ld samples beyond p%g (< %d)",
                  name.c_str(), samples.size(),
                  SamplesBeyond(static_cast<long>(samples.size()), q),
                  q * 100.0, kMinTailBeyond);
  }
  Line(buffer);
}

double BusyPerUnit(const std::map<std::string, LayerTime>& layers,
                   const std::string& span, double units) {
  const auto it = layers.find(span);
  return it == layers.end() ? 0.0 : Ratio(it->second.busy_s, units);
}

void PrintLayers(WorkloadReport& report,
                 const std::map<std::string, LayerTime>& layers) {
  for (const auto& [name, time] : layers) {
    char buffer[200];
    std::snprintf(buffer, sizeof(buffer),
                  "span %-28s count %-8lld busy %.4fs self %.4fs",
                  name.c_str(), static_cast<long long>(time.count),
                  time.busy_s, time.self_s);
    report.Line(buffer);
  }
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  return SplitMix64(seed ^ SplitMix64(salt));
}

double RoundTimes::OverheadRatio() const {
  const auto mean = [](const std::vector<double>& v) {
    double total = 0.0;
    for (const double x : v) total += x;
    return Ratio(total, static_cast<double>(v.size()));
  };
  return Ratio(mean(traced), mean(plain));
}

RoundTimes RunCycles(
    const RunConfig& config, SpanTracer* tracer, int inputs,
    const std::function<double(int, int, SpanTracer*)>& round) {
  RoundTimes times;
  WallTimer timer;
  const int min_cycles = config.trace ? 2 : 1;
  for (int cycle = 0; cycle < min_cycles || timer.Seconds() < config.seconds;
       ++cycle) {
    const bool traced = config.trace && cycle % 2 == 1;
    for (int k = 0; k < inputs; ++k) {
      const double seconds =
          round(k, cycle * inputs + k, traced ? tracer : nullptr);
      (traced ? times.traced : times.plain).push_back(seconds);
    }
  }
  return times;
}

double MedianSetupSeconds(int repeats, const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    WallTimer timer;
    setup();
    seconds.push_back(timer.Seconds());
  }
  return Median(seconds);
}

double PeakMemMb() {
  return static_cast<double>(MemoryTracker::Global().peak_bytes()) /
         (1024.0 * 1024.0);
}

std::string WriteSpans(const SpanTracer& tracer, const RunConfig& config,
                       const std::string& workload) {
  std::error_code error;
  std::filesystem::create_directories(config.trace_dir, error);
  const std::string path = config.trace_dir + "/" + workload + "-seed" +
                           std::to_string(config.seed) + ".tsv";
  return !error && tracer.WriteTsv(path) ? path : std::string();
}

}  // namespace alid::perfbench

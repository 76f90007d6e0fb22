// alid_perfbench — runs one named workload of the repository benchmark and
// prints its report. Usage:
//
//   alid_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--trace-dir <dir>] [--git-sha <sha>]
//
// Human-readable lines come first; the last line is `RESULT {json}` with the
// provenance, the output-check tally and every metric the run measured
// (end-to-end metrics untraced, per-layer metrics traced). perfbench/run.py
// builds this program and turns that line into the benchmark's result.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "report.h"
#include "simd/simd_dispatch.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace alid::perfbench {
namespace {

struct Workload {
  const char* name;
  WorkloadReport (*run)(const RunConfig&);
};

constexpr Workload kWorkloads[] = {
    {"palid_static", RunPalidStatic},
    {"stream_heavy_tail", RunStreamHeavyTail},
    {"serve_mixed", RunServeMixed},
    {"shard_embedding", RunShardEmbedding},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "alid_perfbench: %s\nusage: alid_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>] "
               "[--git-sha <sha>]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace
}  // namespace alid::perfbench

int main(int argc, char** argv) {
  using namespace alid::perfbench;
  RunConfig config;
  config.trace_dir = ".bench_build/perfbench-trace";
  std::string workload_name;
  std::string git_sha = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && config.seconds > 0.0;
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = config.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--trace-dir") {
      config.trace_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required and must be valid");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) workload = &w;
  }
  if (workload == nullptr) Usage(("unknown workload " + workload_name).c_str());
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "alid_perfbench: refusing to record from a %s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  const char* isa = alid::SimdIsaName(alid::ActiveSimdIsa());
  std::printf("workload %s seed %llu seconds %g trace %d nproc %d isa %s "
              "build %s git %s\n",
              workload->name, static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0, nproc, isa,
              PERFBENCH_BUILD_TYPE, git_sha.c_str());
  std::fflush(stdout);

  const WorkloadReport report = workload->run(config);

  for (const std::string& line : report.lines) {
    std::printf("  %s\n", line.c_str());
  }
  for (const auto& [name, metric] : report.metrics) {
    std::printf("  metric %-40s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  for (const std::string& failure : report.failures) {
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("  error_rate %.6g (%lld failed of %lld checks)\n",
              report.attempted > 0
                  ? static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted)
                  : 0.0,
              static_cast<long long>(report.failed),
              static_cast<long long>(report.attempted));

  std::string json = "{\"workload\":\"" + std::string(workload->name) +
                     "\",\"seed\":" + std::to_string(config.seed) +
                     ",\"nproc\":" + std::to_string(nproc) +
                     ",\"threads\":" + std::to_string(kThreads) +
                     ",\"isa\":\"" + isa + "\",\"build_type\":\"" +
                     PERFBENCH_BUILD_TYPE + "\",\"git_sha\":\"" +
                     JsonEscape(git_sha) + "\",\"trace\":" +
                     (config.trace ? "1" : "0") +
                     ",\"attempted\":" + std::to_string(report.attempted) +
                     ",\"failed\":" + std::to_string(report.failed) +
                     ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    json += std::string(first ? "" : ",") + "\"" + name +
            "\":{\"value\":" + value + ",\"unit\":\"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  return 0;
}

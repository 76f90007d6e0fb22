#include "registry.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "common/timer.h"
#include "obs/trace.h"

namespace alid::bench {
namespace {

/// Extracts the record name out of a single-line JSON record — the value of
/// its "bench" key. Returns "" when the key is missing.
std::string RecordName(const std::string& record) {
  static constexpr std::string_view kKey = "\"bench\":\"";
  const size_t at = record.find(kKey);
  if (at == std::string::npos) return "";
  const size_t begin = at + kKey.size();
  const size_t end = record.find('"', begin);
  return end == std::string::npos ? "" : record.substr(begin, end - begin);
}

std::string JoinCsv(const std::vector<std::string>& parts) {
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += ",";
    out += part;
  }
  return out;
}

double EnvScale() {
  const char* s = std::getenv("ALID_BENCH_SCALE");
  // Unset or empty means "default sizes" (the unset-variable shell idiom);
  // anything else must parse, loudly.
  if (s == nullptr || *s == '\0') return 1.0;
  return ParseBenchScaleOrDie(s, "ALID_BENCH_SCALE");
}

bool ParseFlag(std::string_view arg, std::string_view name,
               std::string* value) {
  if (!arg.starts_with(name)) return false;
  arg.remove_prefix(name.size());
  if (arg.empty() || arg.front() != '=') return false;
  *value = std::string(arg.substr(1));
  return true;
}

void PrintUsage() {
  std::printf(
      "alid_bench — the unified benchmark registry driver\n\n"
      "  --list            print name, labels and promised JSON records\n"
      "  --list-records    print every promised JSON record name, one per\n"
      "                    line (the --schema-check expectation list)\n"
      "  --filter=F[,F...] run benchmarks whose name contains F or whose\n"
      "                    labels include F (repeatable; matches OR)\n"
      "  --labels=L[,L...] alias of --filter (label-only selection reads\n"
      "                    better in CI shards)\n"
      "  --warmup=N        un-measured run() repetitions first (default 0)\n"
      "  --iterations=N    measured repetitions; JSON only on the last\n"
      "                    (default 1)\n"
      "  --json-out=PATH   also append every JSON record to PATH\n"
      "  --trace-out=PATH  enable span tracing for the whole run and write\n"
      "                    the Chrome trace-event JSON to PATH at the end\n"
      "  --scale=X         size multiplier (default ALID_BENCH_SCALE or 1)\n");
}

}  // namespace

void BenchContext::EmitJson(const std::string& record) {
  const std::string name = RecordName(record);
  if (name.empty()) {
    Fail("EmitJson record carries no \"bench\" key: " + record);
    return;
  }
  if (std::find(def_->records.begin(), def_->records.end(), name) ==
      def_->records.end()) {
    Fail("benchmark '" + def_->name + "' emitted unregistered record '" +
         name + "' (add it to the registration's records list)");
    return;
  }
  emitted_.push_back(name);
  if (!measured_) return;
  // The registration labels ride along in every record so the gate tools
  // can select sweeps without hard-coding record names.
  std::string labeled = record;
  const size_t brace = labeled.find('{');
  if (brace != std::string::npos) {
    labeled.insert(brace + 1, "\"labels\":\"" + JoinCsv(def_->labels) +
                                  "\",");
  }
  std::printf("\nJSON %s\n", labeled.c_str());
  if (options_->json_out != nullptr) {
    std::fprintf(options_->json_out, "%s\n", labeled.c_str());
    std::fflush(options_->json_out);
  }
}

void BenchContext::Fail(const std::string& message) {
  failed_ = true;
  std::fprintf(stderr, "BENCH FAILURE [%s]: %s\n", def_->name.c_str(),
               message.c_str());
}

BenchRegistry& BenchRegistry::Instance() {
  static BenchRegistry* registry = new BenchRegistry();
  return *registry;
}

void BenchRegistry::Register(BenchmarkDef def) {
  benchmarks_.push_back(std::move(def));
}

std::vector<const BenchmarkDef*> BenchRegistry::Sorted() const {
  std::vector<const BenchmarkDef*> sorted;
  sorted.reserve(benchmarks_.size());
  for (const BenchmarkDef& def : benchmarks_) sorted.push_back(&def);
  std::sort(sorted.begin(), sorted.end(),
            [](const BenchmarkDef* a, const BenchmarkDef* b) {
              return a->name < b->name;
            });
  return sorted;
}

int RegisterBenchmark(BenchmarkDef def) {
  BenchRegistry::Instance().Register(std::move(def));
  return 0;
}

bool ParseBenchScale(const char* text, double* scale, std::string* error) {
  if (text == nullptr || *text == '\0') {
    if (error != nullptr) *error = "empty scale value";
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0') {
    if (error != nullptr) {
      *error = std::string("not a number: '") + text + "'";
    }
    return false;
  }
  if (errno == ERANGE || !std::isfinite(v)) {
    if (error != nullptr) {
      *error = std::string("out of range: '") + text + "'";
    }
    return false;
  }
  if (v < 0.05) {
    if (error != nullptr) {
      AppendF(*error = "", "scale %g below the 0.05 floor (sizes would "
                           "collapse to nothing)", v);
    }
    return false;
  }
  *scale = v;
  return true;
}

double ParseBenchScaleOrDie(const char* text, const char* source) {
  double scale = 1.0;
  std::string error;
  if (!ParseBenchScale(text, &scale, &error)) {
    std::fprintf(stderr, "invalid benchmark scale from %s: %s\n", source,
                 error.c_str());
    std::exit(2);
  }
  return scale;
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> parts;
  size_t begin = 0;
  while (begin <= csv.size()) {
    size_t end = csv.find(',', begin);
    if (end == std::string::npos) end = csv.size();
    if (end > begin) parts.push_back(csv.substr(begin, end - begin));
    begin = end + 1;
  }
  return parts;
}

void AppendF(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  if (needed > 0) {
    const size_t old = out.size();
    out.resize(old + static_cast<size_t>(needed) + 1);
    std::vsnprintf(out.data() + old, static_cast<size_t>(needed) + 1, fmt,
                   args);
    out.resize(old + static_cast<size_t>(needed));
  }
  va_end(args);
}

double TimePerCall(const std::function<void()>& fn, double min_seconds) {
  fn();  // warm caches and fault in pages before anything is timed
  int64_t batch = 1;
  while (true) {
    WallTimer timer;
    for (int64_t i = 0; i < batch; ++i) fn();
    const double seconds = timer.Seconds();
    if (seconds >= min_seconds) break;
    // Grow geometrically toward the time floor (at least 2x, at most 16x so
    // one overshoot cannot balloon a slow call's wall time).
    const int64_t target =
        seconds > 0.0 ? static_cast<int64_t>(
                            static_cast<double>(batch) * min_seconds /
                            seconds * 1.3)
                      : batch * 16;
    batch = std::clamp<int64_t>(target, batch * 2, batch * 16);
  }
  // The sizing loop only finds the batch; the answer is the median of
  // kBatches timed batches of that size, so one preempted batch on a shared
  // host cannot move it.
  constexpr int kBatches = 5;
  std::array<double, kBatches> per_call{};
  for (double& sample : per_call) {
    WallTimer timer;
    for (int64_t i = 0; i < batch; ++i) fn();
    sample = timer.Seconds() / static_cast<double>(batch);
  }
  std::nth_element(per_call.begin(), per_call.begin() + kBatches / 2,
                   per_call.end());
  return per_call[kBatches / 2];
}

int BenchRegistry::RunMain(int argc, char** argv) {
  BenchOptions options;
  options.scale = EnvScale();
  bool list = false;
  bool list_records = false;
  std::vector<std::string> filters;
  std::string json_out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string value;
    if (arg == "--list") {
      list = true;
    } else if (arg == "--list-records") {
      list_records = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (ParseFlag(arg, "--filter", &value) ||
               ParseFlag(arg, "--labels", &value)) {
      for (std::string& part : SplitCsv(value)) {
        filters.push_back(std::move(part));
      }
    } else if (ParseFlag(arg, "--warmup", &value)) {
      options.warmup = std::atoi(value.c_str());
    } else if (ParseFlag(arg, "--iterations", &value)) {
      options.iterations = std::max(1, std::atoi(value.c_str()));
    } else if (ParseFlag(arg, "--json-out", &value)) {
      json_out_path = value;
    } else if (ParseFlag(arg, "--trace-out", &value)) {
      options.trace_out = value;
    } else if (ParseFlag(arg, "--scale", &value)) {
      options.scale = ParseBenchScaleOrDie(value.c_str(), "--scale");
    } else {
      std::fprintf(stderr, "unknown argument: %s\n\n",
                   std::string(arg).c_str());
      PrintUsage();
      return 2;
    }
  }

  const std::vector<const BenchmarkDef*> sorted = Sorted();
  for (size_t i = 0; i + 1 < sorted.size(); ++i) {
    if (sorted[i]->name == sorted[i + 1]->name) {
      std::fprintf(stderr, "duplicate benchmark name: %s\n",
                   sorted[i]->name.c_str());
      return 2;
    }
  }

  if (list) {
    for (const BenchmarkDef* def : sorted) {
      std::printf("%s\t%s\t%s\n", def->name.c_str(),
                  JoinCsv(def->labels).c_str(),
                  JoinCsv(def->records).c_str());
    }
    return 0;
  }
  if (list_records) {
    for (const BenchmarkDef* def : sorted) {
      for (const std::string& record : def->records) {
        std::printf("%s\n", record.c_str());
      }
    }
    return 0;
  }

  auto selected = [&](const BenchmarkDef& def) {
    if (filters.empty()) return true;
    for (const std::string& filter : filters) {
      if (def.name.find(filter) != std::string::npos) return true;
      if (std::find(def.labels.begin(), def.labels.end(), filter) !=
          def.labels.end()) {
        return true;
      }
    }
    return false;
  };

  if (!json_out_path.empty()) {
    options.json_out = std::fopen(json_out_path.c_str(), "w");
    if (options.json_out == nullptr) {
      std::fprintf(stderr, "cannot open --json-out file: %s\n",
                   json_out_path.c_str());
      return 2;
    }
  }

  if (!options.trace_out.empty()) {
    obs::TraceRecorder::Global().Enable();
  }

  int ran = 0;
  bool failed = false;
  for (const BenchmarkDef* def : sorted) {
    if (!selected(*def)) continue;
    ++ran;
    std::printf("\n==== %s [%s] (scale %.2f) ====\n", def->name.c_str(),
                JoinCsv(def->labels).c_str(), options.scale);
    std::fflush(stdout);
    BenchContext context(def, &options);
    WallTimer timer;
    if (def->init) def->init(context);
    for (int pass = 0; pass < options.warmup + options.iterations; ++pass) {
      context.measured_ = pass + 1 == options.warmup + options.iterations;
      context.emitted_.clear();
      def->run(context);
    }
    if (def->teardown) def->teardown(context);
    for (const std::string& record : def->records) {
      if (std::find(context.emitted_.begin(), context.emitted_.end(),
                    record) == context.emitted_.end()) {
        context.Fail("promised JSON record '" + record +
                     "' was never emitted — the benchmark silently "
                     "no-opped or its EmitJson call regressed");
      }
    }
    std::printf("---- %s done in %.3fs%s ----\n", def->name.c_str(),
                timer.Seconds(), context.failed() ? " [FAILED]" : "");
    std::fflush(stdout);
    failed = failed || context.failed();
  }
  if (options.json_out != nullptr) std::fclose(options.json_out);
  if (!options.trace_out.empty() && ran > 0) {
    const obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    if (recorder.WriteChromeTrace(options.trace_out)) {
      std::printf("trace: %lld spans (%lld dropped) -> %s\n",
                  static_cast<long long>(recorder.buffered_events()),
                  static_cast<long long>(recorder.dropped_events()),
                  options.trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write --trace-out file: %s\n",
                   options.trace_out.c_str());
      failed = true;
    }
  }
  if (ran == 0) {
    std::fprintf(stderr,
                 "no benchmark matched the filter — run --list for names "
                 "and labels\n");
    return 2;
  }
  std::printf("\nran %d benchmark%s: %s\n", ran, ran == 1 ? "" : "s",
              failed ? "FAILED" : "all ok");
  return failed ? 1 : 0;
}

}  // namespace alid::bench

#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"

namespace alid::obs {

namespace trace_internal {

std::atomic<bool> g_trace_enabled{false};

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Record(const char* cat, const char* name, int64_t start_ns,
            int64_t dur_ns) {
  TraceRecorder::Global().RecordImpl(cat, name, start_ns, dur_ns);
}

}  // namespace trace_internal

/// One recording thread's ring. Owned by the recorder, never destroyed
/// (threads cache the pointer in a thread_local), so a thread that outlives
/// an Enable/Clear cycle keeps a valid buffer. Each ring has its own mutex:
/// recording threads never contend with each other, only with an export or
/// clear touching their ring.
struct TraceRecorder::ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> ring;  // grows to capacity, then wraps
  size_t capacity = 0;
  uint64_t head = 0;  // events ever recorded; head - ring.size() dropped
  int tid = 0;
};

class TraceRecorder::Impl {
 public:
  std::mutex mu;  // guards buffers + ring_capacity; ordered before ring mus
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  size_t ring_capacity = ObsOptions{}.trace_ring_capacity;
};

TraceRecorder::Impl* TraceRecorder::impl() const {
  static Impl* instance = new Impl();
  return instance;
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = [] {
    auto* r = new TraceRecorder();
    // Drop/buffer accounting rides the global registry so a full ring is
    // visible in every metrics export, not just the trace file.
    MetricsRegistry::Global().AddCallbackGauge("trace_buffered_events", [] {
      return TraceRecorder::Global().buffered_events();
    });
    MetricsRegistry::Global().AddCallbackGauge("trace_dropped_events", [] {
      return TraceRecorder::Global().dropped_events();
    });
    return r;
  }();
  return *recorder;
}

void TraceRecorder::Enable(const ObsOptions& options) {
  ALID_CHECK(options.trace_ring_capacity >= 2);
  Impl* state = impl();
  {
    std::lock_guard<std::mutex> lock(state->mu);
    // Only a new capacity re-arms the rings (their wrap index depends on
    // it); re-enabling at the same capacity keeps what they hold.
    if (options.trace_ring_capacity != state->ring_capacity) {
      state->ring_capacity = options.trace_ring_capacity;
      for (auto& buffer : state->buffers) {
        std::lock_guard<std::mutex> buffer_lock(buffer->mu);
        buffer->ring.clear();
        buffer->ring.shrink_to_fit();
        buffer->capacity = state->ring_capacity;
        buffer->head = 0;
      }
    }
  }
  trace_internal::g_trace_enabled.store(true, std::memory_order_relaxed);
}

void TraceRecorder::Disable() {
  trace_internal::g_trace_enabled.store(false, std::memory_order_relaxed);
}

void TraceRecorder::Clear() {
  Impl* state = impl();
  std::lock_guard<std::mutex> lock(state->mu);
  for (auto& buffer : state->buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->ring.clear();
    buffer->head = 0;
  }
}

TraceRecorder::ThreadBuffer* TraceRecorder::RegisterThisThread() {
  Impl* state = impl();
  std::lock_guard<std::mutex> lock(state->mu);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->capacity = state->ring_capacity;
  buffer->tid = static_cast<int>(state->buffers.size()) + 1;
  ThreadBuffer* raw = buffer.get();
  state->buffers.push_back(std::move(buffer));
  return raw;
}

void TraceRecorder::RecordImpl(const char* cat, const char* name,
                               int64_t start_ns, int64_t dur_ns) {
  // A span armed before a Disable() still reaches here; drop it so export
  // sees only intervals from enabled windows.
  if (!enabled()) return;
  static thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) buffer = RegisterThisThread();
  std::lock_guard<std::mutex> lock(buffer->mu);
  TraceEvent event;
  event.cat = cat;
  event.name = name;
  event.tid = buffer->tid;
  event.start_ns = start_ns;
  event.dur_ns = dur_ns;
  if (buffer->ring.size() < buffer->capacity) {
    buffer->ring.push_back(event);
  } else {
    buffer->ring[static_cast<size_t>(buffer->head % buffer->capacity)] =
        event;
  }
  ++buffer->head;
}

int64_t TraceRecorder::buffered_events() const {
  Impl* state = impl();
  std::lock_guard<std::mutex> lock(state->mu);
  int64_t total = 0;
  for (const auto& buffer : state->buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    total += static_cast<int64_t>(buffer->ring.size());
  }
  return total;
}

int64_t TraceRecorder::dropped_events() const {
  Impl* state = impl();
  std::lock_guard<std::mutex> lock(state->mu);
  int64_t total = 0;
  for (const auto& buffer : state->buffers) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    if (buffer->head > buffer->ring.size()) {
      total += static_cast<int64_t>(buffer->head - buffer->ring.size());
    }
  }
  return total;
}

std::string TraceRecorder::ExportChromeTrace() const {
  Impl* state = impl();
  std::vector<TraceEvent> events;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    for (const auto& buffer : state->buffers) {
      std::lock_guard<std::mutex> buffer_lock(buffer->mu);
      const size_t size = buffer->ring.size();
      if (size == 0) continue;
      // Oldest-first: once wrapped, the slot at head % capacity is oldest.
      const size_t oldest =
          buffer->head > size
              ? static_cast<size_t>(buffer->head % buffer->capacity)
              : 0;
      for (size_t i = 0; i < size; ++i) {
        events.push_back(buffer->ring[(oldest + i) % size]);
      }
    }
  }
  int64_t epoch_ns = 0;
  for (const TraceEvent& event : events) {
    if (epoch_ns == 0 || event.start_ns < epoch_ns) epoch_ns = event.start_ns;
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_ns < b.start_ns;
            });
  std::string out = "{\"traceEvents\":[";
  char line[256];
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    const double ts_us =
        static_cast<double>(event.start_ns - epoch_ns) / 1000.0;
    const double dur_us = static_cast<double>(event.dur_ns) / 1000.0;
    const int n = std::snprintf(
        line, sizeof(line),
        "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
        "\"cat\":\"%s\",\"name\":\"%s\"}",
        i == 0 ? "" : ",", event.tid, ts_us, dur_us, event.cat, event.name);
    if (n > 0) out.append(line, static_cast<size_t>(n));
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool TraceRecorder::WriteChromeTrace(const std::string& path) const {
  const std::string json = ExportChromeTrace();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const bool ok = std::fclose(file) == 0 && written == json.size();
  return ok;
}

namespace {

/// ALID_TRACE=1 (anything but "" / "0") arms tracing at process start.
/// This initializer lives in the same TU as trace_internal::Record, so any
/// binary with at least one ALID_TRACE_SCOPE links it in.
[[maybe_unused]] const bool g_trace_env_applied = [] {
  const char* env = std::getenv("ALID_TRACE");
  if (env != nullptr && env[0] != '\0' &&
      !(env[0] == '0' && env[1] == '\0')) {
    TraceRecorder::Global().Enable();
  }
  return true;
}();

}  // namespace

}  // namespace alid::obs

#ifndef ALID_OBS_TRACE_H_
#define ALID_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace alid::obs {

/// Runtime observability knobs (tracing side). The recorder also turns on
/// at process start when the ALID_TRACE environment variable is set to
/// anything but "" or "0".
struct ObsOptions {
  /// Per-thread ring capacity in events; when a thread's ring is full the
  /// oldest events are overwritten (drop-oldest) and the drop is counted
  /// (trace_dropped_events in MetricsRegistry::Global()). 16384 events ≈
  /// 0.75 MiB per recording thread.
  size_t trace_ring_capacity = 16384;
};

/// One completed span. `cat`/`name` must be string literals (the macro's
/// contract): the recorder stores the pointers, never copies of the text,
/// so the enabled hot path allocates nothing per event either.
struct TraceEvent {
  const char* cat = nullptr;
  const char* name = nullptr;
  int tid = 0;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

namespace trace_internal {
/// The single branch a disabled span pays (one relaxed load, no call, no
/// allocation). Written only by TraceRecorder::Enable/Disable.
extern std::atomic<bool> g_trace_enabled;

int64_t NowNanos();
void Record(const char* cat, const char* name, int64_t start_ns,
            int64_t dur_ns);
}  // namespace trace_internal

/// The process-wide span recorder behind ALID_TRACE_SCOPE: per-thread
/// bounded drop-oldest ring buffers (each guarded by its own uncontended
/// mutex, so the tracer is TSan-clean and recording threads never touch
/// each other's cache lines), exported as Chrome trace-event JSON that
/// chrome://tracing and Perfetto load directly.
///
/// Tracing only timestamps — it reads no algorithm state and feeds nothing
/// back — so streamed/served results are bit-identical with tracing on or
/// off (asserted in tests/obs_test.cc).
class TraceRecorder {
 public:
  static TraceRecorder& Global();

  /// Turns recording on. Buffered events survive a Disable()/Enable() pair;
  /// only a changed capacity re-arms every thread ring, empty, at the new
  /// size. Clear() is the way to drop them.
  void Enable(const ObsOptions& options = {});
  void Disable();
  bool enabled() const {
    return trace_internal::g_trace_enabled.load(std::memory_order_relaxed);
  }

  /// Drops buffered events and zeroes drop accounting; keeps enabled state.
  void Clear();

  /// Events currently buffered / overwritten-by-wraparound, across threads.
  int64_t buffered_events() const;
  int64_t dropped_events() const;

  /// `{"traceEvents":[...]}` — complete ("ph":"X") events, microsecond
  /// timestamps, one tid per recording thread.
  std::string ExportChromeTrace() const;
  /// Convenience: ExportChromeTrace() to a file. False on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  TraceRecorder() = default;
  friend void trace_internal::Record(const char* cat, const char* name,
                                     int64_t start_ns, int64_t dur_ns);
  struct ThreadBuffer;
  ThreadBuffer* RegisterThisThread();
  void RecordImpl(const char* cat, const char* name, int64_t start_ns,
                  int64_t dur_ns);
  class Impl;
  Impl* impl() const;
};

/// RAII span: times its scope and hands the completed interval to the
/// recorder. When tracing is disabled the constructor is one relaxed load
/// plus one branch and the destructor one branch — no allocation, no call.
class TraceSpan {
 public:
  /// Both arguments must be string literals (or otherwise outlive the
  /// recorder's buffers) — see TraceEvent.
  TraceSpan(const char* cat, const char* name) {
    if (trace_internal::g_trace_enabled.load(std::memory_order_relaxed)) {
      cat_ = cat;
      name_ = name;
      start_ns_ = trace_internal::NowNanos();
    }
  }
  ~TraceSpan() {
    if (cat_ != nullptr) {
      trace_internal::Record(cat_, name_, start_ns_,
                             trace_internal::NowNanos() - start_ns_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* cat_ = nullptr;  // nullptr = span not armed (tracing off)
  const char* name_ = nullptr;
  int64_t start_ns_ = 0;
};

}  // namespace alid::obs

#define ALID_TRACE_CONCAT_INNER(a, b) a##b
#define ALID_TRACE_CONCAT(a, b) ALID_TRACE_CONCAT_INNER(a, b)

/// Times the rest of the enclosing scope as one span, e.g.
///   ALID_TRACE_SCOPE("stream", "absorb_score");
/// `cat` groups related phases (stream / publish / serve / arena); `name`
/// is the phase. Both must be string literals.
#define ALID_TRACE_SCOPE(cat, name)                                   \
  ::alid::obs::TraceSpan ALID_TRACE_CONCAT(alid_trace_span_, __LINE__)( \
      cat, name)

#endif  // ALID_OBS_TRACE_H_

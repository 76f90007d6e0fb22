#ifndef ALID_PERFBENCH_SPAN_TRACE_H_
#define ALID_PERFBENCH_SPAN_TRACE_H_

// The traced run's span recorder. Spans are opened in the benchmark's own
// code around each call into a layer's public functions; each records a
// name, start, end, the enclosing span on the same thread (its parent) and
// a request id (one per batch, publish or query request). Every thread
// appends to its own growable buffer, so no span is ever dropped; the
// buffers are merged and written out once the run ends.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace alid::perfbench {

/// One finished span. `id` is unique within a tracer; `parent` is the id of
/// the enclosing span or -1 for a root.
struct SpanRecord {
  int64_t id = 0;
  int64_t parent = -1;
  uint64_t request = 0;
  const char* name = nullptr;  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Busy and self time of every span carrying one name. Self time is the
/// span's duration minus the part of it covered by its child spans.
struct LayerTime {
  int64_t count = 0;
  double busy_s = 0.0;
  double self_s = 0.0;
};

/// Folds spans into per-name busy/self time.
std::map<std::string, LayerTime> FoldSpans(
    const std::vector<SpanRecord>& spans);

class SpanTracer {
 public:
  SpanTracer() = default;
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  /// Every span recorded so far, all threads, in (thread, open) order. Call
  /// only while no thread is recording.
  std::vector<SpanRecord> Collect() const;

  /// Writes Collect() as tab-separated `id parent request name start_ns
  /// end_ns` lines. Returns false when the file cannot be written.
  bool WriteTsv(const std::string& path) const;

 private:
  friend class SpanScope;
  struct ThreadBuffer {
    int64_t thread_index = 0;
    std::vector<SpanRecord> spans;
    std::vector<size_t> open;  // indices into spans of the open scopes
  };
  ThreadBuffer* BufferForThisThread();

  const uint64_t id_ = NextId();  // tells this tracer's thread slots apart
  static uint64_t NextId();
  mutable std::mutex mu_;  // guards buffers_ (registration and Collect)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Monotonic nanoseconds (steady clock).
int64_t NowNs();

/// Records one span for its lifetime; a no-op when `tracer` is null. A span
/// opened with request 0 inherits the request of its enclosing span.
class SpanScope {
 public:
  SpanScope(SpanTracer* tracer, const char* name, uint64_t request = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanTracer::ThreadBuffer* buffer_ = nullptr;
  size_t index_ = 0;
};

}  // namespace alid::perfbench

#endif  // ALID_PERFBENCH_SPAN_TRACE_H_

#include "span_trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace alid::perfbench {

namespace {

// Span ids are (thread index << 40) | position in that thread's buffer.
constexpr int kThreadShift = 40;

struct ThreadSlot {
  uint64_t tracer = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot tls_slot;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SpanTracer::NextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

SpanTracer::ThreadBuffer* SpanTracer::BufferForThisThread() {
  if (tls_slot.tracer == id_) {
    return static_cast<ThreadBuffer*>(tls_slot.buffer);
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->thread_index = static_cast<int64_t>(buffers_.size());
  buffer->spans.reserve(1 << 14);
  buffers_.push_back(std::move(buffer));
  tls_slot = {id_, buffers_.back().get()};
  return buffers_.back().get();
}

std::vector<SpanRecord> SpanTracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> all;
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

bool SpanTracer::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\n");
  for (const SpanRecord& s : Collect()) {
    std::fprintf(out, "%lld\t%lld\t%llu\t%s\t%lld\t%lld\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

SpanScope::SpanScope(SpanTracer* tracer, const char* name, uint64_t request) {
  if (tracer == nullptr) return;
  buffer_ = tracer->BufferForThisThread();
  SpanRecord span;
  span.id = (buffer_->thread_index << kThreadShift) |
            static_cast<int64_t>(buffer_->spans.size());
  span.name = name;
  span.request = request;
  if (!buffer_->open.empty()) {
    const SpanRecord& parent = buffer_->spans[buffer_->open.back()];
    span.parent = parent.id;
    if (request == 0) span.request = parent.request;
  }
  index_ = buffer_->spans.size();
  buffer_->open.push_back(index_);
  span.start_ns = NowNs();
  buffer_->spans.push_back(span);
}

SpanScope::~SpanScope() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_ns = NowNs();
  buffer_->open.pop_back();
}

std::map<std::string, LayerTime> FoldSpans(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, size_t> position;
  position.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) position[spans[i].id] = i;

  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) continue;
    const auto it = position.find(spans[i].parent);
    if (it != position.end()) children[it->second].push_back(i);
  }

  std::map<std::string, LayerTime> layers;
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& span = spans[i];
    const int64_t duration = span.end_ns - span.start_ns;
    // The union of the children's intervals, clipped to this span.
    covered.clear();
    for (const size_t c : children[i]) {
      const int64_t lo = std::max(spans[c].start_ns, span.start_ns);
      const int64_t hi = std::min(spans[c].end_ns, span.end_ns);
      if (hi > lo) covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    int64_t child_ns = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    for (const auto& [lo, hi] : covered) {
      if (run_hi < run_lo || lo > run_hi) {
        if (run_hi > run_lo) child_ns += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) child_ns += run_hi - run_lo;

    LayerTime& layer = layers[span.name];
    ++layer.count;
    layer.busy_s += static_cast<double>(duration) * 1e-9;
    layer.self_s += static_cast<double>(duration - child_ns) * 1e-9;
  }
  return layers;
}

}  // namespace alid::perfbench

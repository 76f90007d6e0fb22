#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace alid::perfbench {

namespace {

long NearestRank(long count, double q) {
  const long rank = static_cast<long>(std::ceil(q * static_cast<double>(count)
                                                - 1e-9));
  return std::clamp(rank, 1L, count);
}

}  // namespace

double RankQuantile(std::vector<double> samples, double q) {
  const long rank = NearestRank(static_cast<long>(samples.size()), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[static_cast<size_t>(rank - 1)];
}

long SamplesBeyond(long count, double q) {
  return count <= 0 ? 0 : count - NearestRank(count, q);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::optional<double> Tail(const std::vector<double>& samples, double q) {
  if (SamplesBeyond(static_cast<long>(samples.size()), q) < kMinTailBeyond) {
    return std::nullopt;
  }
  return RankQuantile(samples, q);
}

Summary Summarize(const std::vector<double>& samples) {
  Summary summary;
  summary.count = static_cast<long>(samples.size());
  summary.median = Median(samples);
  for (const double q : {0.9, 0.95, 0.99, 0.999}) {
    if (const std::optional<double> value = Tail(samples, q)) {
      summary.tail_q = q;
      summary.tail = *value;
    }
  }
  return summary;
}

std::string FormatSummary(const Summary& summary, double scale,
                          const char* unit) {
  char buffer[160];
  if (summary.tail_q > 0.0) {
    std::snprintf(buffer, sizeof(buffer), "p50=%.4g%s p%g=%.4g%s (n=%ld)",
                  summary.median * scale, unit, summary.tail_q * 100.0,
                  summary.tail * scale, unit, summary.count);
  } else {
    std::snprintf(buffer, sizeof(buffer), "p50=%.4g%s (n=%ld, no tail)",
                  summary.median * scale, unit, summary.count);
  }
  return buffer;
}

}  // namespace alid::perfbench

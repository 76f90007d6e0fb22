#ifndef ALID_PERFBENCH_STATS_H_
#define ALID_PERFBENCH_STATS_H_

// The benchmark's one percentile helper. Every timing the benchmark reports
// goes through Summarize(): a median plus the highest standard percentile
// that still has at least kMinTailBeyond samples strictly above its rank,
// each printed with the sample count. A named tail (`*_p90_s`, `*_p99_us`)
// is only emitted when the run produced enough samples for it.

#include <optional>
#include <string>
#include <vector>

namespace alid::perfbench {

/// Samples a tail percentile must have beyond its rank to be reported.
inline constexpr int kMinTailBeyond = 10;

/// Nearest-rank quantile: the value at 1-based rank ceil(q * n) of the
/// sorted samples. Requires a non-empty input and 0 < q <= 1.
double RankQuantile(std::vector<double> samples, double q);

/// Samples lying strictly beyond the nearest-rank position of q.
long SamplesBeyond(long count, double q);

/// Median (mean of the two middle samples when the count is even); 0 for an
/// empty input.
double Median(std::vector<double> samples);

/// The quantile q, or nothing when fewer than kMinTailBeyond samples lie
/// beyond it — the refusal behind every named tail metric.
std::optional<double> Tail(const std::vector<double>& samples, double q);

/// A timing as the benchmark reports it.
struct Summary {
  long count = 0;
  double median = 0.0;
  /// The highest of p90/p95/p99/p99.9 with >= kMinTailBeyond samples
  /// beyond it; 0 when even p90 does not qualify (fewer than 100 samples).
  double tail_q = 0.0;
  double tail = 0.0;
};
Summary Summarize(const std::vector<double>& samples);

/// "p50=1.234 p95=2.345 (n=812)" with values multiplied by `scale` (e.g.
/// 1e3 to print milliseconds), for the human-readable report.
std::string FormatSummary(const Summary& summary, double scale,
                          const char* unit);

}  // namespace alid::perfbench

#endif  // ALID_PERFBENCH_STATS_H_

// Table 1 — complexity of the affinity-matrix work under the three a*
// regimes (Section 4.5), verified empirically.
//
// For each regime the bench measures ALID's affinity-entry count (time-side
// cost) and peak local-matrix bytes (space-side cost) across growing n, fits
// log-log slopes, and prints them against the theoretical orders:
//   a* = omega*n/20 : time O(n^2),     space O(n^2)
//   a* = n^eta/20   : time O(n^{1+eta}), space O(n^{2 eta})
//   a* <= P/20      : time O(n),       space O(1)
//
// The time-side count is the stateless oracle's entries_computed: every
// kernel evaluation ALID requests, which is the Table 1 quantity itself.
#include "bench_util.h"
#include "registry.h"

#include "data/synthetic.h"

namespace alid::bench {
namespace {

struct RegimeSpec {
  const char* name;
  SyntheticRegime regime;
  double theory_time_slope;
  double theory_space_slope;
};

struct RegimeResult {
  const char* name;
  double computed_slope = 0.0;
  double space_slope = 0.0;
};

void Run(BenchContext& ctx) {
  std::printf("Table 1: affinity-work complexity of ALID per a* regime "
              "(scale %.2f)\n", ctx.scale());
  const std::vector<double> sizes{800, 1600, 3200, 6400};
  const RegimeSpec specs[] = {
      {"a*=omega*n (omega=1)", SyntheticRegime::kProportional, 2.0, 2.0},
      {"a*=n^eta (eta=0.9)", SyntheticRegime::kSublinear, 1.9, 1.8},
      {"a*<=P (P=400)", SyntheticRegime::kBounded, 1.0, 0.0},
  };

  std::vector<RegimeResult> results;
  std::printf("\n%-22s %-11s %-11s %-12s %-12s\n", "regime", "t-slope(th)",
              "t-slope(ms)", "sp-slope(th)", "sp-slope(ms)");
  for (const RegimeSpec& spec : specs) {
    RegimeResult result;
    result.name = spec.name;
    std::vector<double> xs, computed, bytes;
    for (double base : sizes) {
      SyntheticConfig cfg;
      cfg.n = ctx.Scaled(base);
      cfg.dim = 100;
      cfg.num_clusters = 20;
      cfg.regime = spec.regime;
      cfg.omega = 1.0;
      cfg.eta = 0.9;
      cfg.P = 400;  // paper: P=1000 vs n<=1e5; scaled to this grid
      cfg.seed = 601;
      LabeledData data = MakeSynthetic(cfg);

      AffinityFunction affinity({.k = data.suggested_k, .p = 2.0});
      LazyAffinityOracle oracle(data.data, affinity);
      LshIndex lsh(data.data, MakeLshParams(data));
      AlidDetector detector(oracle, lsh, {});
      oracle.ResetCounters();
      detector.DetectAll();
      xs.push_back(data.size());
      computed.push_back(static_cast<double>(oracle.entries_computed()));
      bytes.push_back(static_cast<double>(oracle.peak_bytes()));
    }
    result.computed_slope = LogLogSlope(xs, computed);
    result.space_slope = LogLogSlope(xs, bytes);
    std::printf("%-22s %-11.1f %-11.2f %-12.1f %-12.2f\n", spec.name,
                spec.theory_time_slope, result.computed_slope,
                spec.theory_space_slope, result.space_slope);
    results.push_back(result);
  }
  std::printf("\nNote: the measured time slope (ms) counts every kernel "
              "evaluation ALID requests. Space for the bounded regime is "
              "O(a*(a*+delta)) — constant in n, so its measured slope should "
              "hover near 0; "
              "the sublinear regime's theoretical slopes are 1+eta and "
              "2*eta.\n");
  std::string json = "{\"bench\":\"table1_complexity\",\"rows\":[";
  for (size_t i = 0; i < results.size(); ++i) {
    const RegimeResult& r = results[i];
    AppendF(json,
            "%s{\"regime\":\"%s\",\"computed_slope\":%.4f,"
            "\"space_slope\":%.4f}",
            i == 0 ? "" : ",", r.name, r.computed_slope, r.space_slope);
  }
  json += "]}";
  ctx.EmitJson(json);
}

ALID_BENCHMARK("table1_complexity", "paper,complexity", "table1_complexity",
               Run);

}  // namespace
}  // namespace alid::bench

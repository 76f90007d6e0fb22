// Component microbenchmarks: kernel evaluation, lazy column computation,
// LSH build/query, one LID invasion, replicator iteration and eigensolvers.
//
// Mostly not a paper artifact — used to attribute the figure-level costs to
// components. "micro_components" reports seconds-per-call for each component
// kernel (adaptive timed loops, KeepAlive sinks — the google-benchmark idiom
// without the dependency).
#include "bench_util.h"
#include "registry.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "baselines/replicator.h"
#include "common/random.h"
#include "core/lid.h"
#include "data/synthetic.h"
#include "linalg/jacobi.h"
#include "linalg/lanczos.h"
#include "lsh/lsh_index.h"
#include "simd/simd_dispatch.h"
#include "simd/soa_block.h"

namespace alid::bench {
namespace {

LabeledData MakeData(Index n, int dim) {
  SyntheticConfig cfg;
  cfg.n = n;
  cfg.dim = dim;
  cfg.num_clusters = 10;
  cfg.omega = 0.6;
  cfg.seed = 901;
  return MakeSynthetic(cfg);
}

DenseMatrix RandomSymmetric(Index n, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(n, n, 0.0);
  for (Index i = 0; i < n; ++i) {
    for (Index j = i; j < n; ++j) {
      const Scalar v = rng.Gaussian();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

struct ComponentRow {
  std::string component;
  int arg;
  double seconds_per_call;
};

void RunComponents(BenchContext& ctx) {
  std::printf("Component micro-costs (adaptive timed loops)\n");
  std::vector<ComponentRow> rows;
  auto time_component = [&](const char* component, int arg,
                            const std::function<void()>& fn) {
    const double per_call = TimePerCall(fn);
    std::printf("  %-22s arg=%-5d %.3e s/call\n", component, arg, per_call);
    rows.push_back({component, arg, per_call});
  };

  for (int dim : {16, 128, 512}) {
    LabeledData data = MakeData(1000, dim);
    AffinityFunction f({.k = data.suggested_k, .p = 2.0});
    Index i = 0;
    time_component("kernel_evaluation", dim, [&] {
      KeepAlive(f(data.data, i % 1000, (i * 7 + 1) % 1000));
      ++i;
    });
  }

  {
    LabeledData data = MakeData(4000, 100);
    AffinityFunction f({.k = data.suggested_k, .p = 2.0});
    for (int rows_per_col : {64, 256, 1024}) {
      LazyAffinityOracle oracle(data.data, f);
      IndexList col_rows(rows_per_col);
      for (size_t t = 0; t < col_rows.size(); ++t) {
        col_rows[t] = static_cast<Index>(t * 3);
      }
      Index col = 0;
      time_component("lazy_column", rows_per_col, [&] {
        KeepAlive(oracle.Column(col_rows, col % 4000));
        ++col;
      });
    }
  }

  for (int n : {1000, 4000}) {
    LabeledData data = MakeData(n, 100);
    time_component("lsh_build", n, [&] {
      LshParams lp;
      lp.num_tables = 8;
      lp.num_projections = 6;
      lp.segment_length = data.suggested_lsh_r;
      LshIndex lsh(data.data, lp);
      KeepAlive(lsh.size());
    });
  }

  {
    LabeledData data = MakeData(8000, 100);
    LshParams lp;
    lp.num_tables = 8;
    lp.num_projections = 6;
    lp.segment_length = data.suggested_lsh_r;
    LshIndex lsh(data.data, lp);
    Index i = 0;
    time_component("lsh_query", 8000, [&] {
      KeepAlive(lsh.QueryByIndex(i % 8000));
      ++i;
    });
  }

  for (int n : {1000, 4000}) {
    LabeledData data = MakeData(n, 100);
    AffinityFunction f({.k = data.suggested_k, .p = 2.0});
    LazyAffinityOracle oracle(data.data, f);
    time_component("lid_detection", n, [&] {
      Lid lid(oracle, 0, {});
      IndexList cluster0 = data.true_clusters[0];
      cluster0.erase(cluster0.begin());  // the seed itself
      lid.UpdateRange(cluster0);
      KeepAlive(lid.Run());
    });
  }

  for (int n : {500, 1000}) {
    LabeledData data = MakeData(n, 50);
    AffinityFunction f({.k = data.suggested_k, .p = 2.0});
    AffinityMatrix matrix(data.data, f);
    AffinityView view(&matrix.matrix());
    std::vector<Scalar> x(data.size(),
                          1.0 / static_cast<Scalar>(data.size()));
    ReplicatorOptions opts;
    opts.max_iterations = 1;
    time_component("replicator_iteration", n, [&] {
      KeepAlive(RunReplicatorDynamics(view, x, opts));
    });
  }

  for (int n : {32, 64, 128}) {
    DenseMatrix m = RandomSymmetric(n, 5);
    time_component("jacobi_eigen", n, [&] { KeepAlive(JacobiEigenSolver(m)); });
  }

  for (int n : {256, 512}) {
    DenseMatrix m = RandomSymmetric(n, 7);
    auto matvec = [&](std::span<const Scalar> x) { return m.MatVec(x); };
    time_component("lanczos_top4", n,
                   [&] { KeepAlive(LanczosTopK(n, 4, matvec)); });
  }

  std::string json = "{\"bench\":\"micro_components\",\"rows\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    AppendF(json,
            "%s{\"component\":\"%s\",\"arg\":%d,"
            "\"seconds_per_call\":%.9f}",
            i == 0 ? "" : ",", rows[i].component.c_str(), rows[i].arg,
            rows[i].seconds_per_call);
  }
  json += "]}";
  ctx.EmitJson(json);
}

ALID_BENCHMARK("micro_components", "micro", "micro_components",
               RunComponents);

// ---------------------------------------------------------------------------
// Row-major scalar vs SoA tile kernels, one column per available ISA.
//
// The Eq.-1 inner loop of absorb/serve scoring — the weighted kernel sum of
// one cluster's support against a query — timed three ways per dimension:
// the row-major scalar loop (the pre-SIMD path), the SoA tiles through the
// scalar ops (layout effect alone), and the SoA tiles through each vector
// ISA the host can run (scalar/avx2/widest — the dispatch axis). Outputs
// are bit-compared against the row-major loop first; a single differing bit
// fails the benchmark, because the vector path is only allowed to exist
// under the exactness contract (README "SIMD dispatch"). The "simd_kernel"
// record is the gate-able result: per-ISA member-evaluations/sec and the
// speedup over the row-major baseline. Its "lsh_hash" rows do the same for
// the p-stable hashing layer: ns per point for every table's key, tiled
// projections through each ISA against the per-table row-major loop.
// ---------------------------------------------------------------------------
struct KernelFixture {
  Dataset data;
  std::vector<Scalar> weights;
  SoaBlock block;
  std::vector<Scalar> queries;  // row-major, num_queries x dim
  Index num_queries = 0;
  int dim;

  KernelFixture(Index support, int dim_, uint64_t seed)
      : data(dim_), dim(dim_) {
    Rng rng(seed);
    std::vector<Scalar> center(dim);
    for (auto& v : center) v = rng.Uniform(0.0, 100.0);
    std::vector<Scalar> point(dim);
    for (Index i = 0; i < support; ++i) {
      for (int d = 0; d < dim; ++d) point[d] = center[d] + rng.Gaussian();
      data.Append(point);
    }
    weights.assign(support, 1.0 / static_cast<Scalar>(support));
    IndexList members(static_cast<size_t>(support));
    for (Index i = 0; i < support; ++i) members[static_cast<size_t>(i)] = i;
    block.GatherRows(data, members);
    num_queries = 64;
    for (Index q = 0; q < num_queries; ++q) {
      const auto row = data[static_cast<Index>(rng.UniformInt(0, support - 1))];
      const double magnitude = 0.5 * static_cast<double>(q % 8);
      for (int d = 0; d < dim; ++d) {
        queries.push_back(row[d] + rng.Gaussian() * magnitude);
      }
    }
  }

  const Scalar* Query(Index q) const {
    return queries.data() + static_cast<size_t>(q % num_queries) * dim;
  }
};

// The pre-SIMD inner loop, verbatim: serial member-order accumulation over
// row-major storage.
Scalar RowMajorKernelSum(const KernelFixture& f, const AffinityFunction& fn,
                         const Scalar* query) {
  const std::span<const Scalar> q(query, static_cast<size_t>(f.dim));
  Scalar sum = 0.0;
  for (Index i = 0; i < f.data.size(); ++i) {
    sum += f.weights[i] * fn.FromDistance(f.data.DistanceTo(i, q));
  }
  return sum;
}

// The per-table row-major p-stable hasher that LshIndex's projection tiles
// replaced: the same Rng(seed) draws (each table's projection matrix, then
// its offsets), one serial dot product per projection, the same saturating
// floor and the word-wise fold of the floors, finalized by SplitMix64. Its
// keys are what every ISA must match.
class RowMajorLshReference {
 public:
  RowMajorLshReference(int dim, const LshParams& params)
      : dim_(dim), params_(params) {
    Rng rng(params.seed);
    for (int t = 0; t < params.num_tables; ++t) {
      for (int v = 0; v < params.num_projections * dim; ++v) {
        projections_.push_back(rng.Gaussian());
      }
      for (int p = 0; p < params.num_projections; ++p) {
        offsets_.push_back(rng.Uniform(0.0, params.segment_length));
      }
    }
  }

  void Keys(const Scalar* point, uint64_t* out) const {
    constexpr Scalar kMin = std::numeric_limits<int32_t>::min();
    constexpr Scalar kMax = std::numeric_limits<int32_t>::max();
    for (int t = 0; t < params_.num_tables; ++t) {
      uint64_t h = 0;
      for (int p = 0; p < params_.num_projections; ++p) {
        const size_t lane =
            static_cast<size_t>(t) * params_.num_projections + p;
        const Scalar* proj = projections_.data() + lane * dim_;
        Scalar dot = 0.0;
        for (int k = 0; k < dim_; ++k) dot += proj[k] * point[k];
        const Scalar f =
            std::floor((dot + offsets_[lane]) / params_.segment_length);
        int32_t floor = std::numeric_limits<int32_t>::min();  // NaN too
        if (f > kMax) {
          floor = std::numeric_limits<int32_t>::max();
        } else if (f >= kMin) {
          floor = static_cast<int32_t>(f);
        }
        h = (h ^ static_cast<uint32_t>(floor)) * 0x9E3779B97F4A7C15ull;
      }
      out[t] = SplitMix64(h);
    }
  }

 private:
  int dim_;
  LshParams params_;
  std::vector<Scalar> projections_;  // row-major, one row per lane
  std::vector<Scalar> offsets_;
};

// Appends the "lsh_hash" rows: every table's key for one point (8 tables x
// 12 projections), per ISA, bit-compared against RowMajorLshReference on
// every probe first. Returns the mismatch total.
int64_t AppendLshHashRows(const std::vector<SimdIsa>& isas, bool* first,
                          std::string& json) {
  int64_t total_mismatches = 0;
  for (int dim : {16, 64, 128}) {
    LshParams params;
    params.num_tables = 8;
    params.num_projections = 12;
    params.segment_length = 4.0;
    Rng rng(4001 + dim);
    constexpr int kPoints = 64;
    std::vector<Scalar> points(static_cast<size_t>(kPoints) * dim);
    for (auto& v : points) v = rng.Uniform(-20.0, 20.0);
    auto point = [&](int q) {
      return std::span<const Scalar>(
          points.data() + static_cast<size_t>(q % kPoints) * dim,
          static_cast<size_t>(dim));
    };
    const RowMajorLshReference reference(dim, params);
    std::vector<uint64_t> want(static_cast<size_t>(params.num_tables));
    std::vector<uint64_t> got(want.size());

    int q = 0;
    const double rowmajor_per_call = TimePerCall([&] {
      reference.Keys(point(q++).data(), want.data());
      KeepAlive(want[0]);
    });
    for (SimdIsa isa : isas) {
      ScopedSimdIsaOverride pin(isa);
      const LshIndex hasher(dim, params);
      int mismatches = 0;
      for (int probe = 0; probe < kPoints; ++probe) {
        reference.Keys(point(probe).data(), want.data());
        hasher.ComputePointKeys(point(probe), got.data());
        if (want != got) ++mismatches;
      }
      total_mismatches += mismatches;

      int v = 0;
      const double per_call = TimePerCall([&] {
        hasher.ComputePointKeys(point(v++), got.data());
        KeepAlive(got[0]);
      });
      const double speedup =
          per_call > 0.0 ? rowmajor_per_call / per_call : 0.0;
      std::printf("  lsh_hash dim=%-4d 8x12    %-7s %8.1f ns/point  "
                  "speedup %.2fx  mismatches %d\n",
                  dim, SimdIsaName(isa), per_call * 1e9, speedup, mismatches);
      AppendF(json,
              "%s{\"kernel\":\"lsh_hash\",\"dim\":%d,\"tables\":%d,"
              "\"projections\":%d,\"isa\":\"%s\",\"ns_per_point\":%.1f,"
              "\"speedup_vs_rowmajor\":%.4f,\"mismatches\":%d}",
              *first ? "" : ",", dim, params.num_tables,
              params.num_projections, SimdIsaName(isa), per_call * 1e9,
              speedup, mismatches);
      *first = false;
    }
  }
  return total_mismatches;
}

void RunSimd(BenchContext& ctx) {
  const auto isas = AvailableSimdIsas();
  std::printf("SoA tile kernels vs row-major scalar (active ISA: %s)\n",
              SimdIsaName(ActiveSimdIsa()));
  std::string json = "{\"bench\":\"simd_kernel\",\"active_isa\":\"";
  json += SimdIsaName(ActiveSimdIsa());
  json += "\",\"rows\":[";
  bool first = true;
  int64_t total_mismatches = 0;
  for (int dim : {16, 64, 256}) {
    const Index support =
        std::max<Index>(ctx.Scaled(2048), 4 * kSimdTileLanes);
    KernelFixture fixture(support, dim, 3001 + dim);
    AffinityFunction fn(
        {.k = AffinityFunction::SuggestScalingFactor(fixture.data, 2.0, 0.9),
         .p = 2.0});

    Index q = 0;
    const double rowmajor_per_call = TimePerCall([&] {
      KeepAlive(RowMajorKernelSum(fixture, fn, fixture.Query(q)));
      ++q;
    });

    for (SimdIsa isa : isas) {
      const SimdKernelOps& ops = *SimdOpsFor(isa);
      // Exactness first: the tile path must reproduce the row-major sum
      // bit for bit on every probe query before its timing means anything.
      int mismatches = 0;
      for (Index probe = 0; probe < fixture.num_queries; ++probe) {
        const Scalar want =
            RowMajorKernelSum(fixture, fn, fixture.Query(probe));
        const Scalar got = SoaWeightedKernelSum(
            ops, fixture.block, fixture.weights, fn, fixture.Query(probe));
        if (std::memcmp(&want, &got, sizeof(Scalar)) != 0) ++mismatches;
      }
      total_mismatches += mismatches;

      Index v = 0;
      const double per_call = TimePerCall([&] {
        KeepAlive(SoaWeightedKernelSum(ops, fixture.block, fixture.weights,
                                       fn, fixture.Query(v)));
        ++v;
      });
      const double evals_per_sec =
          per_call > 0.0 ? static_cast<double>(support) / per_call : 0.0;
      const double speedup =
          per_call > 0.0 ? rowmajor_per_call / per_call : 0.0;
      std::printf("  dim=%-4d support=%-5d %-7s %.3e s/call  "
                  "%10.0f evals/s  speedup %.2fx  mismatches %d\n",
                  dim, support, ops.name, per_call, evals_per_sec, speedup,
                  mismatches);
      AppendF(json,
              "%s{\"kernel\":\"eq1_sum\",\"dim\":%d,\"support\":%d,"
              "\"isa\":\"%s\","
              "\"seconds_per_call\":%.9f,\"evals_per_sec\":%.0f,"
              "\"speedup_vs_rowmajor\":%.4f,\"mismatches\":%d}",
              first ? "" : ",", dim, support, ops.name, per_call,
              evals_per_sec, speedup, mismatches);
      first = false;
    }
  }
  total_mismatches += AppendLshHashRows(isas, &first, json);
  AppendF(json, "],\"mismatches\":%lld}",
          static_cast<long long>(total_mismatches));
  ctx.EmitJson(json);
  if (total_mismatches > 0) {
    ctx.Fail("a tile kernel disagreed with its row-major scalar loop — "
             "the bit-exactness contract is broken");
  }
}

ALID_BENCHMARK("micro_simd", "micro", "simd_kernel", RunSimd);

}  // namespace
}  // namespace alid::bench

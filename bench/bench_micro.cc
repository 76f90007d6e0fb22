// Component microbenchmarks: kernel evaluation, lazy column computation,
// LSH build/query, one LID invasion, replicator iteration, eigensolvers, and
// sketch-filtered vs full absorb scoring.
//
// Mostly not a paper artifact — used to attribute the figure-level costs to
// components. Two registrations: "micro_components" reports seconds-per-call
// for each component kernel (adaptive timed loops, KeepAlive sinks — the
// google-benchmark idiom without the dependency), and "micro_sketch" keeps
// the sketch-vs-full absorb sweep with its exactness contract — a sketch
// that changed one answer bit would be a bug, not a speedup, so a mismatch
// fails the benchmark (and with it the CI bench step).
#include "bench_util.h"
#include "registry.h"

#include <cstring>
#include <memory>

#include "baselines/replicator.h"
#include "common/random.h"
#include "core/lid.h"
#include "data/synthetic.h"
#include "linalg/jacobi.h"
#include "linalg/lanczos.h"
#include "serve/cluster_snapshot.h"
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
// Sketch-filtered vs full Theorem-1 absorb scoring at a* in {64, 256, 1024}.
//
// One dense Gaussian cluster of a* members is exported into two snapshots —
// sketch on and sketch off — and assignment queries from three bands
// (absorbing jitter, the collide-but-fail near-miss band, far points) score
// against it. The LSH segment length is set far above the data scale so
// every query collides and the measurement isolates the scoring itself;
// answers are bit-identical by the sketch's exactness contract (asserted).
// ---------------------------------------------------------------------------
struct AbsorbFixture {
  static constexpr int dim = 12;
  static constexpr Index kQueryCount = 512;

  Dataset data;
  std::shared_ptr<const ClusterSnapshot> with_sketch;
  std::shared_ptr<const ClusterSnapshot> without_sketch;
  std::vector<Scalar> queries;  // row-major, kQueryCount x dim

  explicit AbsorbFixture(Index support) : data(dim) {
    Rng rng(811);
    std::vector<Scalar> center(dim);
    for (auto& v : center) v = rng.Uniform(0.0, 100.0);
    for (Index i = 0; i < support; ++i) {
      std::vector<Scalar> point(dim);
      for (int d = 0; d < dim; ++d) point[d] = center[d] + rng.Gaussian();
      data.Append(point);
    }
    Cluster cluster;
    cluster.seed = 0;
    for (Index i = 0; i < support; ++i) {
      cluster.members.push_back(i);
      cluster.weights.push_back(1.0 / static_cast<Scalar>(support));
    }
    ClusterSnapshotOptions options;
    // Kernel tuned so in-cluster pairs sit near 0.9 => density ~0.8+.
    options.affinity.k = AffinityFunction::SuggestScalingFactor(
        data, /*p=*/2.0, /*target_affinity=*/0.9);
    AffinityFunction fn(options.affinity);
    LazyAffinityOracle oracle(data, fn);
    Scalar density = 0.0;
    for (Index a = 0; a < support; ++a) {
      for (Index b = 0; b < support; ++b) {
        density += cluster.weights[a] * cluster.weights[b] *
                   oracle.Entry(a, b);
      }
    }
    cluster.density = density;
    // Every query lands in every bucket: the sweep times scoring, not
    // candidate retrieval.
    options.lsh.segment_length = 1e9;
    with_sketch =
        ClusterSnapshot::FromClusters(data, {&cluster, 1}, options);
    ClusterSnapshotOptions off = options;
    off.sketch.prefix_mass = 0.0;
    without_sketch =
        ClusterSnapshot::FromClusters(data, {&cluster, 1}, off);

    for (Index q = 0; q < kQueryCount; ++q) {
      const auto row =
          data[static_cast<Index>(rng.UniformInt(0, support - 1))];
      const int band = static_cast<int>(q % 3);
      const double magnitude = band == 0 ? 0.2 : (band == 1 ? 6.0 : 40.0);
      for (int d = 0; d < dim; ++d) {
        queries.push_back(row[d] + rng.Gaussian() * magnitude);
      }
    }
  }

  std::span<const Scalar> Query(Index q) const {
    return {queries.data() + static_cast<size_t>(q % kQueryCount) * dim,
            static_cast<size_t>(dim)};
  }
};

// The trajectory record: wall seconds over a fixed query sweep per support
// size, sketch vs full, plus the prune/exact counters and an equality spot
// check.
void RunSketch(BenchContext& ctx) {
  std::printf("Sketch-filtered vs full absorb scoring\n");
  std::string json = "{\"bench\":\"micro_sketch\",\"rows\":[";
  bool first = true;
  bool all_match = true;
  for (Index support : {Index{64}, Index{256}, Index{1024}}) {
    AbsorbFixture fixture(support);
    constexpr int kSweep = 4096;
    int64_t prunes = 0;
    int64_t exact = 0;
    int mismatches = 0;
    for (Index q = 0; q < AbsorbFixture::kQueryCount; ++q) {
      const AssignOutcome a = fixture.with_sketch->Assign(fixture.Query(q));
      const AssignOutcome b =
          fixture.without_sketch->Assign(fixture.Query(q));
      if (a.cluster != b.cluster || a.affinity != b.affinity ||
          a.margin != b.margin) {
        ++mismatches;
        all_match = false;
      }
      prunes += a.sketch_prunes;
      exact += a.sketch_exact;
    }
    WallTimer full_timer;
    for (int q = 0; q < kSweep; ++q) {
      KeepAlive(fixture.without_sketch->Assign(fixture.Query(q)));
    }
    const double full_seconds = full_timer.Seconds();
    WallTimer sketch_timer;
    for (int q = 0; q < kSweep; ++q) {
      KeepAlive(fixture.with_sketch->Assign(fixture.Query(q)));
    }
    const double sketch_seconds = sketch_timer.Seconds();
    std::printf("  support=%-5d full %.4fs  sketch %.4fs  speedup %.2fx  "
                "prunes %lld  exact %lld  mismatches %d\n",
                support, full_seconds, sketch_seconds,
                sketch_seconds > 0.0 ? full_seconds / sketch_seconds : 0.0,
                static_cast<long long>(prunes),
                static_cast<long long>(exact), mismatches);
    AppendF(json,
            "%s{\"support\":%d,\"queries\":%d,\"full_seconds\":%.6f,"
            "\"sketch_seconds\":%.6f,\"speedup\":%.4f,"
            "\"sketch_prunes\":%lld,"
            "\"sketch_exact\":%lld,\"mismatches\":%d}",
            first ? "" : ",", support, kSweep, full_seconds, sketch_seconds,
            sketch_seconds > 0.0 ? full_seconds / sketch_seconds : 0.0,
            static_cast<long long>(prunes), static_cast<long long>(exact),
            mismatches);
    first = false;
  }
  json += "]}";
  ctx.EmitJson(json);
  if (!all_match) {
    ctx.Fail("sketch-pruned absorb scoring disagreed with full scoring — "
             "the exactness contract is broken");
  }
}

ALID_BENCHMARK("micro_sketch", "micro", "micro_sketch", RunSketch);

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
// speedup over the row-major baseline.
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
              "%s{\"dim\":%d,\"support\":%d,\"isa\":\"%s\","
              "\"seconds_per_call\":%.9f,\"evals_per_sec\":%.0f,"
              "\"speedup_vs_rowmajor\":%.4f,\"mismatches\":%d}",
              first ? "" : ",", dim, support, ops.name, per_call,
              evals_per_sec, speedup, mismatches);
      first = false;
    }
  }
  json += "]}";
  ctx.EmitJson(json);
  if (total_mismatches > 0) {
    ctx.Fail("SoA tile kernel disagreed with the row-major scalar loop — "
             "the bit-exactness contract is broken");
  }
}

ALID_BENCHMARK("micro_simd", "micro", "simd_kernel", RunSimd);

}  // namespace
}  // namespace alid::bench

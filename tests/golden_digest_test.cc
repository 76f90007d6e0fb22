// Golden digests of the detection entry points: every cluster's members,
// weight bits and density bits, hashed on fixed seeds and held against
// reference values recorded before any exact optimisation of the affinity
// path. The determinism tests compare the system with itself; these compare
// it with a fixed reference, so a change that claims to move only counters
// (each kernel pair evaluated once, say) cannot move a result bit unnoticed.
//
// The references assume IEEE-754 doubles and glibc's libm (exp, pow, sqrt);
// every ISA path of src/simd/ is bit-exact to the scalar one, so
// ALID_SIMD=scalar and the sanitizer builds hash the same.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/alid.h"
#include "core/online_alid.h"
#include "core/palid.h"
#include "data/synthetic.h"
#include "test_util.h"

namespace alid {
namespace {

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (word >> (8 * b)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(std::span<const Cluster> clusters) {
    Add(clusters.size());
    for (const Cluster& c : clusters) {
      Add(c.members.size());
      for (Index g : c.members) Add(static_cast<uint64_t>(g));
      for (Scalar w : c.weights) Add(std::bit_cast<uint64_t>(w));
      Add(std::bit_cast<uint64_t>(c.density));
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

LabeledData Workload(uint64_t seed) {
  SyntheticConfig cfg;
  cfg.n = 600;
  cfg.dim = 12;
  cfg.num_clusters = 5;
  cfg.omega = 0.6;
  cfg.mean_box = 300.0;
  cfg.seed = seed;
  return MakeSynthetic(cfg);
}

TEST(GoldenDigestTest, AlidDetectAll) {
  LabeledData data = Workload(101);
  TestPipeline fx(data);
  DetectionResult result = AlidDetector(*fx.oracle, *fx.lsh).DetectAll();
  ASSERT_GE(result.Filtered(0.75).clusters.size(), 3u);
  Digest d;
  d.Add(result.clusters);
  EXPECT_EQ(d.value(), 0x710fd56964e47782ULL);
}

TEST(GoldenDigestTest, PalidDetect) {
  LabeledData data = Workload(202);
  TestPipeline fx(data);
  PalidOptions opts;
  opts.num_executors = 2;
  DetectionResult result = Palid(*fx.oracle, *fx.lsh, opts).Detect();
  ASSERT_GE(result.Filtered(0.75).clusters.size(), 3u);
  Digest d;
  d.Add(result.clusters);
  // Re-recorded when the map began peeling in waves (a seed that a kept
  // cluster of an earlier wave holds is no longer detected); the all-seeds
  // map hashed 0x440729149b99a543. PalidTest.WavesMatchAllSeedsMap holds
  // the new map against the old one's clusters and quality.
  EXPECT_EQ(d.value(), 0x3af24eee19547f95ULL);
}

// A windowed stream: absorb re-detections warm-start from each touched
// cluster's support, window expiry peels and re-detects, refresh passes run
// cold detections over the pool. Hashed after every batch.
TEST(GoldenDigestTest, WindowedOnlineAlid) {
  LabeledData data = Workload(303);
  OnlineAlidOptions opts;
  opts.affinity = {.k = data.suggested_k, .p = 2.0};
  opts.lsh.segment_length = data.suggested_lsh_r;
  opts.refresh_interval = 64;
  opts.window = 240;
  OnlineAlid online(data.data.dim(), opts);
  // Shuffled arrivals, so every window holds several planted clusters.
  std::vector<Scalar> stream;
  Rng rng(7);
  for (Index i : rng.Permutation(data.size())) {
    stream.insert(stream.end(), data.data[i].begin(), data.data[i].end());
  }
  const size_t batch = 24 * static_cast<size_t>(data.data.dim());
  Digest d;
  for (size_t start = 0; start < stream.size(); start += batch) {
    const size_t len = std::min(batch, stream.size() - start);
    online.InsertBatch(std::span<const Scalar>(stream).subspan(start, len));
    d.Add(online.clusters());
  }
  ASSERT_GE(online.clusters().size(), 2u);
  ASSERT_GT(online.stats().evicted, 0);
  ASSERT_GT(online.stats().absorbed, 0);
  EXPECT_EQ(d.value(), 0x69d3389fea2995b8ULL);
}

}  // namespace
}  // namespace alid

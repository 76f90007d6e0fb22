#include "serve/cluster_snapshot.h"

#include <algorithm>
#include <array>
#include <limits>
#include <unordered_map>

#include "affinity/lazy_affinity_oracle.h"
#include "common/check.h"
#include "common/epoch_stamp.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/online_alid.h"
#include "obs/trace.h"

namespace alid {

// The tiled sketch walk below hands the kernel callback one checkpoint
// group per SoA tile; see the twin assert in online_alid.cc.
static_assert(kSimdTileLanes == kSketchBoundStride,
              "one SoA tile must cover exactly one bound-checkpoint group");

namespace {

// Per-thread query scratch: the LSH collision list and an epoch-stamped
// cluster-candidate mark. Thread-local, so any number of readers query one
// snapshot (or different snapshots) concurrently without allocating.
struct QueryScratch {
  std::vector<Index> hits;
  EpochStamp candidates;  // marked cluster ids of the current query
};

QueryScratch& Scratch() {
  thread_local QueryScratch scratch;
  return scratch;
}

}  // namespace

bool ClusterSnapshot::CompatibleWith(const ClusterSnapshotOptions& options,
                                     int dim) const {
  const AffinityParams& a = affinity_fn_->params();
  const LshParams& l = lsh_->params();
  return this->dim() == dim && absorb_slack_ == options.absorb_slack &&
         a.k == options.affinity.k && a.p == options.affinity.p &&
         l.num_tables == options.lsh.num_tables &&
         l.num_projections == options.lsh.num_projections &&
         l.segment_length == options.lsh.segment_length &&
         l.seed == options.lsh.seed && sketch_params_ == options.sketch;
}

std::shared_ptr<const ClusterSnapshot> ClusterSnapshot::FromClusters(
    const Dataset& data, std::span<const Cluster> clusters,
    const ClusterSnapshotOptions& options, uint64_t generation) {
  return Build(data, clusters, options, generation, nullptr);
}

std::shared_ptr<const ClusterSnapshot> ClusterSnapshot::Build(
    const Dataset& data, std::span<const Cluster> clusters,
    const ClusterSnapshotOptions& options, uint64_t generation,
    const StreamIdentity* identity) {
  ALID_CHECK(data.dim() > 0);
  ALID_CHECK(options.absorb_slack >= 0.0 && options.absorb_slack < 1.0);
  ALID_TRACE_SCOPE("publish", "build");
  WallTimer build_timer;
  std::shared_ptr<ClusterSnapshot> snap(new ClusterSnapshot());
  const int dim = data.dim();
  snap->dim_ = dim;
  snap->generation_ = generation;
  snap->absorb_slack_ = options.absorb_slack;
  snap->sketch_params_ = options.sketch;
  snap->affinity_fn_ = std::make_unique<AffinityFunction>(options.affinity);

  const int num_clusters = static_cast<int>(clusters.size());
  const int tables = options.lsh.num_tables;
  const OnlineAlid* stream =
      identity != nullptr ? identity->stream : nullptr;
  const ClusterSnapshot* prev =
      identity != nullptr ? identity->previous : nullptr;

  // Incremental re-use plan: a cluster whose stream (uid, version) pair
  // matches a cluster of the previous snapshot is provably unchanged (every
  // membership/weight/density mutation — and every member-row overwrite,
  // which expiry precedes — bumps the stream's version counter), so its
  // arena block is shared by refcount. Everything in the block is a pure
  // function of the cluster's members and weights, hence the shared block is
  // bit-identical to what a from-scratch build would recompute.
  std::vector<int> reuse_from(static_cast<size_t>(num_clusters), -1);
  if (stream != nullptr) {
    snap->src_uid_.resize(static_cast<size_t>(num_clusters));
    snap->src_version_.resize(static_cast<size_t>(num_clusters));
    for (int c = 0; c < num_clusters; ++c) {
      snap->src_uid_[c] = stream->cluster_uid(c);
      snap->src_version_[c] = stream->cluster_version(c);
    }
    if (prev != nullptr && prev->CompatibleWith(options, dim)) {
      std::unordered_map<uint64_t, int> prev_by_uid;
      prev_by_uid.reserve(prev->src_uid_.size());
      for (size_t p = 0; p < prev->src_uid_.size(); ++p) {
        if (prev->src_uid_[p] != 0) {
          prev_by_uid.emplace(prev->src_uid_[p], static_cast<int>(p));
        }
      }
      for (int c = 0; c < num_clusters; ++c) {
        if (snap->src_uid_[c] == 0) continue;
        const auto it = prev_by_uid.find(snap->src_uid_[c]);
        if (it != prev_by_uid.end() &&
            prev->src_version_[it->second] == snap->src_version_[c]) {
          reuse_from[c] = it->second;
        }
      }
    }
  } else {
    snap->src_uid_.assign(static_cast<size_t>(num_clusters), 0);
    snap->src_version_.assign(static_cast<size_t>(num_clusters), 0);
  }

  // Block fill, cluster-major: an unchanged cluster *shares* the previous
  // snapshot's sealed arena block (a refcount bump — zero bytes moved);
  // a changed one materializes a fresh block and gathers its rows from the
  // source. `fresh` keeps the mutable handle of every new block for the
  // build passes below; once Build returns, only const references remain.
  snap->blocks_.resize(static_cast<size_t>(num_clusters));
  std::vector<std::shared_ptr<ClusterBlock>> fresh(
      static_cast<size_t>(num_clusters));
  {
    ALID_TRACE_SCOPE("publish", "block_fill");
    snap->cluster_begin_.push_back(0);
    for (int c = 0; c < num_clusters; ++c) {
      const Cluster& cluster = clusters[c];
      ALID_CHECK(cluster.members.size() == cluster.weights.size());
      const Index count = static_cast<Index>(cluster.members.size());
      const int p = reuse_from[c];
      if (p >= 0) {
        // The reuse branch is a refcount bump; the span distinguishing it
        // from a gather is the accounting in build_info_, not a trace event.
        const std::shared_ptr<const ClusterBlock>& block = prev->blocks_[p];
        ALID_CHECK(block->count == count);
        snap->blocks_[c] = block;
        snap->build_info_.bytes_shared +=
            static_cast<int64_t>(block->MemoryBytes());
        snap->build_info_.rows_reused += count;
        ++snap->build_info_.clusters_reused;
      } else {
        ALID_TRACE_SCOPE("publish", "block_gather");
        auto block = std::make_shared<ClusterBlock>();
        block->count = count;
        block->dim = dim;
        block->keys_per_member = tables;
        block->rows.resize(static_cast<size_t>(count) * dim);
        block->weights.resize(static_cast<size_t>(count));
        block->source_ids.resize(static_cast<size_t>(count));
        block->member_keys.resize(static_cast<size_t>(count) * tables);
        for (Index t = 0; t < count; ++t) {
          const Index source = cluster.members[t];
          ALID_CHECK(source >= 0 && source < data.size());
          const std::span<const Scalar> row = data[source];
          std::copy(row.begin(), row.end(),
                    block->rows.begin() + static_cast<size_t>(t) * dim);
          block->weights[t] = cluster.weights[t];
          block->source_ids[t] = source;
        }
        snap->blocks_[c] = block;
        fresh[c] = std::move(block);
        snap->build_info_.rows_rebuilt += count;
      }
      for (Index t = 0; t < count; ++t) {
        snap->cluster_of_.push_back(c);
      }
      snap->cluster_begin_.push_back(snap->cluster_begin_.back() + count);
      snap->density_.push_back(cluster.density);
      snap->seed_.push_back(cluster.seed);
    }
  }
  snap->build_info_.clusters_total = num_clusters;

  // Per-snapshot LSH index over the global member positions, dataset-free
  // (the rows live in the blocks): shared clusters re-insert their
  // inherited keys, fresh clusters hash their block rows in a deterministic
  // parallel pass, and the serial 0..M-1 insertion then reproduces exactly
  // the buckets an eager index over the same rows would have built (same
  // params => same projections as the source index, so point queries land
  // in equivalent buckets).
  {
    ALID_TRACE_SCOPE("publish", "lsh");
    snap->lsh_ = std::make_unique<LshIndex>(dim, options.lsh);
    ParallelChunks(options.pool, 0, num_clusters, options.grain,
                   [&snap, &fresh](int64_t, int64_t lo, int64_t hi) {
                     for (int64_t c = lo; c < hi; ++c) {
                       ClusterBlock* block = fresh[c].get();
                       if (block == nullptr) continue;  // keys inherited
                       const size_t tables = static_cast<size_t>(
                           snap->lsh_->num_tables());
                       for (Index m = 0; m < block->count; ++m) {
                         snap->lsh_->ComputePointKeys(
                             block->row(m),
                             &block->member_keys[static_cast<size_t>(m) *
                                                 tables]);
                       }
                     }
                   });
    for (int c = 0; c < num_clusters; ++c) {
      const ClusterBlock& block = *snap->blocks_[c];
      const Index begin = snap->cluster_begin_[c];
      for (Index m = 0; m < block.count; ++m) {
        snap->lsh_->InsertItemWithKeys(
            begin + m,
            std::span<const uint64_t>(
                block.member_keys.data() + static_cast<size_t>(m) * tables,
                static_cast<size_t>(tables)));
      }
    }
  }

  // Verify each fresh cluster's density from the build's own kernel
  // entries: x^T A x over the exported support, through a build-scratch
  // delta dataset (the fresh clusters' rows only) and lazy oracle.
  // Per-cluster sums run serially in a fixed order inside deterministic
  // chunks, so the values are bit-identical for any pool width or grain —
  // and for a shared cluster, bit-identical to the predecessor's value its
  // block carries, which is why this pass may skip it. The scratch dataset
  // and oracle die with this scope: only the verified densities (in the
  // blocks) survive, so the snapshot holds no second copy of any member
  // row.
  {
    ALID_TRACE_SCOPE("publish", "verify_density");
    Dataset delta(dim);
    std::vector<Index> delta_begin(static_cast<size_t>(num_clusters), -1);
    for (int c = 0; c < num_clusters; ++c) {
      if (fresh[c] == nullptr) continue;
      delta_begin[c] = delta.size();
      delta.AppendRaw(std::span<const Scalar>(fresh[c]->rows.data(),
                                              fresh[c]->rows.size()));
    }
    if (!delta.empty()) {
      LazyAffinityOracle oracle(delta, *snap->affinity_fn_);
      ParallelChunks(
          options.pool, 0, num_clusters, options.grain,
          [&fresh, &delta_begin, &oracle](int64_t, int64_t lo, int64_t hi) {
            for (int64_t c = lo; c < hi; ++c) {
              ClusterBlock* block = fresh[c].get();
              if (block == nullptr) continue;
              const Index base = delta_begin[c];
              Scalar density = 0.0;
              for (Index t = 0; t < block->count; ++t) {
                for (Index u = 0; u < block->count; ++u) {
                  density += block->weights[t] * block->weights[u] *
                             oracle.Entry(base + t, base + u);
                }
              }
              block->verified_density = density;
            }
          });
    }
  }

  // Support sketches, cluster-local ordinals: shared blocks carry theirs;
  // fresh clusters lift the stream's fresh sketch when one exists (the
  // "export, don't rebuild" path) and otherwise build from the weights —
  // both produce the same bits because the sketch is a pure function of the
  // weights.
  {
    ALID_TRACE_SCOPE("publish", "sketches");
    for (int c = 0; c < num_clusters; ++c) {
      ClusterBlock* block = fresh[c].get();
      if (block == nullptr) continue;
      const SupportSketch* sketch = nullptr;
      SupportSketch built;
      if (stream != nullptr &&
          stream->cluster_sketch(c).built_version ==
              stream->cluster_version(c)) {
        sketch = &stream->cluster_sketch(c);
      } else {
        built = BuildSupportSketch(block->weights_span(), options.sketch);
        sketch = &built;
      }
      block->sketch_members.reserve(sketch->ordinals.size());
      for (size_t t = 0; t < sketch->ordinals.size(); ++t) {
        block->sketch_members.push_back(sketch->ordinals[t]);
        block->sketch_weights.push_back(sketch->weights[t]);
        block->sketch_rest.push_back(sketch->rest_weights[t]);
      }
    }
  }

  // Vector-kernel tiles (see snapshot_arena.h): dimension-major copies of
  // every fresh cluster's member block and sketch prefix, skipped entirely
  // when the norm has no tile kernel. Pure per cluster, so the pass chunks
  // on the build pool like the others; a shared block's tiles ride along
  // with the block (a compatible predecessor was built under the same norm,
  // so they exist and are bit-identical to a rebuild from the same rows).
  snap->simd_norm_ = SimdSupportsNorm(options.affinity.p);
  if (snap->simd_norm_) {
    ALID_TRACE_SCOPE("publish", "soa_tiles");
    ParallelChunks(options.pool, 0, num_clusters, options.grain,
                   [&fresh, dim](int64_t, int64_t lo, int64_t hi) {
                     for (int64_t c = lo; c < hi; ++c) {
                       ClusterBlock* block = fresh[c].get();
                       if (block == nullptr) continue;
                       block->cluster_soa.FromRowMajor(block->rows.data(),
                                                       block->count, dim);
                       block->sketch_soa.GatherRowMajor(
                           block->rows.data(), dim,
                           std::span<const Index>(
                               block->sketch_members.data(),
                               block->sketch_members.size()));
                     }
                   });
  }

  // Every fresh block is complete: seal it — charging its bytes to the
  // global tracker and the arena's resource space exactly once — and count
  // what this build materialized vs. shared.
  {
    ALID_TRACE_SCOPE("publish", "seal");
    for (int c = 0; c < num_clusters; ++c) {
      if (fresh[c] == nullptr) continue;
      fresh[c]->Seal();
      snap->build_info_.bytes_copied +=
          static_cast<int64_t>(fresh[c]->MemoryBytes());
    }
  }

  snap->build_info_.build_seconds = build_timer.Seconds();
  return snap;
}

std::shared_ptr<const ClusterSnapshot> ClusterSnapshot::FromDetection(
    const Dataset& data, const DetectionResult& result,
    const ClusterSnapshotOptions& options, uint64_t generation) {
  return FromClusters(data, result.clusters, options, generation);
}

std::shared_ptr<const ClusterSnapshot> ClusterSnapshot::FromStream(
    const OnlineAlid& stream, ThreadPool* pool,
    std::shared_ptr<const ClusterSnapshot> previous) {
  ALID_TRACE_SCOPE("publish", "from_stream");
  ClusterSnapshotOptions options;
  options.affinity = stream.options().affinity;
  options.lsh = stream.options().lsh;
  options.absorb_slack = stream.options().absorb_slack;
  options.sketch = stream.options().sketch;
  options.pool = pool;
  options.grain = stream.options().grain;
  StreamIdentity identity;
  identity.stream = &stream;
  identity.previous = previous.get();
  return Build(stream.oracle().data(), stream.clusters(), options,
               static_cast<uint64_t>(stream.size()), &identity);
}

Scalar ClusterSnapshot::ClusterAffinity(int c,
                                        std::span<const Scalar> point) const {
  const ClusterBlock& block = *blocks_[c];
  if (simd_norm_) {
    // Same member-order accumulation through the dimension-major tiles —
    // bit-identical to the row-major loop below (see simd/soa_block.h).
    return SoaWeightedKernelSum(*ActiveSimdOps(), block.cluster_soa,
                                block.weights_span(), *affinity_fn_,
                                point.data());
  }
  const double p = affinity_fn_->params().p;
  Scalar affinity = 0.0;  // pi(s_c, x), in member order (see header)
  for (Index t = 0; t < block.count; ++t) {
    affinity += block.weights[t] *
                affinity_fn_->FromDistance(LpDistance(block.row(t), point, p));
  }
  return affinity;
}

ClusterSnapshot::SketchView ClusterSnapshot::sketch(int c) const {
  SketchView view;
  if (c < 0 || c >= num_clusters()) return view;
  const ClusterBlock& block = *blocks_[c];
  view.members = std::span<const Index>(block.sketch_members.data(),
                                        block.sketch_members.size());
  view.weights = std::span<const Scalar>(block.sketch_weights.data(),
                                         block.sketch_weights.size());
  view.rest_weights = std::span<const Scalar>(block.sketch_rest.data(),
                                              block.sketch_rest.size());
  return view;
}

const std::vector<Index>& ClusterSnapshot::CandidateMembers(
    std::span<const Scalar> point) const {
  QueryScratch& scratch = Scratch();
  lsh_->QueryByPoint(point, &scratch.hits);
  scratch.candidates.Begin(static_cast<size_t>(num_clusters()));
  for (Index j : scratch.hits) {
    scratch.candidates.Mark(static_cast<size_t>(cluster_of_[j]));
  }
  return scratch.hits;
}

bool ClusterSnapshot::SketchRejects(int c, std::span<const Scalar> point,
                                    Scalar threshold,
                                    Scalar incumbent) const {
  const double p = affinity_fn_->params().p;
  const ClusterBlock& block = *blocks_[c];
  const std::span<const Scalar> prefix_weights(block.sketch_weights.data(),
                                               block.sketch_weights.size());
  const std::span<const Scalar> prefix_rest(block.sketch_rest.data(),
                                            block.sketch_rest.size());
  // One walk, shared with the stream's absorb phase (SketchBoundRejects
  // [Tiled] in support_sketch.h): checkpoint cadence, guard, reject test
  // and give-up rule live there exactly once, so a tweak cannot
  // desynchronize the two layers' prune decisions.
  if (simd_norm_) {
    const SimdKernelOps& ops = *ActiveSimdOps();
    const SoaBlock& soa = block.sketch_soa;
    return SketchBoundRejectsTiled(
        prefix_weights, prefix_rest, threshold, incumbent,
        [&](size_t t0, size_t n, Scalar* out) {
          // One SoA tile per checkpoint group (kSimdTileLanes ==
          // kSketchBoundStride), so t0 always lands on a tile boundary.
          Scalar dists[kSimdTileLanes];
          TileDistances(ops, soa, static_cast<Index>(t0 / kSimdTileLanes),
                        point.data(), p, dists);
          for (size_t i = 0; i < n; ++i) {
            out[i] = affinity_fn_->FromDistance(dists[i]);
          }
        });
  }
  return SketchBoundRejects(
      prefix_weights, prefix_rest, threshold, incumbent, [&](size_t t) {
        return affinity_fn_->FromDistance(
            LpDistance(block.row(block.sketch_members[t]), point, p));
      });
}

AssignOutcome ClusterSnapshot::Assign(std::span<const Scalar> point) const {
  ALID_CHECK(static_cast<int>(point.size()) == dim());
  AssignOutcome best;
  best.generation = generation_;
  if (num_clusters() == 0) return best;
  CandidateMembers(point);
  const QueryScratch& scratch = Scratch();
  Scalar best_margin = -std::numeric_limits<Scalar>::infinity();
  for (int c = 0; c < num_clusters(); ++c) {
    if (!scratch.candidates.IsMarked(static_cast<size_t>(c))) continue;
    // Absorb when (near-)infective — the same slack rule, threshold and
    // lowest-id tie-break as the stream's ScoreArrival.
    const Scalar threshold = density_[c] * (1.0 - absorb_slack_);
    if (!blocks_[c]->sketch_members.empty()) {
      // Branch-and-bound: any scored prefix of the sketch plus its rest
      // weight (plus the FP guard) certifies an upper bound on pi(s_c, x);
      // a checkpoint bound that cannot clear the threshold or beat the
      // incumbent margin rejects the cluster without touching its full
      // support. The fallback below is the unchanged exact summation, so
      // answers are bit-identical with the sketch on or off.
      if (SketchRejects(c, point, threshold, best_margin)) {
        ++best.sketch_prunes;
        continue;
      }
      ++best.sketch_exact;
    }
    const Scalar affinity = ClusterAffinity(c, point);
    const Scalar margin = affinity - threshold;
    if (margin > 0.0 && margin > best_margin) {
      best_margin = margin;
      best.cluster = c;
      best.affinity = affinity;
      best.margin = margin;
    }
  }
  return best;
}

void ClusterSnapshot::AssignBatch(std::span<const Scalar> points,
                                  std::span<AssignOutcome> outcomes) const {
  const int d = dim();
  ALID_CHECK(d > 0 && points.size() % static_cast<size_t>(d) == 0);
  const Index count = static_cast<Index>(points.size() / d);
  ALID_CHECK(outcomes.size() == static_cast<size_t>(count));
  for (Index q = 0; q < count; ++q) {
    outcomes[q] = AssignOutcome{};
    outcomes[q].generation = generation_;
  }
  const int num = num_clusters();
  if (num == 0) return;
  // Query-major tiling: mark every query's candidate clusters up front for
  // a block of queries, then stream the clusters in ascending id across
  // the whole block, so each cluster's SoA tiles are pulled through the
  // cache once per block instead of once per query. The inner body is the
  // loop body of Assign verbatim, each query carrying its own incumbent,
  // and every query still visits its candidates in ascending cluster id —
  // so winners, margins and sketch counters are bit-identical to per-query
  // Assign calls (the property the batch-vs-serial tests pin).
  constexpr Index kQueryBlock = 32;
  std::vector<uint8_t> candidate(static_cast<size_t>(kQueryBlock) * num, 0);
  std::array<Scalar, kQueryBlock> best_margin;
  for (Index q0 = 0; q0 < count; q0 += kQueryBlock) {
    const Index block = std::min<Index>(kQueryBlock, count - q0);
    for (Index i = 0; i < block; ++i) {
      const std::span<const Scalar> point =
          points.subspan(static_cast<size_t>(q0 + i) * d,
                         static_cast<size_t>(d));
      ALID_CHECK(static_cast<int>(point.size()) == d);
      CandidateMembers(point);
      const QueryScratch& scratch = Scratch();
      for (int c = 0; c < num; ++c) {
        candidate[static_cast<size_t>(i) * num + c] =
            scratch.candidates.IsMarked(static_cast<size_t>(c)) ? 1 : 0;
      }
      best_margin[i] = -std::numeric_limits<Scalar>::infinity();
    }
    for (int c = 0; c < num; ++c) {
      const Scalar threshold = density_[c] * (1.0 - absorb_slack_);
      const bool sketched = !blocks_[c]->sketch_members.empty();
      for (Index i = 0; i < block; ++i) {
        if (candidate[static_cast<size_t>(i) * num + c] == 0) continue;
        const std::span<const Scalar> point =
            points.subspan(static_cast<size_t>(q0 + i) * d,
                           static_cast<size_t>(d));
        AssignOutcome& best = outcomes[q0 + i];
        if (sketched) {
          if (SketchRejects(c, point, threshold, best_margin[i])) {
            ++best.sketch_prunes;
            continue;
          }
          ++best.sketch_exact;
        }
        const Scalar affinity = ClusterAffinity(c, point);
        const Scalar margin = affinity - threshold;
        if (margin > 0.0 && margin > best_margin[i]) {
          best_margin[i] = margin;
          best.cluster = c;
          best.affinity = affinity;
          best.margin = margin;
        }
      }
    }
  }
}

std::vector<ScoredCluster> ClusterSnapshot::TopKClusters(
    std::span<const Scalar> point, int k) const {
  ALID_CHECK(static_cast<int>(point.size()) == dim());
  std::vector<ScoredCluster> scored;
  if (k <= 0 || num_clusters() == 0) return scored;
  CandidateMembers(point);
  const QueryScratch& scratch = Scratch();
  // Running k-th best affinity (min of the current top-k). Candidates
  // iterate in ascending id and exact ties break toward the lower id, so
  // once k candidates are scored, a later candidate whose sketch bound is
  // <= the k-th affinity can never enter the top k — skipping its exact
  // scoring leaves the truncated result identical.
  std::vector<Scalar> topk;  // min-heap of the k best affinities so far
  for (int c = 0; c < num_clusters(); ++c) {
    if (!scratch.candidates.IsMarked(static_cast<size_t>(c))) continue;
    if (static_cast<int>(topk.size()) == k &&
        !blocks_[c]->sketch_members.empty() &&
        SketchRejects(c, point, /*threshold=*/0.0,
                      /*incumbent=*/topk.front())) {
      continue;
    }
    const Scalar affinity = ClusterAffinity(c, point);
    ScoredCluster entry;
    entry.cluster = c;
    entry.affinity = affinity;
    entry.margin = affinity - density_[c] * (1.0 - absorb_slack_);
    entry.generation = generation_;
    entry.absorbable = entry.margin > 0.0;
    scored.push_back(entry);
    if (static_cast<int>(topk.size()) < k) {
      topk.push_back(affinity);
      std::push_heap(topk.begin(), topk.end(), std::greater<Scalar>());
    } else if (affinity > topk.front()) {
      std::pop_heap(topk.begin(), topk.end(), std::greater<Scalar>());
      topk.back() = affinity;
      std::push_heap(topk.begin(), topk.end(), std::greater<Scalar>());
    }
  }
  // Descending affinity, ascending id on exact ties: a stable total order,
  // so batched and serial TopK answers are identical.
  std::sort(scored.begin(), scored.end(),
            [](const ScoredCluster& a, const ScoredCluster& b) {
              if (a.affinity != b.affinity) return a.affinity > b.affinity;
              return a.cluster < b.cluster;
            });
  if (static_cast<int>(scored.size()) > k) scored.resize(k);
  return scored;
}

ClusterSnapshotInfo ClusterSnapshot::ClusterInfo(int c) const {
  ClusterSnapshotInfo info;
  if (c < 0 || c >= num_clusters()) return info;
  const ClusterBlock& block = *blocks_[c];
  info.cluster = c;
  info.size = block.count;
  info.density = density_[c];
  info.verified_density = block.verified_density;
  info.seed = seed_[c];
  info.members.assign(block.source_ids.begin(), block.source_ids.end());
  info.weights.assign(block.weights.begin(), block.weights.end());
  return info;
}

}  // namespace alid

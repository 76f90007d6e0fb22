#include "core/online_alid.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/check.h"
#include "common/histogram.h"
#include "common/parallel.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "obs/trace.h"
#include "simd/simd_dispatch.h"

namespace alid {

// The tiled branch-and-bound walk hands the kernel callback one
// checkpoint group at a time; one SoA tile must be exactly one group or
// the vector walk would check bounds at different prefix positions than
// the scalar walk and the prune decisions could diverge.
static_assert(kSimdTileLanes == kSketchBoundStride,
              "one SoA tile must cover exactly one bound-checkpoint group");

std::vector<int> StreamStats::LatencyHistogram(int bins) const {
  return EqualWidthHistogram(batch_seconds, bins);
}

OnlineAlid::OnlineAlid(int dim, OnlineAlidOptions options)
    : options_(options), data_(dim), affinity_fn_(options.affinity) {
  ALID_CHECK(options_.window >= 0);
  ALID_CHECK(options_.refresh_interval >= 1);
  ALID_CHECK(options_.refresh_frontier >= 1);
  simd_norm_ = SimdSupportsNorm(options_.affinity.p);
  oracle_ = std::make_unique<LazyAffinityOracle>(data_, affinity_fn_);
  lsh_ = std::make_unique<LshIndex>(data_, options_.lsh);

  // Re-home the stream counters onto the per-instance registry (StreamStats
  // stays as the thin view stats() materializes). Names double as the bench
  // trajectory's JSON keys, so the registry exporter emits the exact schema
  // the perf gates already read.
  obs::MetricsRegistry& registry = metrics_.registry;
  metrics_.arrivals = registry.AddCounter("arrivals");
  metrics_.absorbed = registry.AddCounter("absorbed");
  metrics_.pooled = registry.AddCounter("pooled");
  metrics_.evicted = registry.AddCounter("evicted");
  metrics_.redetections = registry.AddCounter("redetections");
  metrics_.refreshes = registry.AddCounter("refreshes");
  metrics_.clusters_born = registry.AddCounter("clusters_born");
  metrics_.clusters_dissolved = registry.AddCounter("clusters_dissolved");
  metrics_.sketch_prunes = registry.AddCounter("sketch_prunes");
  metrics_.sketch_exact = registry.AddCounter("sketch_exact");
  metrics_.refresh_rounds = registry.AddCounter("refresh_rounds");
  metrics_.refresh_speculations = registry.AddCounter("refresh_speculations");
  metrics_.refresh_conflicts = registry.AddCounter("refresh_conflicts");
  metrics_.alive = registry.AddGauge("alive");
  metrics_.clusters_alive = registry.AddGauge("clusters_alive");
  // Every batch latency the bounded reservoir samples also lands in a
  // fixed-bucket histogram, so the ingest profile ships through the JSON /
  // Prometheus exporters (ingest_seconds_count / _sum and the le buckets)
  // instead of living only in the in-process percentile window.
  metrics_.batch_seconds.AttachHistogram(
      registry.AddHistogram("ingest_seconds", obs::LatencyHistogramEdges()));
  // The shared pool (when set) must outlive this stream — already the
  // standing usage contract, since every batch runs phases on it.
  if (options_.pool != nullptr) {
    options_.pool->RegisterMetrics(&registry, "pool");
  }
}

StreamStats OnlineAlid::stats() const {
  StreamStats s;
  s.arrivals = metrics_.arrivals->value();
  s.absorbed = metrics_.absorbed->value();
  s.pooled = metrics_.pooled->value();
  s.evicted = metrics_.evicted->value();
  s.redetections = metrics_.redetections->value();
  s.refreshes = metrics_.refreshes->value();
  s.clusters_born = metrics_.clusters_born->value();
  s.clusters_dissolved = metrics_.clusters_dissolved->value();
  s.sketch_prunes = metrics_.sketch_prunes->value();
  s.sketch_exact = metrics_.sketch_exact->value();
  s.refresh_rounds = metrics_.refresh_rounds->value();
  s.refresh_speculations = metrics_.refresh_speculations->value();
  s.refresh_conflicts = metrics_.refresh_conflicts->value();
  s.alive = static_cast<Index>(metrics_.alive->value());
  s.clusters_alive = static_cast<int>(metrics_.clusters_alive->value());
  s.batch_seconds = metrics_.batch_seconds.Samples();
  return s;
}

Index OnlineAlid::Insert(std::span<const Scalar> point) {
  ALID_CHECK(static_cast<int>(point.size()) == data_.dim());
  return InsertBatch(point)[0];
}

std::vector<Index> OnlineAlid::InsertBatch(std::span<const Scalar> points) {
  const int dim = data_.dim();
  ALID_CHECK(dim > 0 && points.size() % static_cast<size_t>(dim) == 0);
  const Index count = static_cast<Index>(points.size() / dim);
  std::vector<Index> slots(count);
  if (count == 0) return slots;
  WallTimer timer;
  ALID_TRACE_SCOPE("stream", "insert_batch");

  // Phase 1 (serial): slot allocation + row writes, in arrival order.
  // Expired slots are re-used smallest-first, so the slot sequence depends
  // only on the stream history.
  {
    ALID_TRACE_SCOPE("stream", "slot_alloc");
    for (Index k = 0; k < count; ++k) {
      slots[k] =
          AllocateSlot(points.subspan(static_cast<size_t>(k) * dim, dim));
    }
  }

  // Phase 2 (parallel, pure): per-table LSH keys of every arrival. Each
  // arrival's keys are self-contained, so any chunking yields the same bits.
  const int tables = lsh_->num_tables();
  std::vector<uint64_t> keys(static_cast<size_t>(count) * tables);
  {
    ALID_TRACE_SCOPE("stream", "lsh_keys");
    ParallelChunks(options_.pool, 0, count, options_.grain,
                   [&](int64_t, int64_t lo, int64_t hi) {
                     ALID_TRACE_SCOPE("stream", "lsh_keys_chunk");
                     for (int64_t k = lo; k < hi; ++k) {
                       lsh_->ComputeItemKeys(
                           slots[k], &keys[static_cast<size_t>(k) * tables]);
                     }
                   });
  }

  // Phase 3 (serial): bucket insertion in arrival order.
  {
    ALID_TRACE_SCOPE("stream", "bucket_insert");
    for (Index k = 0; k < count; ++k) {
      lsh_->InsertItemWithKeys(
          slots[k], std::span<const uint64_t>(
                        keys.data() + static_cast<size_t>(k) * tables,
                        static_cast<size_t>(tables)));
    }
  }

  // Phase 4 (parallel, pure): Theorem-1 absorb scoring of every arrival
  // against the batch-start clusters. Same-batch neighbours are already in
  // the LSH buckets but still unassigned, so the candidate sets — like the
  // scores — depend only on the batch boundary, never on the executors.
  std::vector<Choice> choices(count);
  {
    ALID_TRACE_SCOPE("stream", "absorb_score");
    ParallelChunks(options_.pool, 0, count, options_.grain,
                   [&](int64_t, int64_t lo, int64_t hi) {
                     ALID_TRACE_SCOPE("stream", "absorb_score_chunk");
                     for (int64_t k = lo; k < hi; ++k) {
                       choices[k] = ScoreArrival(slots[k]);
                     }
                   });
  }

  // Phase 5 (serial): apply in arrival order. Clusters mutate here, so the
  // snapshot versions tell ApplyArrival which precomputed choices are stale.
  // The sketch-filter counters of the parallel phase fold in here too, in
  // arrival order, so the stats are executor-independent like the state.
  {
    ALID_TRACE_SCOPE("stream", "apply");
    const std::vector<uint64_t> versions = cluster_version_;
    for (Index k = 0; k < count; ++k) {
      metrics_.sketch_prunes->Add(choices[k].sketch_prunes);
      metrics_.sketch_exact->Add(choices[k].sketch_exact);
      ApplyArrival(slots[k], choices[k], versions);
    }
  }

  // Phase 6 (serial): sliding-window expiry and repair of the clusters
  // that lost members.
  if (options_.window > 0) {
    ALID_TRACE_SCOPE("stream", "expire");
    ExpireToWindow();
  }

  {
    ALID_TRACE_SCOPE("stream", "compact");
    CompactClusters();
  }
  // Sketches of mutated clusters are rebuilt at batch end — the next
  // batch's parallel scoring phase and any between-batch snapshot export
  // read only fresh ones.
  RefreshSketches();
  metrics_.alive->Set(alive());
  metrics_.clusters_alive->Set(static_cast<int64_t>(clusters_.size()));
  metrics_.batch_seconds.Record(timer.Seconds());
  return slots;
}

Index OnlineAlid::AllocateSlot(std::span<const Scalar> point) {
  Index slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();  // descending order: back() is the smallest
    free_slots_.pop_back();
    std::copy(point.begin(), point.end(), data_.MutableRow(slot).begin());
    alive_[slot] = 1;
  } else {
    slot = data_.size();
    data_.Append(point);
    assignment_.push_back(-1);
    alive_.push_back(1);
  }
  window_fifo_.push_back(slot);
  return slot;
}

OnlineAlid::Choice OnlineAlid::ScoreArrival(Index slot) const {
  Choice best;
  if (clusters_.empty()) return best;
  // Candidates are the clusters of the newcomer's LSH neighbours.
  std::vector<uint8_t> candidate(clusters_.size(), 0);
  for (Index j : lsh_->QueryByIndex(slot)) {
    if (assignment_[j] >= 0) candidate[assignment_[j]] = 1;
  }
  const SimdKernelOps& ops = *ActiveSimdOps();
  const double p = options_.affinity.p;
  const Scalar* query = data_[slot].data();
  Scalar best_margin = -std::numeric_limits<Scalar>::infinity();
  for (size_t c = 0; c < clusters_.size(); ++c) {
    if (candidate[c] == 0 || cluster_dead_[c] != 0) continue;
    const Cluster& cl = clusters_[c];
    // Absorb when (near-)infective: same-cluster arrivals sit at the density
    // (Theorem 1 equality on the support), hence the slack.
    const Scalar threshold = cl.density * (1.0 - options_.absorb_slack);
    const SupportSketch& sketch = sketches_[c];
    // The vector path needs fresh tiles (same protocol as the sketch) and a
    // tile kernel for the configured norm. Either way the arithmetic below
    // is bit-identical — the tiles reproduce the oracle's member-order
    // accumulation exactly — so this is a speed choice, never a result
    // choice. The newcomer is unassigned, so no member equals `slot` and
    // the oracle's a_ii = 0 diagonal can never be hit here.
    const bool tiles_fresh =
        simd_norm_ && tiles_[c].built_version == cluster_version_[c];
    if (sketch.engaged() && sketch.built_version == cluster_version_[c]) {
      // Branch-and-bound filter (SketchBoundRejects[Tiled] — one walk
      // shared with the serving layer, so both sides take bit-identical
      // prune decisions): a rejected candidate provably cannot clear the
      // absorb threshold or beat the incumbent's exact margin, so its
      // full-support scoring is skipped; anything else — inconclusive walk
      // or give-up — falls through to the unchanged exact summation below.
      // Both exits are pure functions of the sketch and the arrival, hence
      // executor-independent.
      bool rejected;
      if (tiles_fresh) {
        // One SoA tile per checkpoint group (kSimdTileLanes ==
        // kSketchBoundStride), so t0 always lands on a tile boundary.
        rejected = SketchBoundRejectsTiled(
            std::span<const Scalar>(sketch.weights),
            std::span<const Scalar>(sketch.rest_weights), threshold,
            best_margin, [&](size_t t0, size_t n, Scalar* out) {
              Scalar dists[kSimdTileLanes];
              TileDistances(ops, tiles_[c].prefix,
                            static_cast<Index>(t0 / kSimdTileLanes), query, p,
                            dists);
              for (size_t i = 0; i < n; ++i) {
                out[i] = affinity_fn_.FromDistance(dists[i]);
              }
            });
      } else {
        rejected = SketchBoundRejects(
            std::span<const Scalar>(sketch.weights),
            std::span<const Scalar>(sketch.rest_weights), threshold,
            best_margin, [&](size_t t) {
              return oracle_->Entry(cl.members[sketch.ordinals[t]], slot);
            });
      }
      if (rejected) {
        ++best.sketch_prunes;
        continue;
      }
      ++best.sketch_exact;
    }
    const Scalar affinity =
        tiles_fresh ? SoaWeightedKernelSum(ops, tiles_[c].members, cl.weights,
                                           affinity_fn_, query)
                    : ClusterAffinity(cl, slot);
    const Scalar margin = affinity - threshold;
    if (margin > 0.0 && margin > best_margin) {
      best_margin = margin;
      best.cluster = static_cast<int>(c);
    }
  }
  return best;
}

Scalar OnlineAlid::ClusterAffinity(const Cluster& cluster, Index slot) const {
  Scalar aff = 0.0;  // pi(s_slot, x_cluster)
  for (size_t t = 0; t < cluster.members.size(); ++t) {
    aff += cluster.weights[t] * oracle_->Entry(cluster.members[t], slot);
  }
  return aff;
}

void OnlineAlid::ApplyArrival(Index slot, const Choice& choice,
                              const std::vector<uint64_t>& versions) {
  metrics_.arrivals->Add(1);
  if (assignment_[slot] >= 0) {
    // An earlier arrival of this batch already pulled this one in: its
    // re-detection (or a mid-batch refresh) absorbed the still-unassigned
    // newcomer and rebalanced the weights. Re-detecting again from here
    // would seed inside a cluster the arrival may no longer target.
    metrics_.absorbed->Add(1);
  } else {
    int target = choice.cluster;
    if (target >= 0) {
      if (cluster_dead_[target] != 0) {
        target = -1;  // dissolved earlier in this batch
      } else if (cluster_version_[target] != versions[target]) {
        // The chosen cluster absorbed an earlier same-batch arrival (or was
        // otherwise re-detected): re-score against its current state. The
        // re-check is serial, so the outcome is executor-independent.
        const Cluster& cl = clusters_[target];
        const Scalar margin = ClusterAffinity(cl, slot) -
                              cl.density * (1.0 - options_.absorb_slack);
        if (margin <= 0.0) target = -1;
      }
    }
    if (target >= 0) {
      // Local re-detection absorbs the newcomer and rebalances the weights.
      RedetectCluster(target, slot);
      if (assignment_[slot] >= 0) {
        metrics_.absorbed->Add(1);
      } else {
        metrics_.pooled->Add(1);
      }
    } else {
      metrics_.pooled->Add(1);
    }
  }
  if (++since_refresh_ >= options_.refresh_interval) {
    DetectFromPool();
    since_refresh_ = 0;
    metrics_.refreshes->Add(1);
  }
}

void OnlineAlid::Refresh() {
  DetectFromPool();
  CompactClusters();
  RefreshSketches();
  since_refresh_ = 0;
  metrics_.refreshes->Add(1);
  metrics_.alive->Set(alive());
  metrics_.clusters_alive->Set(static_cast<int64_t>(clusters_.size()));
}

void OnlineAlid::RefreshSketches() {
  ALID_TRACE_SCOPE("stream", "sketch_rebuild");
  // Pure per cluster (weights in, sketch out; member rows in, tiles out),
  // so the sweep chunks on the shared pool like every other parallel phase;
  // only clusters whose version moved rebuild, so the cost is O(changed),
  // not O(clusters). The scoring tiles follow the sketch's freshness
  // protocol exactly: between batches every cluster's tiles are fresh, so
  // the next parallel scoring phase runs the vector path throughout.
  ParallelChunks(
      options_.pool, 0, static_cast<int64_t>(clusters_.size()),
      options_.grain, [&](int64_t, int64_t lo, int64_t hi) {
        for (int64_t c = lo; c < hi; ++c) {
          if (sketches_[c].built_version != cluster_version_[c]) {
            sketches_[c] =
                BuildSupportSketch(clusters_[c].weights, options_.sketch);
            sketches_[c].built_version = cluster_version_[c];
          }
          if (!simd_norm_ ||
              tiles_[c].built_version == cluster_version_[c]) {
            continue;
          }
          ClusterTiles& tiles = tiles_[c];
          tiles.members.GatherRows(data_, clusters_[c].members);
          const SupportSketch& sketch = sketches_[c];
          if (sketch.engaged()) {
            std::vector<Index> prefix_items(sketch.ordinals.size());
            for (size_t t = 0; t < sketch.ordinals.size(); ++t) {
              prefix_items[t] = clusters_[c].members[sketch.ordinals[t]];
            }
            tiles.prefix.GatherRows(data_, prefix_items);
          } else {
            tiles.prefix = SoaBlock();
          }
          tiles.built_version = cluster_version_[c];
        }
      });
}

void OnlineAlid::RedetectCluster(int cluster_id, Index seed) {
  metrics_.redetections->Add(1);
  // Items owned by *other* clusters — and expired slots — stay out of this
  // re-detection.
  std::vector<bool> exclude(data_.size(), false);
  for (Index i = 0; i < data_.size(); ++i) {
    exclude[i] = alive_[i] == 0 ||
                 (assignment_[i] >= 0 && assignment_[i] != cluster_id);
  }
  ALID_CHECK(!exclude[seed]);
  AlidDetector detector(*oracle_, *lsh_, options_.alid);
  Cluster fresh = detector.DetectOne(seed, &exclude);

  // Release the old membership.
  for (Index i : clusters_[cluster_id].members) assignment_[i] = -1;
  ++cluster_version_[cluster_id];
  if (fresh.density >= options_.alid.density_threshold &&
      static_cast<int>(fresh.members.size()) >=
          options_.alid.min_cluster_size) {
    clusters_[cluster_id] = std::move(fresh);
    Assign(cluster_id);
    return;
  }
  // The cluster dissolved (e.g., it was marginal and the newcomer pulled the
  // dynamics elsewhere): mark it dead; CompactClusters erases it at the end
  // of the batch so same-batch cluster ids stay stable.
  DissolveCluster(cluster_id);
}

void OnlineAlid::DetectFromPool() {
  ALID_TRACE_SCOPE("stream", "refresh");
  std::vector<bool> exclude(data_.size(), false);
  Index pool_count = 0;
  for (Index i = 0; i < data_.size(); ++i) {
    exclude[i] = alive_[i] == 0 || assignment_[i] >= 0;
    pool_count += exclude[i] ? 0 : 1;
  }
  if (pool_count == 0) return;
  AlidDetector detector(*oracle_, *lsh_, options_.alid);

  // PALID's map stage over the unassigned pool: each round maps a frontier
  // chunk of speculative DetectOne runs — pure against the round-start
  // exclusions — across the shared pool, then validates and applies them
  // serially in seed order. A speculative detection whose support stayed
  // disjoint from everything claimed earlier in the round is exactly what a
  // serial run *from the round-start state* would have produced and is
  // applied as-is; one that overlaps an earlier claim is re-detected
  // against the live exclusions (the strictly-serial step). The frontier
  // width ramps geometrically while rounds stay conflict-free and resets to
  // 1 on any waste, so a pool full of one big cluster degrades to the old
  // serial peel instead of detecting it `frontier` times. Every input of
  // the schedule — the frontier sequence, the seed order, each DetectOne —
  // is a pure function of the stream history, so the refresh outcome is
  // bit-identical for every executor count, scheduling discipline and
  // grain.
  const int max_frontier = std::max(1, options_.refresh_frontier);
  int frontier = 1;
  Index cursor = 0;  // seeds are consumed in ascending order, exactly once
  std::vector<Index> seeds;
  std::vector<Cluster> raw;
  while (cursor < data_.size()) {
    ALID_TRACE_SCOPE("stream", "refresh_round");
    seeds.clear();
    Index next_cursor = cursor;
    for (Index s = cursor;
         s < data_.size() && static_cast<int>(seeds.size()) < frontier; ++s) {
      if (!exclude[s]) seeds.push_back(s);
      next_cursor = s + 1;
    }
    cursor = next_cursor;
    if (seeds.empty()) continue;
    raw.assign(seeds.size(), Cluster{});
    ParallelChunks(options_.pool, 0, static_cast<int64_t>(seeds.size()),
                   /*grain=*/1, [&](int64_t, int64_t lo, int64_t hi) {
                     for (int64_t k = lo; k < hi; ++k) {
                       raw[k] = detector.DetectOne(seeds[k], &exclude);
                     }
                   });
    bool waste = false;
    for (size_t k = 0; k < seeds.size(); ++k) {
      if (exclude[seeds[k]]) {
        // Claimed by an earlier detection of this round — the serial peel
        // would never have seeded here.
        waste = true;
        continue;
      }
      Cluster c = std::move(raw[k]);
      bool conflict = false;
      for (Index m : c.members) {
        if (exclude[m]) {
          conflict = true;
          break;
        }
      }
      if (conflict) {
        c = detector.DetectOne(seeds[k], &exclude);
        metrics_.refresh_conflicts->Add(1);
        waste = true;
      } else if (k > 0) {
        metrics_.refresh_speculations->Add(1);
      }
      InstallPoolCluster(std::move(c), detector, exclude);
    }
    metrics_.refresh_rounds->Add(1);
    frontier = waste ? 1 : std::min(frontier * 2, max_frontier);
  }
}

void OnlineAlid::InstallPoolCluster(Cluster c, const AlidDetector& detector,
                                    std::vector<bool>& exclude) {
  for (Index i : c.members) exclude[i] = true;  // peel
  if (c.density < options_.alid.density_threshold ||
      static_cast<int>(c.members.size()) < options_.alid.min_cluster_size) {
    return;
  }
  // A pool cluster might be the missing half of an existing one (its
  // members arrived after that cluster was detected). If the cross
  // density matches dominant-cluster coherence, merge by re-detection
  // over the union. The pair sum runs chunk-deterministic on the shared
  // pool with a *fixed* auto grain — this is the one reduction whose FP
  // grouping a grain could move, and pinning it keeps the streamed state
  // bit-identical across grains as well as executor counts.
  int merge_with = -1;
  for (size_t e = 0; e < clusters_.size(); ++e) {
    if (cluster_dead_[e] != 0) continue;
    const Cluster& cl = clusters_[e];
    const Scalar cross = ParallelSum(
        options_.pool, 0, static_cast<int64_t>(c.members.size()),
        /*grain=*/0, [&](int64_t lo, int64_t hi) {
          Scalar partial = 0.0;  // pi(x_new, x_e) over this chunk
          for (int64_t a = lo; a < hi; ++a) {
            for (size_t b = 0; b < cl.members.size(); ++b) {
              partial += c.weights[a] * cl.weights[b] *
                         oracle_->Entry(c.members[a], cl.members[b]);
            }
          }
          return partial;
        });
    if (cross >= options_.alid.density_threshold) {
      merge_with = static_cast<int>(e);
      break;
    }
  }
  if (merge_with >= 0) {
    // Release the sibling and re-detect over the union of both halves.
    for (Index i : clusters_[merge_with].members) assignment_[i] = -1;
    std::vector<bool> other_owned(data_.size(), false);
    for (Index i = 0; i < data_.size(); ++i) {
      other_owned[i] = alive_[i] == 0 || assignment_[i] >= 0;
    }
    Cluster merged = detector.DetectOne(c.seed, &other_owned);
    ++cluster_version_[merge_with];
    if (merged.density >= options_.alid.density_threshold &&
        static_cast<int>(merged.members.size()) >=
            options_.alid.min_cluster_size) {
      clusters_[merge_with] = std::move(merged);
      Assign(merge_with);
      for (Index i : clusters_[merge_with].members) exclude[i] = true;
      return;
    }
    // Merge failed: restore the sibling's membership (its members are
    // disjoint from the pool cluster, so this is exact) and fall through
    // to install the pool cluster as-is.
    Assign(merge_with);
  }
  clusters_.push_back(std::move(c));
  cluster_version_.push_back(0);
  cluster_dead_.push_back(0);
  cluster_uid_.push_back(next_cluster_uid_++);
  sketches_.emplace_back();
  tiles_.emplace_back();
  Assign(static_cast<int>(clusters_.size()) - 1);
  metrics_.clusters_born->Add(1);
}

void OnlineAlid::Assign(int cluster_id) {
  for (Index i : clusters_[cluster_id].members) assignment_[i] = cluster_id;
}

void OnlineAlid::ExpireToWindow() {
  std::vector<Index> expired;
  std::vector<int> dirty;
  while (static_cast<Index>(window_fifo_.size()) > options_.window) {
    const Index slot = window_fifo_.front();
    window_fifo_.pop_front();
    lsh_->RemoveItem(slot);
    alive_[slot] = 0;
    const int cid = assignment_[slot];
    if (cid >= 0) {
      Cluster& cl = clusters_[cid];
      const auto pos =
          std::lower_bound(cl.members.begin(), cl.members.end(), slot);
      ALID_CHECK(pos != cl.members.end() && *pos == slot);
      cl.weights.erase(cl.weights.begin() + (pos - cl.members.begin()));
      cl.members.erase(pos);
      assignment_[slot] = -1;
      ++cluster_version_[cid];
      dirty.push_back(cid);
    }
    expired.push_back(slot);
    metrics_.evicted->Add(1);
  }
  if (expired.empty()) return;
  free_slots_.insert(free_slots_.end(), expired.begin(), expired.end());
  std::sort(free_slots_.begin(), free_slots_.end(), std::greater<Index>());
  // Repair the clusters that lost members, in ascending id order.
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  for (int cid : dirty) RepairCluster(cid);
}

void OnlineAlid::RepairCluster(int cluster_id) {
  if (cluster_dead_[cluster_id] != 0) return;
  const Cluster& cl = clusters_[cluster_id];
  if (static_cast<int>(cl.members.size()) < options_.alid.min_cluster_size) {
    DissolveCluster(cluster_id);
    return;
  }
  // Re-detect from the heaviest surviving member (first on ties) so the
  // weights rebalance around what is left inside the window.
  size_t heaviest = 0;
  for (size_t t = 1; t < cl.weights.size(); ++t) {
    if (cl.weights[t] > cl.weights[heaviest]) heaviest = t;
  }
  RedetectCluster(cluster_id, cl.members[heaviest]);
}

void OnlineAlid::DissolveCluster(int cluster_id) {
  for (Index i : clusters_[cluster_id].members) assignment_[i] = -1;
  clusters_[cluster_id].members.clear();
  clusters_[cluster_id].weights.clear();
  clusters_[cluster_id].density = 0.0;
  cluster_dead_[cluster_id] = 1;
  ++cluster_version_[cluster_id];
  metrics_.clusters_dissolved->Add(1);
}

void OnlineAlid::CompactClusters() {
  if (std::find(cluster_dead_.begin(), cluster_dead_.end(), uint8_t{1}) ==
      cluster_dead_.end()) {
    return;
  }
  std::vector<int> remap(clusters_.size(), -1);
  std::vector<Cluster> kept;
  std::vector<uint64_t> kept_versions;
  std::vector<uint64_t> kept_uids;
  std::vector<SupportSketch> kept_sketches;
  std::vector<ClusterTiles> kept_tiles;
  kept.reserve(clusters_.size());
  for (size_t c = 0; c < clusters_.size(); ++c) {
    if (cluster_dead_[c] != 0) continue;
    remap[c] = static_cast<int>(kept.size());
    kept.push_back(std::move(clusters_[c]));
    kept_versions.push_back(cluster_version_[c]);
    kept_uids.push_back(cluster_uid_[c]);
    kept_sketches.push_back(std::move(sketches_[c]));
    kept_tiles.push_back(std::move(tiles_[c]));
  }
  clusters_ = std::move(kept);
  cluster_version_ = std::move(kept_versions);
  cluster_uid_ = std::move(kept_uids);
  sketches_ = std::move(kept_sketches);
  tiles_ = std::move(kept_tiles);
  cluster_dead_.assign(clusters_.size(), 0);
  for (int& a : assignment_) {
    if (a >= 0) a = remap[a];  // dead clusters hold no assignments
  }
}

}  // namespace alid

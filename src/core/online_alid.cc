#include "core/online_alid.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/check.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "obs/trace.h"

namespace alid {

OnlineAlid::OnlineAlid(int dim, OnlineAlidOptions options)
    : options_(options), data_(dim), affinity_fn_(options.affinity) {
  ALID_CHECK(dim > 0);
  ALID_CHECK(options_.window >= 0);
  ALID_CHECK(options_.refresh_interval >= 1);
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
  metrics_.redetect_entries = registry.AddCounter("redetect_entries");
  metrics_.refresh_entries = registry.AddCounter("refresh_entries");
  metrics_.alive = registry.AddGauge("alive");
  metrics_.clusters_alive = registry.AddGauge("clusters_alive");
  metrics_.ingest_seconds =
      registry.AddHistogram("ingest_seconds", obs::LatencyHistogramEdges());
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
  s.alive = static_cast<Index>(metrics_.alive->value());
  s.clusters_alive = static_cast<int>(metrics_.clusters_alive->value());
  return s;
}

Index OnlineAlid::Insert(std::span<const Scalar> point) {
  ALID_CHECK(static_cast<int>(point.size()) == data_.dim());
  return InsertBatch(point)[0];
}

std::vector<Index> OnlineAlid::InsertBatch(std::span<const Scalar> points) {
  const int dim = data_.dim();
  ALID_CHECK(points.size() % static_cast<size_t>(dim) == 0);
  const Index count = static_cast<Index>(points.size() / dim);
  std::vector<Index> slots(count);
  if (count == 0) return slots;
  WallTimer timer;
  ALID_TRACE_SCOPE("stream", "insert_batch");

  // Phase 1: slot allocation + row writes, in arrival order.
  // Expired slots are re-used smallest-first, so the slot sequence depends
  // only on the stream history.
  {
    ALID_TRACE_SCOPE("stream", "slot_alloc");
    for (Index k = 0; k < count; ++k) {
      slots[k] =
          AllocateSlot(points.subspan(static_cast<size_t>(k) * dim, dim));
    }
  }

  // Phase 2: bucket insertion in arrival order, each arrival hashed as it
  // is filed.
  {
    ALID_TRACE_SCOPE("stream", "lsh_insert");
    for (Index k = 0; k < count; ++k) lsh_->InsertItem(slots[k]);
  }

  // Phase 3: Theorem-1 absorb scoring of every arrival against the
  // batch-start clusters. Same-batch neighbours are already in the LSH
  // buckets but still unassigned, so the candidate sets — like the scores —
  // depend only on the batch boundary.
  std::vector<int> targets(count);
  {
    ALID_TRACE_SCOPE("stream", "absorb_score");
    for (Index k = 0; k < count; ++k) targets[k] = ScoreArrival(slots[k]);
  }

  // Phase 4: apply. Every target above was scored against the
  // batch-start state, before anything mutates. Expired members are peeled
  // first; then every touched cluster — an absorb target or a cluster that
  // lost members — is re-detected once, warm from its surviving weighted
  // support with its still-unassigned live newcomers added to the local
  // range, in ascending id order.
  {
    ALID_TRACE_SCOPE("stream", "apply");
    metrics_.arrivals->Add(count);
    std::vector<int> touched;
    if (options_.window > 0) {
      ALID_TRACE_SCOPE("stream", "expire");
      ExpireToWindow(touched);
    }
    for (Index k = 0; k < count; ++k) {
      if (targets[k] >= 0 && alive_[slots[k]] != 0) {
        touched.push_back(targets[k]);
      }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    IndexList newcomers;
    for (int cid : touched) {
      newcomers.clear();
      for (Index k = 0; k < count; ++k) {
        const Index slot = slots[k];
        if (targets[k] == cid && alive_[slot] != 0 && assignment_[slot] < 0) {
          newcomers.push_back(slot);
        }
      }
      RedetectCluster(cid, newcomers);
    }
    int64_t absorbed = 0;
    for (Index k = 0; k < count; ++k) absorbed += assignment_[slots[k]] >= 0;
    metrics_.absorbed->Add(absorbed);
    metrics_.pooled->Add(count - absorbed);
  }

  // Phase 5: the periodic pool pass, at batch end; the remainder
  // carries into the next interval.
  since_refresh_ += count;
  const bool refresh_pool = since_refresh_ >= options_.refresh_interval;
  since_refresh_ %= options_.refresh_interval;
  EndPass(refresh_pool);
  metrics_.ingest_seconds->Observe(timer.Seconds());
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

int OnlineAlid::ScoreArrival(Index slot) const {
  int best = -1;
  if (clusters_.empty()) return best;
  // Candidates are the clusters of the newcomer's LSH neighbours.
  std::vector<uint8_t> candidate(clusters_.size(), 0);
  for (Index j : lsh_->QueryByIndex(slot)) {
    if (assignment_[j] >= 0) candidate[assignment_[j]] = 1;
  }
  const std::span<const Scalar> query = data_[slot];
  Scalar best_margin = -std::numeric_limits<Scalar>::infinity();
  for (size_t c = 0; c < clusters_.size(); ++c) {
    if (candidate[c] == 0) continue;
    // Batch-start state: every scorer was rebuilt at the previous batch end.
    ALID_DCHECK(scorers_[c] != nullptr &&
                scorers_[c]->version == cluster_version_[c]);
    const ClusterScorer& scorer = *scorers_[c];
    // Absorb when (near-)infective: same-cluster arrivals sit at the density
    // (Theorem 1 equality on the support), hence the slack.
    const Scalar threshold = clusters_[c].density * (1.0 - kAbsorbSlack);
    // The member tiles reproduce the oracle's member-order accumulation
    // bit for bit. The newcomer is unassigned, so no member equals `slot`
    // and the oracle's a_ii = 0 diagonal could never have been hit here.
    const Scalar affinity = scorer.Affinity(affinity_fn_, query);
    const Scalar margin = affinity - threshold;
    if (margin > 0.0 && margin > best_margin) {
      best_margin = margin;
      best = static_cast<int>(c);
    }
  }
  return best;
}

void OnlineAlid::Refresh() {
  since_refresh_ = 0;
  EndPass(/*refresh_pool=*/true);
}

void OnlineAlid::EndPass(bool refresh_pool) {
  if (refresh_pool) {
    DetectFromPool();
    metrics_.refreshes->Add(1);
  }
  {
    ALID_TRACE_SCOPE("stream", "compact");
    CompactClusters();
  }
  // Mutated clusters get new scorers here — the next batch's scoring
  // phase and any between-batch snapshot export read only fresh ones.
  RefreshScorers();
  metrics_.alive->Set(alive());
  metrics_.clusters_alive->Set(static_cast<int64_t>(clusters_.size()));
}

void OnlineAlid::RefreshScorers() {
  ALID_TRACE_SCOPE("stream", "scorer_rebuild");
  // Only clusters whose version moved rebuild, so the cost is O(changed),
  // not O(clusters). A replaced scorer is released, never mutated: a
  // snapshot may still be serving it.
  for (size_t c = 0; c < clusters_.size(); ++c) {
    if (scorers_[c] != nullptr && scorers_[c]->version == cluster_version_[c]) {
      continue;
    }
    scorers_[c] = BuildClusterScorer(data_, clusters_[c].members,
                                     clusters_[c].weights, cluster_version_[c]);
  }
}

void OnlineAlid::RedetectCluster(int cluster_id, const IndexList& newcomers) {
  const Cluster& cl = clusters_[cluster_id];
  if (cl.members.empty() ||
      (newcomers.empty() &&
       static_cast<int>(cl.members.size()) < kMinClusterSize)) {
    DissolveCluster(cluster_id);  // the newcomers (if any) stay pooled
    return;
  }
  ALID_TRACE_SCOPE("stream", "redetect");
  metrics_.redetections->Add(1);
  const int64_t entries_before = oracle_->entries_computed();
  // Items owned by *other* clusters — and expired slots — stay out of this
  // re-detection.
  std::vector<bool> exclude(data_.size(), false);
  for (Index i = 0; i < data_.size(); ++i) {
    exclude[i] = alive_[i] == 0 ||
                 (assignment_[i] >= 0 && assignment_[i] != cluster_id);
  }
  AlidDetector detector(*oracle_, *lsh_, options_.alid);
  Cluster fresh =
      detector.DetectFrom(cl.members, cl.weights, newcomers, &exclude);
  metrics_.redetect_entries->Add(oracle_->entries_computed() - entries_before);

  // Release the old membership.
  for (Index i : cl.members) assignment_[i] = -1;
  ++cluster_version_[cluster_id];
  if (fresh.density >= options_.alid.density_threshold &&
      static_cast<int>(fresh.members.size()) >= kMinClusterSize) {
    clusters_[cluster_id] = std::move(fresh);
    Assign(cluster_id);
    return;
  }
  // The cluster dissolved (e.g., it was marginal and the newcomers pulled
  // the dynamics elsewhere): empty it; CompactClusters erases it at the end
  // of the batch so same-batch cluster ids stay stable.
  DissolveCluster(cluster_id);
}

void OnlineAlid::DetectFromPool() {
  ALID_TRACE_SCOPE("stream", "refresh");
  std::vector<bool> exclude(data_.size(), false);
  for (Index i = 0; i < data_.size(); ++i) {
    exclude[i] = alive_[i] == 0 || assignment_[i] >= 0;
  }
  const int64_t entries_before = oracle_->entries_computed();
  AlidDetector detector(*oracle_, *lsh_, options_.alid);
  // The paper's peel (Section 4.4): detect from a seed, remove the support
  // it found, reseed on what is left. Seeds go in ascending slot order, so
  // the outcome is a pure function of the stream history.
  for (Index seed = 0; seed < data_.size(); ++seed) {
    if (exclude[seed]) continue;
    InstallPoolCluster(detector.DetectOne(seed, &exclude), detector, exclude);
  }
  metrics_.refresh_entries->Add(oracle_->entries_computed() - entries_before);
}

void OnlineAlid::InstallPoolCluster(Cluster c, const AlidDetector& detector,
                                    std::vector<bool>& exclude) {
  for (Index i : c.members) exclude[i] = true;  // peel
  if (c.density < options_.alid.density_threshold ||
      static_cast<int>(c.members.size()) < kMinClusterSize) {
    return;
  }
  // A pool cluster might be the missing half of an existing one (its
  // members arrived after that cluster was detected). If the cross
  // density matches dominant-cluster coherence, re-detect from the pool
  // cluster's seed over everything the other clusters do not own; the
  // result replaces the sibling, and it need not keep all of the sibling's
  // members. The pair sum runs on the calling thread in ParallelSum's
  // fixed-grain chunk order.
  int merge_with = -1;
  for (size_t e = 0; e < clusters_.size(); ++e) {
    const Cluster& cl = clusters_[e];
    if (cl.members.empty()) continue;  // dissolved earlier in this pass
    const Scalar cross = ParallelSum(
        nullptr, 0, static_cast<int64_t>(c.members.size()),
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
    // Release the sibling and re-detect from the pool cluster's seed.
    for (Index i : clusters_[merge_with].members) assignment_[i] = -1;
    std::vector<bool> other_owned(data_.size(), false);
    for (Index i = 0; i < data_.size(); ++i) {
      other_owned[i] = alive_[i] == 0 || assignment_[i] >= 0;
    }
    Cluster merged = detector.DetectOne(c.seed, &other_owned);
    ++cluster_version_[merge_with];
    if (merged.density >= options_.alid.density_threshold &&
        static_cast<int>(merged.members.size()) >= kMinClusterSize) {
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
  cluster_uid_.push_back(next_cluster_uid_++);
  scorers_.emplace_back();
  Assign(static_cast<int>(clusters_.size()) - 1);
  metrics_.clusters_born->Add(1);
}

void OnlineAlid::Assign(int cluster_id) {
  for (Index i : clusters_[cluster_id].members) assignment_[i] = cluster_id;
}

void OnlineAlid::ExpireToWindow(std::vector<int>& peeled) {
  std::vector<Index> expired;
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
      peeled.push_back(cid);
    }
    expired.push_back(slot);
    metrics_.evicted->Add(1);
  }
  if (expired.empty()) return;
  free_slots_.insert(free_slots_.end(), expired.begin(), expired.end());
  std::sort(free_slots_.begin(), free_slots_.end(), std::greater<Index>());
}

void OnlineAlid::DissolveCluster(int cluster_id) {
  for (Index i : clusters_[cluster_id].members) assignment_[i] = -1;
  clusters_[cluster_id].members.clear();
  clusters_[cluster_id].weights.clear();
  clusters_[cluster_id].density = 0.0;
  ++cluster_version_[cluster_id];
  metrics_.clusters_dissolved->Add(1);
}

void OnlineAlid::CompactClusters() {
  // A cluster is dead exactly when DissolveCluster emptied it: every live
  // cluster leaves RedetectCluster or InstallPoolCluster with a non-empty
  // support (an ALID optimum keeps at least one positive weight).
  const auto dead = [](const Cluster& c) { return c.members.empty(); };
  if (std::none_of(clusters_.begin(), clusters_.end(), dead)) return;
  std::vector<int> remap(clusters_.size(), -1);
  std::vector<Cluster> kept;
  std::vector<uint64_t> kept_versions;
  std::vector<uint64_t> kept_uids;
  std::vector<std::shared_ptr<const ClusterScorer>> kept_scorers;
  kept.reserve(clusters_.size());
  for (size_t c = 0; c < clusters_.size(); ++c) {
    if (dead(clusters_[c])) continue;
    remap[c] = static_cast<int>(kept.size());
    kept.push_back(std::move(clusters_[c]));
    kept_versions.push_back(cluster_version_[c]);
    kept_uids.push_back(cluster_uid_[c]);
    kept_scorers.push_back(std::move(scorers_[c]));
  }
  clusters_ = std::move(kept);
  cluster_version_ = std::move(kept_versions);
  cluster_uid_ = std::move(kept_uids);
  scorers_ = std::move(kept_scorers);
  ALID_DCHECK(std::none_of(clusters_.begin(), clusters_.end(), dead));
  for (int& a : assignment_) {
    if (a >= 0) a = remap[a];  // dead clusters hold no assignments
  }
}

}  // namespace alid

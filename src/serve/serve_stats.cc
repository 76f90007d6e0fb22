#include "serve/serve_stats.h"

#include <algorithm>

namespace alid {

ServeStats::ServeStats()
    : single_queries_(registry_.AddCounter("single_queries")),
      batch_calls_(registry_.AddCounter("batch_calls")),
      queries_(registry_.AddCounter("queries")),
      assigned_(registry_.AddCounter("assigned")),
      topk_queries_(registry_.AddCounter("topk_queries")),
      info_queries_(registry_.AddCounter("info_queries")),
      fanout_(registry_.AddCounter("shard_fanout_queries")),
      snapshots_published_(registry_.AddCounter("snapshots_published")),
      rows_reused_(registry_.AddCounter("rows_reused")),
      clusters_reused_(registry_.AddCounter("clusters_reused")),
      bytes_shared_(registry_.AddCounter("bytes_shared")),
      bytes_copied_(registry_.AddCounter("bytes_copied")),
      query_seconds_(registry_.AddHistogram("query_seconds",
                                            obs::LatencyHistogramEdges())),
      publish_seconds_(registry_.AddHistogram(
          "publish_seconds", obs::LatencyHistogramEdges())) {}

void ServeStats::RecordAssign(int64_t items, int64_t assigned, double seconds,
                              bool batch) {
  if (batch) {
    batch_calls_->Add(1);
  } else {
    single_queries_->Add(1);
  }
  // queries_ bumps before assigned_ (and View() reads them in the opposite
  // order) so unassigned = queries - assigned stays >= 0 even mid-call.
  queries_->Add(items);
  assigned_->Add(assigned);
  if (items <= 0) return;
  query_seconds_->Observe(seconds / static_cast<double>(items));
}

void ServeStats::RecordPublish(bool has_build, double build_seconds,
                               int64_t rows_reused, int64_t clusters_reused,
                               int64_t bytes_shared, int64_t bytes_copied) {
  snapshots_published_->Add(1);
  if (rows_reused > 0) rows_reused_->Add(rows_reused);
  if (clusters_reused > 0) clusters_reused_->Add(clusters_reused);
  if (bytes_shared > 0) bytes_shared_->Add(bytes_shared);
  if (bytes_copied > 0) bytes_copied_->Add(bytes_copied);
  if (!has_build) return;
  publish_seconds_->Observe(build_seconds);
}

ServeStatsView ServeStats::View() const {
  ServeStatsView view;
  view.single_queries = single_queries_->value();
  view.batch_calls = batch_calls_->value();
  // assigned_ loads before queries_: RecordAssign bumps queries_ first, so
  // this order (plus the clamp) keeps unassigned >= 0 even mid-call.
  view.assigned = assigned_->value();
  view.queries = queries_->value();
  view.unassigned = std::max<int64_t>(0, view.queries - view.assigned);
  view.topk_queries = topk_queries_->value();
  view.info_queries = info_queries_->value();
  view.snapshots_published = snapshots_published_->value();
  view.rows_reused = rows_reused_->value();
  view.clusters_reused = clusters_reused_->value();
  view.bytes_shared = bytes_shared_->value();
  view.bytes_copied = bytes_copied_->value();
  return view;
}

}  // namespace alid

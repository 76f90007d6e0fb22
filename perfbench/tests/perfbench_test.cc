// Unit tests of the benchmark's percentile helper and span self-time fold.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "span_trace.h"
#include "stats.h"

namespace alid::perfbench {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

TEST(StatsTest, MedianOfOddAndEvenCounts) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(StatsTest, RankQuantileIsNearestRank) {
  const std::vector<double> values = Ramp(100);
  EXPECT_DOUBLE_EQ(RankQuantile(values, 0.9), 90.0);
  EXPECT_DOUBLE_EQ(RankQuantile(values, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(RankQuantile(values, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(RankQuantile({5.0}, 0.5), 5.0);
}

TEST(StatsTest, SamplesBeyondCountsStrictlyLargerRanks) {
  EXPECT_EQ(SamplesBeyond(100, 0.9), 10);
  EXPECT_EQ(SamplesBeyond(99, 0.9), 9);
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0);
}

TEST(StatsTest, NamedTailIsRefusedWhenTheRunIsTooShort) {
  EXPECT_FALSE(Tail(Ramp(99), 0.9).has_value());
  ASSERT_TRUE(Tail(Ramp(100), 0.9).has_value());
  EXPECT_DOUBLE_EQ(*Tail(Ramp(100), 0.9), 90.0);
  EXPECT_FALSE(Tail(Ramp(999), 0.99).has_value());
  EXPECT_TRUE(Tail(Ramp(1000), 0.99).has_value());
}

TEST(StatsTest, SummaryPicksTheHighestQualifyingPercentile) {
  const Summary none = Summarize(Ramp(99));
  EXPECT_EQ(none.count, 99);
  EXPECT_DOUBLE_EQ(none.median, 50.0);
  EXPECT_EQ(none.tail_q, 0.0);

  const Summary p90 = Summarize(Ramp(150));
  EXPECT_DOUBLE_EQ(p90.tail_q, 0.9);
  EXPECT_DOUBLE_EQ(p90.tail, 135.0);

  const Summary p95 = Summarize(Ramp(200));
  EXPECT_DOUBLE_EQ(p95.tail_q, 0.95);
  EXPECT_DOUBLE_EQ(p95.tail, 190.0);

  const Summary p99 = Summarize(Ramp(5000));
  EXPECT_DOUBLE_EQ(p99.tail_q, 0.99);

  const Summary p999 = Summarize(Ramp(10000));
  EXPECT_DOUBLE_EQ(p999.tail_q, 0.999);
  EXPECT_DOUBLE_EQ(p999.tail, 9990.0);
}

TEST(StatsTest, FormatSummaryPrintsTheSampleCount) {
  EXPECT_EQ(FormatSummary(Summarize(Ramp(100)), 1.0, "s"),
            "p50=50.5s p90=90s (n=100)");
  EXPECT_EQ(FormatSummary(Summarize(Ramp(3)), 1e3, "ms"),
            "p50=2000ms (n=3, no tail)");
}

SpanRecord Span(int64_t id, int64_t parent, const char* name, int64_t start,
                int64_t end) {
  SpanRecord span;
  span.id = id;
  span.parent = parent;
  span.name = name;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(SpanFoldTest, SelfTimeSubtractsTheUnionOfChildren) {
  // root [0, 100) with children [10, 30), [20, 50) (overlapping: union 40)
  // and [60, 70); the grandchild [12, 14) only affects its parent.
  const std::vector<SpanRecord> spans = {
      Span(1, -1, "root", 0, 100),   Span(2, 1, "child", 10, 30),
      Span(3, 1, "child", 20, 50),   Span(4, 1, "other", 60, 70),
      Span(5, 2, "leaf", 12, 14),
  };
  const auto layers = FoldSpans(spans);
  ASSERT_EQ(layers.size(), 4u);
  EXPECT_EQ(layers.at("root").count, 1);
  EXPECT_NEAR(layers.at("root").busy_s, 100e-9, 1e-15);
  EXPECT_NEAR(layers.at("root").self_s, 50e-9, 1e-15);
  EXPECT_EQ(layers.at("child").count, 2);
  EXPECT_NEAR(layers.at("child").busy_s, 50e-9, 1e-15);
  EXPECT_NEAR(layers.at("child").self_s, 48e-9, 1e-15);
  EXPECT_NEAR(layers.at("other").self_s, 10e-9, 1e-15);
  EXPECT_NEAR(layers.at("leaf").self_s, 2e-9, 1e-15);
}

TEST(SpanFoldTest, ChildrenAreClippedToTheirParent) {
  const std::vector<SpanRecord> spans = {
      Span(1, -1, "root", 100, 200),
      Span(2, 1, "child", 50, 150),  // starts before the parent
      Span(3, 1, "child", 190, 260),  // ends after it
  };
  const auto layers = FoldSpans(spans);
  EXPECT_NEAR(layers.at("root").self_s, 40e-9, 1e-15);
}

TEST(SpanTracerTest, ScopesRecordParentsAndInheritRequests) {
  SpanTracer tracer;
  {
    SpanScope outer(&tracer, "outer", 7);
    { SpanScope inner(&tracer, "inner"); }
    { SpanScope own(&tracer, "own", 9); }
  }
  { SpanScope off(nullptr, "never"); }
  const std::vector<SpanRecord> spans = tracer.Collect();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[1].request, 7u);
  EXPECT_EQ(spans[2].request, 9u);
  for (const SpanRecord& span : spans) EXPECT_LE(span.start_ns, span.end_ns);
  const auto layers = FoldSpans(spans);
  EXPECT_LE(layers.at("outer").self_s, layers.at("outer").busy_s);
}

TEST(SpanTracerTest, ThreadsNeverDropSpans) {
  SpanTracer tracer;
  constexpr int kThreads = 4;
  constexpr int kSpans = 50000;  // beyond any fixed ring size
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kSpans; ++i) {
        SpanScope span(&tracer, "work", static_cast<uint64_t>(t) + 1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::vector<SpanRecord> spans = tracer.Collect();
  EXPECT_EQ(spans.size(), static_cast<size_t>(kThreads) * kSpans);
  EXPECT_EQ(FoldSpans(spans).at("work").count, kThreads * kSpans);
}

}  // namespace
}  // namespace alid::perfbench

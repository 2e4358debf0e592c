#include "src/util/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/util/thread_pool.h"

namespace tg_util {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = MetricsEnabled();
    SetMetricsEnabled(true);
  }
  void TearDown() override { SetMetricsEnabled(was_enabled_); }

  bool was_enabled_ = true;
};

TEST_F(TraceTest, KindNamesAreDistinct) {
  EXPECT_STREQ(TraceKindName(TraceKind::kSnapshotBuild), "snapshot_build");
  EXPECT_STREQ(TraceKindName(TraceKind::kProductBfs), "product_bfs");
  EXPECT_STREQ(TraceKindName(TraceKind::kRuleApply), "rule_apply");
  EXPECT_STREQ(TraceKindName(TraceKind::kCacheRebuild), "cache_rebuild");
}

TEST_F(TraceTest, RecordsEventsOldestFirst) {
  TraceBuffer buffer(8);
  buffer.Record(TraceKind::kSnapshotBuild, 10, 5, 100, 200);
  buffer.Record(TraceKind::kProductBfs, 20, 7, 300, 400);
  std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceKind::kSnapshotBuild);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].start_ns, 10u);
  EXPECT_EQ(events[0].duration_ns, 5u);
  EXPECT_EQ(events[0].arg0, 100u);
  EXPECT_EQ(events[0].arg1, 200u);
  EXPECT_EQ(events[1].kind, TraceKind::kProductBfs);
  EXPECT_EQ(events[1].seq, 1u);
}

TEST_F(TraceTest, RingOverwritesOldestOnWraparound) {
  constexpr size_t kCapacity = 4;
  TraceBuffer buffer(kCapacity);
  for (uint64_t i = 0; i < kCapacity + 3; ++i) {
    buffer.Record(TraceKind::kProductBfs, i, 1, i, 0);
  }
  EXPECT_EQ(buffer.total_recorded(), kCapacity + 3);
  std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), kCapacity);
  // The ring retains the last kCapacity events, in order: seq 3..6.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 3 + i);
    EXPECT_EQ(events[i].arg0, 3 + i);
  }
}

TEST_F(TraceTest, ClearEmptiesRetainedEventsAndCount) {
  TraceBuffer buffer(4);
  buffer.Record(TraceKind::kRuleApply, 0, 1);
  buffer.Clear();
  EXPECT_EQ(buffer.total_recorded(), 0u);
  EXPECT_TRUE(buffer.Events().empty());
  // The buffer is reusable after Clear.
  buffer.Record(TraceKind::kRuleApply, 0, 1);
  EXPECT_EQ(buffer.total_recorded(), 1u);
}

TEST_F(TraceTest, SpanRecordsIntoGlobalInstance) {
  TraceBuffer::Instance().Clear();
  {
    TraceSpan span(TraceKind::kDeFactoSaturate, 1, 2);
    span.set_args(7, 9);
  }
  std::vector<TraceEvent> events = TraceBuffer::Instance().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, TraceKind::kDeFactoSaturate);
  EXPECT_EQ(events[0].arg0, 7u);
  EXPECT_EQ(events[0].arg1, 9u);
}

TEST_F(TraceTest, DisabledModeRecordsNothing) {
  TraceBuffer::Instance().Clear();
  SetMetricsEnabled(false);
  {
    TraceSpan span(TraceKind::kMonitorDecision);
  }
  SetMetricsEnabled(true);
  EXPECT_EQ(TraceBuffer::Instance().total_recorded(), 0u);
}

TEST_F(TraceTest, ConcurrentRecordsAllLand) {
  TraceBuffer buffer(64);
  ThreadPool pool(4);
  pool.ParallelFor(500, [&](size_t i) {
    buffer.Record(TraceKind::kProductBfs, i, 1, i, 0);
  });
  EXPECT_EQ(buffer.total_recorded(), 500u);
  std::vector<TraceEvent> events = buffer.Events();
  EXPECT_EQ(events.size(), 64u);
  // Sequence numbers are unique and consecutive within the retained window.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
}

TEST_F(TraceTest, RenderTextShowsMostRecentLimit) {
  TraceBuffer buffer(16);
  for (uint64_t i = 0; i < 5; ++i) {
    buffer.Record(TraceKind::kBitReach, i * 1000, 500, i, 4);
  }
  std::string all = buffer.RenderText();
  std::string last_two = buffer.RenderText(2);
  EXPECT_NE(all.find("bit_reach"), std::string::npos) << all;
  EXPECT_EQ(last_two.find("0 bit_reach"), std::string::npos) << last_two;
  EXPECT_NE(last_two.find("3 bit_reach"), std::string::npos) << last_two;
  EXPECT_NE(last_two.find("4 bit_reach"), std::string::npos) << last_two;
}

TEST_F(TraceTest, NowNsIsMonotonic) {
  uint64_t a = TraceBuffer::NowNs();
  uint64_t b = TraceBuffer::NowNs();
  EXPECT_LE(a, b);
}

// Regression: RenderText on an overfilled ring must list events strictly
// by seq (oldest retained first) and disclose the loss — an earlier
// slot-order walk would interleave wrapped and unwrapped slots.
TEST_F(TraceTest, RenderTextStaysSeqOrderedAndReportsDropsAfterOverfill) {
  constexpr size_t kCapacity = 4;
  constexpr uint64_t kTotal = 11;  // overfills nearly 3x, mid-wrap
  TraceBuffer buffer(kCapacity);
  for (uint64_t i = 0; i < kTotal; ++i) {
    buffer.Record(TraceKind::kProductBfs, i, 1, i, 0);
  }
  EXPECT_EQ(buffer.dropped(), kTotal - kCapacity);

  std::string text = buffer.RenderText();
  std::vector<uint64_t> seqs;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    std::string line = text.substr(pos, eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    seqs.push_back(std::stoull(line));
  }
  ASSERT_EQ(seqs.size(), kCapacity);
  EXPECT_EQ(seqs.front(), kTotal - kCapacity);
  for (size_t i = 1; i < seqs.size(); ++i) {
    EXPECT_EQ(seqs[i], seqs[i - 1] + 1) << text;
  }
  EXPECT_NE(text.find("# dropped 7"), std::string::npos) << text;
}

TEST_F(TraceTest, RecordStampsAmbientContextAndFreshSpanIds) {
  TraceBuffer buffer(8);
  uint64_t first = 0;
  uint64_t second = 0;
  {
    ScopedTraceContext scope(TraceContext{42, 7});
    first = buffer.Record(TraceKind::kProductBfs, 0, 1);
    second = buffer.Record(TraceKind::kProductBfs, 1, 1);
  }
  uint64_t background = buffer.Record(TraceKind::kProductBfs, 2, 1);

  std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].query_id, 42u);
  EXPECT_EQ(events[0].parent_span, 7u);
  EXPECT_EQ(events[0].span_id, first);
  EXPECT_EQ(events[1].span_id, second);
  EXPECT_NE(first, second);
  EXPECT_NE(first, 0u);
  EXPECT_EQ(events[2].query_id, 0u);
  EXPECT_EQ(events[2].parent_span, 0u);
  EXPECT_EQ(events[2].span_id, background);
}

TEST_F(TraceTest, NestedSpansFormParentChain) {
  TraceBuffer::Instance().Clear();
  {
    ScopedTraceContext scope(TraceContext{9, 0});
    TraceSpan outer(TraceKind::kCacheRebuild);
    { TraceSpan inner(TraceKind::kProductBfs); }
  }
  std::vector<TraceEvent> events = TraceBuffer::Instance().Events();
  ASSERT_EQ(events.size(), 2u);  // inner closed (and recorded) first
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_EQ(inner.kind, TraceKind::kProductBfs);
  EXPECT_EQ(outer.kind, TraceKind::kCacheRebuild);
  EXPECT_EQ(inner.query_id, 9u);
  EXPECT_EQ(outer.query_id, 9u);
  EXPECT_EQ(outer.parent_span, 0u);
  EXPECT_EQ(inner.parent_span, outer.span_id);
}

TEST_F(TraceTest, QueryScopeAllocatesIdAndNestedScopeJoins) {
  TraceBuffer::Instance().Clear();
  uint64_t root_id = 0;
  {
    QueryScope root(QueryKind::kCheckSecure);
    root_id = root.query_id();
    EXPECT_TRUE(root.is_root());
    EXPECT_NE(root_id, 0u);
    {
      QueryScope nested(QueryKind::kKnowable);
      EXPECT_FALSE(nested.is_root());
      EXPECT_EQ(nested.query_id(), root_id);
      nested.set_result(3);
    }
    root.set_verdict(true);
  }
  // Outside any scope the next query gets a fresh id.
  {
    QueryScope other(QueryKind::kCanKnow);
    EXPECT_TRUE(other.is_root());
    EXPECT_NE(other.query_id(), root_id);
  }

  std::vector<TraceEvent> events = TraceBuffer::Instance().Events();
  ASSERT_EQ(events.size(), 3u);
  const TraceEvent& nested = events[0];
  const TraceEvent& root = events[1];
  EXPECT_EQ(nested.query_id, root_id);
  EXPECT_EQ(root.query_id, root_id);
  EXPECT_EQ(nested.parent_span, root.span_id);
  EXPECT_EQ(root.parent_span, 0u);
  EXPECT_EQ(nested.arg0, static_cast<uint64_t>(QueryKind::kKnowable));
  EXPECT_EQ(nested.arg1, 3u);
  EXPECT_EQ(root.arg1, 1u);  // verdict true
}

TEST_F(TraceTest, ParallelForForwardsContextToWorkers) {
  TraceBuffer::Instance().Clear();
  ThreadPool pool(4);
  uint64_t query_id = 0;
  {
    QueryScope query(QueryKind::kRwtgLevels);
    query_id = query.query_id();
    pool.ParallelFor(64, [&](size_t) { TraceSpan span(TraceKind::kBitReach); });
  }
  std::vector<TraceEvent> events = TraceBuffer::Instance().Events();
  ASSERT_EQ(events.size(), 65u);
  for (const TraceEvent& e : events) {
    EXPECT_EQ(e.query_id, query_id);
  }
}

TEST_F(TraceTest, DroppedGaugeMirrorsInstanceRingLoss) {
  TraceBuffer& ring = TraceBuffer::Instance();
  ring.Clear();
  EXPECT_EQ(GetGauge("trace.dropped").value(), 0);
  const uint64_t overfill = static_cast<uint64_t>(ring.capacity()) + 5;
  for (uint64_t i = 0; i < overfill; ++i) {
    ring.Record(TraceKind::kProductBfs, i, 1);
  }
  EXPECT_EQ(ring.dropped(), 5u);
  EXPECT_EQ(GetGauge("trace.dropped").value(), 5);
  ring.Clear();
  EXPECT_EQ(GetGauge("trace.dropped").value(), 0);
}

TEST_F(TraceTest, SpanProfileAggregatesPerKindDurations) {
  ResetSpanProfile();
  TraceBuffer buffer(8);  // a local ring still feeds nothing...
  buffer.Record(TraceKind::kRuleApply, 0, 1000);
  EXPECT_EQ(SpanHistogram(TraceKind::kRuleApply).count(), 0u);
  // ...but the process ring does.
  TraceBuffer::Instance().Record(TraceKind::kRuleApply, 0, 1000);
  TraceBuffer::Instance().Record(TraceKind::kRuleApply, 0, 3000);
  Histogram& h = SpanHistogram(TraceKind::kRuleApply);
  EXPECT_EQ(h.count(), 2u);
  std::string profile = RenderSpanProfileText();
  EXPECT_NE(profile.find("rule_apply"), std::string::npos) << profile;
  EXPECT_NE(profile.find("count=2"), std::string::npos) << profile;
  ResetSpanProfile();
  EXPECT_EQ(SpanHistogram(TraceKind::kRuleApply).count(), 0u);
}

// --- Query-span sampling ---------------------------------------------------

// Restores the sample period to 0 (record everything) even when an
// assertion fails mid-test, so later suites keep full-fidelity tracing.
class TraceSamplingTest : public TraceTest {
 protected:
  void TearDown() override {
    SetQuerySamplePeriod(0);
    TraceTest::TearDown();
  }
};

TEST_F(TraceSamplingTest, PeriodRoundsDownToAPowerOfTwo) {
  SetQuerySamplePeriod(0);
  EXPECT_EQ(QuerySampleMask(), 0u);
  SetQuerySamplePeriod(1);
  EXPECT_EQ(QuerySampleMask(), 0u);  // every query records
  SetQuerySamplePeriod(4);
  EXPECT_EQ(QuerySampleMask(), 3u);
  SetQuerySamplePeriod(6);  // not a power of two: rounds down to 4
  EXPECT_EQ(QuerySampleMask(), 3u);
  SetQuerySamplePeriod(64);
  EXPECT_EQ(QuerySampleMask(), 63u);
}

TEST_F(TraceSamplingTest, SampleableScopesArmOneInPeriod) {
  SetQuerySamplePeriod(4);
  // The per-thread tick counter's phase depends on what ran before on
  // this thread, so assert the rate over whole periods, not positions.
  int armed = 0;
  for (int i = 0; i < 8; ++i) {
    QueryScope scope(QueryKind::kCanKnow, 0, QueryScope::kSampleable);
    armed += scope.query_id() != 0 ? 1 : 0;
  }
  EXPECT_EQ(armed, 2);

  // kAlways scopes ignore the period entirely.
  for (int i = 0; i < 3; ++i) {
    QueryScope scope(QueryKind::kServerRequest);
    EXPECT_NE(scope.query_id(), 0u);
  }
}

TEST_F(TraceSamplingTest, NestedScopesInheritTheEnclosingQueriesFate) {
  SetQuerySamplePeriod(4);
  // Inside an armed (kAlways) query, a kSampleable scope must arm and
  // join the same query id regardless of the tick counter: a kept query
  // carries its complete span tree, a dropped one records nothing.
  for (int i = 0; i < 8; ++i) {
    QueryScope root(QueryKind::kServerRequest);
    ASSERT_NE(root.query_id(), 0u);
    QueryScope nested(QueryKind::kCanKnow, 0, QueryScope::kSampleable);
    EXPECT_EQ(nested.query_id(), root.query_id());
    EXPECT_FALSE(nested.is_root());
  }
}

TEST_F(TraceSamplingTest, TraceDetailArmsWithTheEnclosingQueryOnly) {
  SetQuerySamplePeriod(0);
  EXPECT_TRUE(TraceDetailArmed());  // no sampling: detail always on
  SetQuerySamplePeriod(4);
  EXPECT_FALSE(TraceDetailArmed());  // sampling, outside any query
  {
    QueryScope root(QueryKind::kServerRequest);
    EXPECT_TRUE(TraceDetailArmed());  // inside a recorded query
  }
  EXPECT_FALSE(TraceDetailArmed());
}

TEST_F(TraceSamplingTest, SampledOutScopeRecordsNoEventAndNoContext) {
  SetQuerySamplePeriod(1u << 30);  // effectively never tick
  TraceBuffer::Instance().Clear();
  {
    QueryScope scope(QueryKind::kCanKnow, 0, QueryScope::kSampleable);
    EXPECT_EQ(scope.query_id(), 0u);
    EXPECT_FALSE(scope.is_root());
    // A sampled-out scope must not leak a context that later spans would
    // attach to.
    EXPECT_EQ(CurrentTraceContext().query_id, 0u);
    TraceSpan span(TraceKind::kProductBfs, 0, 0, TraceSpan::kSampleable);
    EXPECT_FALSE(span.armed());
  }
  EXPECT_TRUE(TraceBuffer::Instance().Events().empty());
}

TEST_F(TraceSamplingTest, SampleableSpansRecordInsideRecordedQueries) {
  SetQuerySamplePeriod(4);
  TraceBuffer::Instance().Clear();
  {
    QueryScope root(QueryKind::kServerRequest);
    ASSERT_NE(root.query_id(), 0u);
    TraceSpan span(TraceKind::kSnapshotBuild, 0, 0, TraceSpan::kSampleable);
    EXPECT_TRUE(span.armed());
  }
  // The span and the query event both landed, stamped with one query id.
  std::vector<TraceEvent> events = TraceBuffer::Instance().Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, TraceKind::kSnapshotBuild);
  EXPECT_EQ(events[1].kind, TraceKind::kQuery);
  EXPECT_EQ(events[0].query_id, events[1].query_id);
}

}  // namespace
}  // namespace tg_util

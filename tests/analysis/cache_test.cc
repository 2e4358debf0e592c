#include "src/analysis/cache.h"

#include <gtest/gtest.h>

#include "src/analysis/batch.h"
#include "src/analysis/can_know.h"
#include "src/sim/generator.h"
#include "src/util/metrics.h"
#include "src/util/prng.h"

namespace tg_analysis {
namespace {

using tg::ProtectionGraph;
using tg::VertexId;

TEST(GraphEpochTest, EveryEffectiveMutatorBumpsTheEpoch) {
  ProtectionGraph g;
  uint64_t e = g.epoch();
  auto bumped = [&] {
    uint64_t now = g.epoch();
    bool changed = now > e;
    e = now;
    return changed;
  };

  VertexId a = g.AddSubject("a");
  EXPECT_TRUE(bumped()) << "AddVertex";
  VertexId b = g.AddObject("b");
  EXPECT_TRUE(bumped()) << "AddVertex";
  ASSERT_TRUE(g.AddExplicit(a, b, tg::kTakeGrant).ok());
  EXPECT_TRUE(bumped()) << "AddExplicit";
  ASSERT_TRUE(g.AddImplicit(a, b, tg::kRead).ok());
  EXPECT_TRUE(bumped()) << "AddImplicit";
  ASSERT_TRUE(g.RemoveExplicit(a, b, tg::kGrant).ok());
  EXPECT_TRUE(bumped()) << "RemoveExplicit";
  ASSERT_TRUE(g.RemoveImplicit(a, b, tg::kRead).ok());
  EXPECT_TRUE(bumped()) << "RemoveImplicit";
  ASSERT_TRUE(g.AddImplicit(a, b, tg::kRead).ok());
  EXPECT_TRUE(bumped()) << "AddImplicit (again)";
  g.ClearImplicit();  // one implicit edge present: effective
  EXPECT_TRUE(bumped()) << "ClearImplicit";

  // Read-only accessors leave the epoch alone.
  (void)g.IsSubject(a);
  (void)g.HasExplicit(a, b, tg::Right::kTake);
  EXPECT_EQ(g.epoch(), e);

  // Every effective mutation appended exactly one journal record, and the
  // journal's epoch arithmetic lines up with the graph's.
  EXPECT_EQ(g.journal().base_epoch() + g.journal().size(), g.epoch());
  EXPECT_TRUE(g.journal().Covers(0));
  EXPECT_EQ(g.journal().Since(0).size(), g.journal().size());
}

// The ISSUE-4 regression: no-op mutations (removing an absent right,
// re-adding rights already in the label, clearing zero implicit edges)
// must be epoch-stable — and therefore must not invalidate any cache
// entry.
TEST(GraphEpochTest, NoOpMutationsAreEpochStable) {
  ProtectionGraph g;
  VertexId a = g.AddSubject("a");
  VertexId b = g.AddObject("b");
  ASSERT_TRUE(g.AddExplicit(a, b, tg::kTakeGrant).ok());
  const uint64_t e = g.epoch();
  const size_t records = g.journal().size();

  ASSERT_TRUE(g.AddExplicit(a, b, tg::kTake).ok());  // subset of the label
  ASSERT_TRUE(g.AddExplicit(a, b, tg::kTakeGrant).ok());
  ASSERT_TRUE(g.RemoveExplicit(a, b, tg::kRead).ok());   // absent right
  EXPECT_FALSE(g.RemoveImplicit(a, b, tg::kRead).ok());  // no implicit edge: NotFound
  g.ClearImplicit();  // no implicit edges at all
  EXPECT_EQ(g.epoch(), e);
  EXPECT_EQ(g.journal().size(), records);

  // A partially-effective mutation journals only the effective part.
  ASSERT_TRUE(g.AddExplicit(a, b, tg::kRead.Union(tg::kTake)).ok());
  EXPECT_EQ(g.epoch(), e + 1);
  ASSERT_EQ(g.journal().size(), records + 1);
  EXPECT_EQ(g.journal().records().back().delta, tg::kRead);
}

TEST(AnalysisCacheTest, NoOpMutationsDoNotInvalidate) {
  ProtectionGraph g;
  VertexId a = g.AddSubject("a");
  VertexId b = g.AddObject("b");
  ASSERT_TRUE(g.AddExplicit(a, b, tg::kRead).ok());
  AnalysisCache cache;
  EXPECT_TRUE(cache.CanKnow(g, a, b));
  const size_t misses = cache.misses();
  // No-op mutations leave the epoch alone, so these are all pure hits.
  ASSERT_TRUE(g.AddExplicit(a, b, tg::kRead).ok());
  ASSERT_TRUE(g.RemoveExplicit(a, b, tg::kWrite).ok());
  g.ClearImplicit();
  EXPECT_TRUE(cache.CanKnow(g, a, b));
  EXPECT_EQ(cache.misses(), misses);
}

// Scoped invalidation: a mutation in one component must not recompute
// entries whose dependency footprints live entirely in another.
TEST(AnalysisCacheTest, MutationInOtherComponentKeepsEntries) {
  ProtectionGraph g;
  VertexId a = g.AddSubject("a");
  VertexId b = g.AddObject("b");
  VertexId c = g.AddSubject("c");
  VertexId d = g.AddObject("d");
  ASSERT_TRUE(g.AddExplicit(a, b, tg::kRead).ok());
  ASSERT_TRUE(g.AddExplicit(c, d, tg::kRead).ok());
  AnalysisCache cache;
  EXPECT_TRUE(cache.CanKnow(g, a, b));
  const size_t misses = cache.misses();
  // Mutating the {c, d} component cannot touch a's footprint {a, b}.
  ASSERT_TRUE(g.AddExplicit(c, d, tg::kWrite).ok());
  EXPECT_TRUE(cache.CanKnow(g, a, b));
  EXPECT_EQ(cache.misses(), misses) << "entry for a should have survived";
  // Mutating a's own component does invalidate it.
  ASSERT_TRUE(g.RemoveExplicit(a, b, tg::kRead).ok());
  EXPECT_FALSE(cache.CanKnow(g, a, b));
  EXPECT_GT(cache.misses(), misses);
}

TEST(AnalysisCacheTest, RepeatQueriesHitAndMutationsInvalidate) {
  ProtectionGraph g;
  VertexId a = g.AddSubject("a");
  VertexId b = g.AddSubject("b");
  VertexId c = g.AddObject("c");
  ASSERT_TRUE(g.AddExplicit(a, c, tg::kRead).ok());

  AnalysisCache cache;
  EXPECT_TRUE(cache.CanKnow(g, a, c));
  size_t misses_after_first = cache.misses();
  EXPECT_GT(misses_after_first, 0u);
  EXPECT_TRUE(cache.CanKnow(g, a, c));
  EXPECT_EQ(cache.misses(), misses_after_first);  // second answer from cache
  EXPECT_GT(cache.hits(), 0u);

  // A mutation makes the next query recompute -- and see the new edge.
  EXPECT_FALSE(cache.CanKnow(g, b, c));
  ASSERT_TRUE(g.AddExplicit(b, c, tg::kRead).ok());
  EXPECT_TRUE(cache.CanKnow(g, b, c));
}

// The cache must agree with the uncached analysis after *every* kind of
// mutating operation.
TEST(AnalysisCacheTest, CorrectAfterEveryMutatingOp) {
  ProtectionGraph g;
  AnalysisCache cache;
  auto check_all = [&](const char* label) {
    for (VertexId x = 0; x < g.VertexCount(); ++x) {
      EXPECT_EQ(cache.Knowable(g, x), KnowableFrom(g, x)) << label << " row " << x;
    }
  };

  VertexId a = g.AddSubject("a");
  VertexId b = g.AddSubject("b");
  check_all("AddVertex");
  ASSERT_TRUE(g.AddExplicit(a, b, tg::kTake).ok());
  check_all("AddExplicit");
  ASSERT_TRUE(g.AddImplicit(b, a, tg::kRead).ok());
  check_all("AddImplicit");
  ASSERT_TRUE(g.RemoveExplicit(a, b, tg::kTake).ok());
  check_all("RemoveExplicit");
  ASSERT_TRUE(g.RemoveImplicit(b, a, tg::kRead).ok());
  check_all("RemoveImplicit");
  ASSERT_TRUE(g.AddImplicit(a, b, tg::kReadWrite).ok());
  g.ClearImplicit();
  check_all("ClearImplicit");
  VertexId c = g.AddObject("c");
  ASSERT_TRUE(g.AddExplicit(a, c, tg::kRead).ok());
  ASSERT_TRUE(g.AddExplicit(b, c, tg::kWrite).ok());
  check_all("post setup");
}

TEST(AnalysisCacheTest, SnapshotTracksEpochAndInvalidateResets) {
  ProtectionGraph g;
  VertexId a = g.AddSubject("a");
  AnalysisCache cache;
  EXPECT_EQ(cache.Snapshot(g).graph_epoch(), g.epoch());
  EXPECT_EQ(cache.Snapshot(g).vertex_count(), 1u);
  g.AddObject("b");
  // Stale snapshot is patched up to date on the next access.
  EXPECT_EQ(cache.Snapshot(g).graph_epoch(), g.epoch());
  EXPECT_EQ(cache.Snapshot(g).vertex_count(), 2u);
  // Invalidate drops everything but the cache still answers correctly.
  (void)cache.Knowable(g, a);
  cache.Invalidate();
  EXPECT_EQ(cache.Knowable(g, a), KnowableFrom(g, a));
  EXPECT_TRUE(cache.CanKnow(g, a, a));
}

TEST(AnalysisCacheTest, InvalidIdsAreFalse) {
  ProtectionGraph g;
  VertexId a = g.AddSubject("a");
  AnalysisCache cache;
  EXPECT_FALSE(cache.CanKnow(g, a, 17));
  EXPECT_FALSE(cache.CanKnow(g, tg::kInvalidVertex, a));
  EXPECT_TRUE(cache.CanKnow(g, a, a));  // reflexive
}

TEST(AnalysisCacheTest, AgreesWithSerialOnRandomGraphMutationSequence) {
  tg_util::Prng prng(11);
  tg_sim::RandomGraphOptions options;
  options.subjects = 8;
  options.objects = 5;
  ProtectionGraph g = tg_sim::RandomGraph(options, prng);
  AnalysisCache cache;
  for (int round = 0; round < 10; ++round) {
    VertexId x = static_cast<VertexId>(prng.NextBelow(g.VertexCount()));
    VertexId y = static_cast<VertexId>(prng.NextBelow(g.VertexCount()));
    EXPECT_EQ(cache.CanKnow(g, x, y), CanKnow(g, x, y)) << "round " << round;
    // Mutate, then re-ask: answers must track the new graph.
    if (x != y) {
      (void)g.AddExplicit(x, y, tg::kRead);
    }
    EXPECT_EQ(cache.CanKnow(g, x, y), CanKnow(g, x, y)) << "round " << round;
  }
}

TEST(AnalysisCacheTest, EntryCapEvictsInBatchesAndStaysCorrect) {
  tg_util::Prng prng(2718);
  tg_sim::RandomGraphOptions options;
  options.subjects = 10;
  options.objects = 6;
  ProtectionGraph g = tg_sim::RandomGraph(options, prng);

  AnalysisCache cache(/*max_entries=*/8);
  EXPECT_EQ(cache.max_entries(), 8u);
  // Far more distinct rows than the cap: eviction must kick in, the entry
  // count must respect the cap, and every answer must stay correct.
  for (int round = 0; round < 12; ++round) {
    for (VertexId x = 0; x < g.VertexCount(); ++x) {
      EXPECT_EQ(cache.Knowable(g, x), KnowableFrom(g, x)) << "round " << round << " row " << x;
      EXPECT_LE(cache.entry_count(), cache.max_entries());
    }
    VertexId a = static_cast<VertexId>(prng.NextBelow(g.VertexCount()));
    VertexId b = static_cast<VertexId>(prng.NextBelow(g.VertexCount()));
    if (a != b) {
      (void)g.AddExplicit(a, b, tg::kRead);
    }
  }
  EXPECT_GT(cache.evictions(), 0u);
}

TEST(AnalysisCacheTest, EvictionPrefersLeastRecentlyUsed) {
  ProtectionGraph g;
  std::vector<VertexId> subjects;
  for (int i = 0; i < 6; ++i) {
    subjects.push_back(g.AddSubject());
  }
  AnalysisCache cache(/*max_entries=*/4);
  // Fill to the cap, then keep row 0 hot: after overflow, re-asking row 0
  // must still be a hit (it survived the batch eviction).
  for (VertexId x = 0; x < 4; ++x) {
    (void)cache.Knowable(g, x);
  }
  (void)cache.Knowable(g, 0);  // row 0 is now the most recently used
  size_t hits_before = cache.hits();
  (void)cache.Knowable(g, 4);  // overflow: evicts the LRU half, not row 0
  (void)cache.Knowable(g, 0);
  EXPECT_EQ(cache.hits(), hits_before + 1);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.entry_count(), cache.max_entries());
}

TEST(AnalysisCacheTest, TinyCapStillAnswersCorrectly) {
  // max_entries clamps to >= 2; the cache degrades to near-stateless but
  // must never return a wrong row.
  ProtectionGraph g;
  VertexId a = g.AddSubject("a");
  VertexId b = g.AddSubject("b");
  VertexId c = g.AddObject("c");
  ASSERT_TRUE(g.AddExplicit(a, c, tg::kRead).ok());
  ASSERT_TRUE(g.AddExplicit(b, c, tg::kWrite).ok());
  AnalysisCache cache(/*max_entries=*/1);
  EXPECT_EQ(cache.max_entries(), 2u);
  for (int round = 0; round < 3; ++round) {
    for (VertexId x = 0; x < g.VertexCount(); ++x) {
      EXPECT_EQ(cache.Knowable(g, x), KnowableFrom(g, x)) << "round " << round;
    }
  }
}

// Every subject's row, asked cold and then warm, on a 96-vertex hierarchy
// with planted cross-level channels: cached rows equal the bit-parallel
// KnowableMatrix rows, and the warm pass is all hits with no product-BFS
// work at all.
TEST(AnalysisCacheTest, WarmRowsMatchKnowableMatrixWithoutGraphWork) {
  const bool metrics_were_enabled = tg_util::MetricsEnabled();
  tg_util::SetMetricsEnabled(true);
  tg_util::Prng prng(2026);
  tg_sim::RandomHierarchyOptions options;
  options.levels = 8;
  options.subjects_per_level = 7;
  options.objects_per_level = 5;
  options.planted_channels = 4;
  const ProtectionGraph g = tg_sim::RandomHierarchy(options, prng).graph;
  std::vector<VertexId> subjects;
  for (VertexId v = 0; v < g.VertexCount(); ++v) {
    if (g.IsSubject(v)) {
      subjects.push_back(v);
    }
  }
  const tg::BitMatrix matrix = KnowableMatrix(tg::AnalysisSnapshot(g), subjects);

  AnalysisCache cache;
  for (size_t i = 0; i < subjects.size(); ++i) {
    EXPECT_EQ(cache.Knowable(g, subjects[i]), matrix.RowBools(i)) << "cold row " << subjects[i];
  }
  const size_t misses = cache.misses();
  const size_t hits = cache.hits();
  const uint64_t visits =
      tg_util::MetricsRegistry::Instance().CounterValue("bfs.node_visits");
  for (size_t i = 0; i < subjects.size(); ++i) {
    EXPECT_EQ(cache.Knowable(g, subjects[i]), matrix.RowBools(i)) << "warm row " << subjects[i];
  }
  EXPECT_EQ(cache.misses(), misses);
  EXPECT_EQ(cache.hits(), hits + subjects.size());
  EXPECT_EQ(tg_util::MetricsRegistry::Instance().CounterValue("bfs.node_visits"), visits);
  tg_util::SetMetricsEnabled(metrics_were_enabled);
}

}  // namespace
}  // namespace tg_analysis

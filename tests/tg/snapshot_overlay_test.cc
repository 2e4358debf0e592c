// Differential tests for SnapshotOverlay: an overlay-maintained snapshot
// must be bit-identical to a from-scratch AnalysisSnapshot(g) after every
// mutation batch — structure, adjacency record order, reachability rows,
// rwtg-levels, and CheckSecure verdicts — across random mutation sequences
// that straddle the compaction threshold.

#include "src/tg/snapshot.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/cache.h"
#include "src/analysis/can_know.h"
#include "src/hierarchy/levels.h"
#include "src/hierarchy/secure.h"
#include "src/sim/generator.h"
#include "src/tg/languages.h"
#include "src/util/metrics.h"
#include "src/util/prng.h"

namespace tg {
namespace {

// Applies one random mutation to g.  Removals of absent rights/edges and
// re-adds of present rights are allowed on purpose: no-ops and NotFound
// errors both exercise the epoch-stability path.
void RandomMutation(ProtectionGraph& g, tg_util::Prng& prng) {
  const RightSet kCandidates[] = {kRead, kWrite, kTake, kGrant, kReadWrite, kTakeGrant};
  uint64_t op = prng.NextBelow(20);
  if (op == 0) {
    (void)(prng.NextBelow(2) ? g.AddSubject() : g.AddObject());
    return;
  }
  VertexId src = static_cast<VertexId>(prng.NextBelow(g.VertexCount()));
  VertexId dst = static_cast<VertexId>(prng.NextBelow(g.VertexCount()));
  if (src == dst) {
    dst = (dst + 1) % static_cast<VertexId>(g.VertexCount());
  }
  RightSet rights = kCandidates[prng.NextBelow(std::size(kCandidates))];
  switch (op % 4) {
    case 0:
      ASSERT_TRUE(g.AddExplicit(src, dst, rights).ok());
      break;
    case 1:
      (void)g.RemoveExplicit(src, dst, rights);  // NotFound on missing edges is fine
      break;
    case 2:
      // Implicit edges carry information rights only.
      ASSERT_TRUE(g.AddImplicit(src, dst, rights.Intersect(kReadWrite).empty()
                                              ? kRead
                                              : rights.Intersect(kReadWrite))
                      .ok());
      break;
    case 3:
      (void)g.RemoveImplicit(src, dst, rights.Intersect(kReadWrite).empty()
                                           ? kRead
                                           : rights.Intersect(kReadWrite));
      break;
  }
}

// Full structural equality between two snapshots, record by record.
void ExpectSnapshotsIdentical(const AnalysisSnapshot& got, const AnalysisSnapshot& want,
                              const char* context) {
  ASSERT_EQ(got.vertex_count(), want.vertex_count()) << context;
  EXPECT_EQ(got.Subjects(), want.Subjects()) << context;
  for (VertexId v = 0; v < got.vertex_count(); ++v) {
    EXPECT_EQ(got.IsSubject(v), want.IsSubject(v)) << context << " vertex " << v;
    auto got_adj = got.AdjacencyOf(v);
    auto want_adj = want.AdjacencyOf(v);
    ASSERT_EQ(got_adj.size(), want_adj.size()) << context << " vertex " << v;
    for (size_t i = 0; i < got_adj.size(); ++i) {
      EXPECT_EQ(got_adj[i], want_adj[i]) << context << " vertex " << v << " record " << i;
    }
  }
}

TEST(SnapshotOverlayTest, PatchedSnapshotIsBitIdenticalOnRandomSequences) {
  const tg_util::Dfa* dfas[] = {&BridgeDfa(), &BridgeOrConnectionDfa(), &AdmissibleRwDfa()};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    tg_util::Prng prng(seed);
    tg_sim::RandomGraphOptions options;
    options.subjects = 7;
    options.objects = 5;
    options.edge_factor = 1.5;
    ProtectionGraph g = tg_sim::RandomGraph(options, prng);

    // max_patched = 4 keeps the overlay small enough that a 40-step
    // sequence crosses the compaction threshold repeatedly, so both the
    // patch path and the compaction path are exercised.
    SnapshotOverlay overlay(4);
    ASSERT_TRUE(overlay.Sync(g).rebuilt);
    for (int step = 0; step < 40; ++step) {
      RandomMutation(g, prng);
      overlay.Sync(g);
      EXPECT_LE(overlay.snapshot().patched_vertex_count(), overlay.max_patched());
      AnalysisSnapshot fresh(g);
      ExpectSnapshotsIdentical(overlay.snapshot(), fresh, "after mutation");
      EXPECT_EQ(overlay.snapshot().graph_epoch(), g.epoch());
      // Reachability rows run on the patched snapshot must match rows run
      // on the fresh build, for every path language and source.
      if (step % 8 == 0) {
        for (const tg_util::Dfa* dfa : dfas) {
          for (VertexId from = 0; from < g.VertexCount(); ++from) {
            const VertexId sources[] = {from};
            EXPECT_EQ(SnapshotWordReachable(overlay.snapshot(), sources, *dfa),
                      SnapshotWordReachable(fresh, sources, *dfa))
                << "seed " << seed << " step " << step << " source " << from;
          }
        }
      }
    }
  }
}

TEST(SnapshotOverlayTest, CompactionFoldsOverlayIntoBase) {
  ProtectionGraph g;
  std::vector<VertexId> subjects;
  for (int i = 0; i < 12; ++i) {
    subjects.push_back(g.AddSubject());
  }
  SnapshotOverlay overlay(4);
  ASSERT_TRUE(overlay.Sync(g).rebuilt);

  // Two touched vertices: a patch.
  ASSERT_TRUE(g.AddExplicit(subjects[0], subjects[1], kTake).ok());
  SnapshotOverlay::SyncResult r = overlay.Sync(g);
  EXPECT_TRUE(r.changed);
  EXPECT_FALSE(r.rebuilt);
  EXPECT_EQ(r.patched_vertices, 2u);
  EXPECT_EQ(overlay.snapshot().patched_vertex_count(), 2u);

  // Four more touched vertices would exceed max_patched = 4: compaction.
  ASSERT_TRUE(g.AddExplicit(subjects[2], subjects[3], kGrant).ok());
  ASSERT_TRUE(g.AddExplicit(subjects[4], subjects[5], kRead).ok());
  r = overlay.Sync(g);
  EXPECT_TRUE(r.changed);
  EXPECT_TRUE(r.rebuilt);
  EXPECT_TRUE(r.compacted);
  EXPECT_EQ(overlay.snapshot().patched_vertex_count(), 0u);
  ExpectSnapshotsIdentical(overlay.snapshot(), AnalysisSnapshot(g), "after compaction");

  // Re-patching the same vertices does not grow the overlay, so no further
  // compaction is needed for repeated churn on a small working set.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(g.RemoveExplicit(subjects[0], subjects[1], kTake).ok());
    ASSERT_TRUE(g.AddExplicit(subjects[0], subjects[1], kTake).ok());
    r = overlay.Sync(g);
    EXPECT_FALSE(r.rebuilt);
  }
  EXPECT_EQ(overlay.snapshot().patched_vertex_count(), 2u);
  ExpectSnapshotsIdentical(overlay.snapshot(), AnalysisSnapshot(g), "after churn");
}

TEST(SnapshotOverlayTest, AppendedVerticesBecomeVisibleAndPatchable) {
  ProtectionGraph g;
  VertexId a = g.AddSubject("a");
  SnapshotOverlay overlay;
  ASSERT_TRUE(overlay.Sync(g).rebuilt);
  ASSERT_EQ(overlay.snapshot().vertex_count(), 1u);

  // Append two vertices and wire them up in the same batch.
  VertexId b = g.AddSubject("b");
  VertexId c = g.AddObject("c");
  ASSERT_TRUE(g.AddExplicit(b, c, kReadWrite).ok());
  ASSERT_TRUE(g.AddExplicit(a, b, kTakeGrant).ok());
  SnapshotOverlay::SyncResult r = overlay.Sync(g);
  EXPECT_TRUE(r.changed);
  EXPECT_FALSE(r.rebuilt);
  ExpectSnapshotsIdentical(overlay.snapshot(), AnalysisSnapshot(g), "after append");
  EXPECT_TRUE(overlay.snapshot().IsSubject(b));
  EXPECT_FALSE(overlay.snapshot().IsSubject(c));
}

TEST(SnapshotOverlayTest, SyncIsNoOpWhenEpochMatches) {
  ProtectionGraph g;
  g.AddSubject("a");
  SnapshotOverlay overlay;
  ASSERT_TRUE(overlay.Sync(g).changed);
  SnapshotOverlay::SyncResult r = overlay.Sync(g);
  EXPECT_FALSE(r.changed);
  EXPECT_FALSE(r.rebuilt);
  EXPECT_EQ(r.patched_vertices, 0u);
}

// End-to-end incremental pipeline: a cache driven across mutations must
// produce rwtg-levels and CheckSecure verdicts identical to from-scratch
// computation on every intermediate graph.
TEST(SnapshotOverlayTest, IncrementalLevelsAndSecureMatchFreshComputation) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    tg_util::Prng prng(seed * 101);
    tg_sim::RandomGraphOptions options;
    options.subjects = 8;
    options.objects = 4;
    options.edge_factor = 1.8;
    ProtectionGraph g = tg_sim::RandomGraph(options, prng);
    tg_analysis::AnalysisCache cache;
    for (int step = 0; step < 12; ++step) {
      RandomMutation(g, prng);
      // Levels through the incrementally repaired cache vs from scratch.
      tg_hier::LevelAssignment incremental = tg_hier::ComputeRwtgLevels(g, cache);
      tg_hier::LevelAssignment fresh = tg_hier::ComputeRwtgLevels(g);
      ASSERT_EQ(incremental.LevelCount(), fresh.LevelCount())
          << "seed " << seed << " step " << step;
      for (VertexId v = 0; v < g.VertexCount(); ++v) {
        EXPECT_EQ(incremental.LevelOf(v), fresh.LevelOf(v))
            << "seed " << seed << " step " << step << " vertex " << v;
      }
      // CheckSecure through the same cache vs the cache-free overload.
      tg_hier::SecurityReport got = tg_hier::CheckSecure(g, fresh, cache);
      tg_hier::SecurityReport want = tg_hier::CheckSecure(g, fresh);
      EXPECT_EQ(got.secure, want.secure) << "seed " << seed << " step " << step;
      ASSERT_EQ(got.violations.size(), want.violations.size())
          << "seed " << seed << " step " << step;
      for (size_t i = 0; i < got.violations.size(); ++i) {
        EXPECT_EQ(got.violations[i].lower, want.violations[i].lower);
        EXPECT_EQ(got.violations[i].higher, want.violations[i].higher);
        EXPECT_EQ(got.violations[i].detail, want.violations[i].detail);
      }
      // And the per-source knowable rows repaired in place stay exact.
      if (step % 4 == 0) {
        for (VertexId x = 0; x < g.VertexCount(); ++x) {
          EXPECT_EQ(cache.Knowable(g, x), tg_analysis::KnowableFrom(g, x))
              << "seed " << seed << " step " << step << " source " << x;
        }
      }
    }
  }
}

// Islands of `island_size` vertices (5/8 subjects) with random edges inside
// each island only, so a mutation's effect stays inside one island.
ProtectionGraph IslandGraph(size_t islands, size_t island_size, uint64_t seed) {
  tg_util::Prng prng(seed);
  ProtectionGraph g;
  const RightSet kLabels[] = {kRead, kWrite, kTake, kGrant, kReadWrite, kTakeGrant};
  for (size_t i = 0; i < islands; ++i) {
    const VertexId base = static_cast<VertexId>(g.VertexCount());
    for (size_t k = 0; k < island_size; ++k) {
      (void)(k < island_size * 5 / 8 ? g.AddSubject() : g.AddObject());
    }
    for (size_t e = 0; e < island_size * 2; ++e) {
      const VertexId src = base + static_cast<VertexId>(prng.NextBelow(island_size));
      const VertexId dst = base + static_cast<VertexId>(prng.NextBelow(island_size));
      if (src != dst) {
        EXPECT_TRUE(g.AddExplicit(src, dst, kLabels[prng.NextBelow(std::size(kLabels))]).ok());
      }
    }
  }
  return g;
}

// Toggles one random right on a random pair inside one random island:
// exactly one effective mutation.
void ToggleIslandEdge(ProtectionGraph& g, tg_util::Prng& prng, size_t islands,
                      size_t island_size) {
  const Right kRights[] = {Right::kRead, Right::kWrite, Right::kTake, Right::kGrant};
  while (true) {
    const VertexId base = static_cast<VertexId>(prng.NextBelow(islands) * island_size);
    const VertexId src = base + static_cast<VertexId>(prng.NextBelow(island_size));
    const VertexId dst = base + static_cast<VertexId>(prng.NextBelow(island_size));
    if (src == dst) {
      continue;
    }
    const Right r = kRights[prng.NextBelow(std::size(kRights))];
    if (g.HasExplicit(src, dst, r)) {
      ASSERT_TRUE(g.RemoveExplicit(src, dst, RightSet(r)).ok());
    } else {
      ASSERT_TRUE(g.AddExplicit(src, dst, RightSet(r)).ok());
    }
    return;
  }
}

// A cache kept across small mutation batches on an island graph answers
// every knowable row, rwtg-levels, CheckSecure and the channel scan exactly
// as cold computations do.  Rows of untouched islands survive the journal
// repair (incremental.rows_reused grows), and the overlay absorbs every
// batch without a snapshot build.
TEST(SnapshotOverlayTest, IslandMutationsKeepCachedAnswersEqualToCold) {
  const bool metrics_were_enabled = tg_util::MetricsEnabled();
  tg_util::SetMetricsEnabled(true);
  const tg_util::MetricsRegistry& registry = tg_util::MetricsRegistry::Instance();
  constexpr size_t kIslands = 3;
  constexpr size_t kIslandSize = 16;
  for (size_t batch : {size_t{1}, size_t{4}}) {
    ProtectionGraph g = IslandGraph(kIslands, kIslandSize, 7);
    tg_util::Prng prng(1000 + batch);
    // A random three-level chain over every vertex, so the audits report
    // real violations and channels inside the islands.
    tg_hier::LevelAssignment designer(g.VertexCount(), 3);
    designer.DeclareHigher(1, 0);
    designer.DeclareHigher(2, 1);
    for (VertexId v = 0; v < g.VertexCount(); ++v) {
      designer.Assign(v, static_cast<tg_hier::LevelId>(prng.NextBelow(3)));
    }
    ASSERT_TRUE(designer.Finalize());

    tg_analysis::AnalysisCache cache;
    for (VertexId x = 0; x < g.VertexCount(); ++x) {
      (void)cache.Knowable(g, x);
    }
    const uint64_t reused_before = registry.CounterValue("incremental.rows_reused");
    uint64_t cached_builds = 0;
    size_t violations_seen = 0;
    for (int step = 0; step < 6; ++step) {
      const std::string context =
          "batch " + std::to_string(batch) + " step " + std::to_string(step);
      for (size_t m = 0; m < batch; ++m) {
        ToggleIslandEdge(g, prng, kIslands, kIslandSize);
      }
      const uint64_t builds_before = registry.CounterValue("snapshot.builds");
      std::vector<std::vector<bool>> rows;
      for (VertexId x = 0; x < g.VertexCount(); ++x) {
        rows.push_back(cache.Knowable(g, x));
      }
      tg_hier::LevelAssignment levels = tg_hier::ComputeRwtgLevels(g, cache);
      tg_hier::SecurityReport report = tg_hier::CheckSecure(g, designer, cache);
      std::vector<tg_hier::CrossLevelChannel> channels =
          tg_hier::FindCrossLevelChannels(g, designer, cache);
      cached_builds += registry.CounterValue("snapshot.builds") - builds_before;

      for (VertexId x = 0; x < g.VertexCount(); ++x) {
        EXPECT_EQ(rows[x], tg_analysis::KnowableFrom(g, x)) << context << " row " << x;
      }
      tg_hier::LevelAssignment cold_levels = tg_hier::ComputeRwtgLevels(g);
      ASSERT_EQ(levels.LevelCount(), cold_levels.LevelCount()) << context;
      for (VertexId v = 0; v < g.VertexCount(); ++v) {
        EXPECT_EQ(levels.LevelOf(v), cold_levels.LevelOf(v)) << context << " vertex " << v;
      }
      tg_hier::SecurityReport cold_report = tg_hier::CheckSecure(g, designer);
      EXPECT_EQ(report.secure, cold_report.secure) << context;
      ASSERT_EQ(report.violations.size(), cold_report.violations.size()) << context;
      for (size_t i = 0; i < report.violations.size(); ++i) {
        EXPECT_EQ(report.violations[i].detail, cold_report.violations[i].detail) << context;
      }
      violations_seen += report.violations.size();
      std::vector<tg_hier::CrossLevelChannel> cold_channels =
          tg_hier::FindCrossLevelChannels(g, designer);
      ASSERT_EQ(channels.size(), cold_channels.size()) << context;
      for (size_t i = 0; i < channels.size(); ++i) {
        EXPECT_EQ(channels[i].from, cold_channels[i].from) << context;
        EXPECT_EQ(channels[i].to, cold_channels[i].to) << context;
        EXPECT_EQ(channels[i].path, cold_channels[i].path) << context;
      }
    }
    EXPECT_GT(violations_seen, 0u) << "batch " << batch;
    EXPECT_GT(registry.CounterValue("incremental.rows_reused"), reused_before)
        << "batch " << batch;
    EXPECT_EQ(cached_builds, 0u) << "batch " << batch;
  }
  tg_util::SetMetricsEnabled(metrics_were_enabled);
}

}  // namespace
}  // namespace tg

// Differential tests for the condensation-first audit engines: the
// level-sharded CheckSecure / FindCrossLevelChannels must be bit-identical
// to the dense per-candidate engines — contents, order, and cutoffs — on
// secure and planted-channel hierarchies, for any thread count; and the
// hybrid (allocation-guard) BOC digraph path must yield the identical
// rwtg-level assignment when the dense matrix cap forces it on.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/take_grant.h"
#include "src/util/metrics.h"

namespace {

using tg_hier::AuditEngine;
using tg_hier::CrossLevelChannel;
using tg_hier::LevelAssignment;
using tg_hier::SecurityReport;

tg_sim::GeneratedHierarchy Hierarchy(size_t planted, uint64_t seed, size_t levels = 4,
                                     size_t clusters = 3) {
  tg_util::Prng prng(seed);
  tg_sim::HierarchicalGraphOptions options;
  options.levels = levels;
  options.clusters_per_level = clusters;
  options.subjects_per_cluster = 5;
  options.objects_per_cluster = 2;
  options.tg_chords_per_cluster = 2;
  options.reads_down_per_subject = 1;
  options.planted_channels = planted;
  return tg_sim::HierarchicalGraph(options, prng);
}

void ExpectSameReports(const SecurityReport& a, const SecurityReport& b, const char* what) {
  EXPECT_EQ(a.secure, b.secure) << what;
  ASSERT_EQ(a.violations.size(), b.violations.size()) << what;
  for (size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].lower, b.violations[i].lower) << what << " violation " << i;
    EXPECT_EQ(a.violations[i].higher, b.violations[i].higher) << what << " violation " << i;
    EXPECT_EQ(a.violations[i].detail, b.violations[i].detail) << what << " violation " << i;
  }
}

void ExpectSameChannels(const std::vector<CrossLevelChannel>& a,
                        const std::vector<CrossLevelChannel>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].from, b[i].from) << what << " channel " << i;
    EXPECT_EQ(a[i].to, b[i].to) << what << " channel " << i;
    EXPECT_EQ(a[i].path, b[i].path) << what << " channel " << i;
  }
}

TEST(ScaleAuditTest, ShardedCheckSecureMatchesDense) {
  for (size_t planted : {size_t{0}, size_t{2}, size_t{6}}) {
    for (uint64_t seed : {uint64_t{5}, uint64_t{77}}) {
      tg_sim::GeneratedHierarchy h = Hierarchy(planted, seed);
      const std::string what =
          "planted=" + std::to_string(planted) + " seed=" + std::to_string(seed);
      SecurityReport dense =
          tg_hier::CheckSecure(h.graph, h.levels, 0, nullptr, AuditEngine::kDense);
      EXPECT_EQ(dense.secure, planted == 0) << what;
      for (size_t threads : {size_t{1}, size_t{4}}) {
        tg_util::ThreadPool pool(threads);
        SecurityReport sharded =
            tg_hier::CheckSecure(h.graph, h.levels, 0, &pool, AuditEngine::kSharded);
        ExpectSameReports(dense, sharded,
                          (what + " threads=" + std::to_string(threads)).c_str());
      }
    }
  }
}

TEST(ScaleAuditTest, ShardedCutoffMatchesDense) {
  tg_sim::GeneratedHierarchy h = Hierarchy(/*planted=*/6, /*seed=*/31);
  SecurityReport full = tg_hier::CheckSecure(h.graph, h.levels, 0, nullptr, AuditEngine::kDense);
  ASSERT_FALSE(full.secure);
  ASSERT_GT(full.violations.size(), 2u);
  // Sweep caps below, at, and above the true count: the truncation point
  // must agree exactly.
  for (size_t cap : {size_t{1}, size_t{2}, full.violations.size(), full.violations.size() + 5}) {
    SecurityReport dense =
        tg_hier::CheckSecure(h.graph, h.levels, cap, nullptr, AuditEngine::kDense);
    SecurityReport sharded =
        tg_hier::CheckSecure(h.graph, h.levels, cap, nullptr, AuditEngine::kSharded);
    ExpectSameReports(dense, sharded, ("cap=" + std::to_string(cap)).c_str());
    EXPECT_EQ(dense.violations.size(), std::min(cap, full.violations.size()))
        << "cap=" << cap;
  }
}

TEST(ScaleAuditTest, ShardedChannelsMatchDense) {
  for (size_t planted : {size_t{0}, size_t{4}}) {
    tg_sim::GeneratedHierarchy h = Hierarchy(planted, /*seed=*/13);
    const std::string what = "planted=" + std::to_string(planted);
    std::vector<CrossLevelChannel> dense =
        tg_hier::FindCrossLevelChannels(h.graph, h.levels, 0, nullptr, AuditEngine::kDense);
    EXPECT_EQ(dense.empty(), planted == 0) << what;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      tg_util::ThreadPool pool(threads);
      std::vector<CrossLevelChannel> sharded =
          tg_hier::FindCrossLevelChannels(h.graph, h.levels, 0, &pool, AuditEngine::kSharded);
      ExpectSameChannels(dense, sharded,
                         (what + " threads=" + std::to_string(threads)).c_str());
    }
    if (!dense.empty()) {
      // Capped scans truncate at the same channel.
      std::vector<CrossLevelChannel> dense_cap =
          tg_hier::FindCrossLevelChannels(h.graph, h.levels, 2, nullptr, AuditEngine::kDense);
      std::vector<CrossLevelChannel> sharded_cap =
          tg_hier::FindCrossLevelChannels(h.graph, h.levels, 2, nullptr, AuditEngine::kSharded);
      ExpectSameChannels(dense_cap, sharded_cap, (what + " cap=2").c_str());
    }
  }
}

// RandomHierarchy-shaped graphs (the pre-existing generator) go through
// the same engines; cross-check those too.
TEST(ScaleAuditTest, RandomHierarchyAgreesAcrossEngines) {
  tg_util::Prng prng(99);
  tg_sim::RandomHierarchyOptions options;
  options.levels = 4;
  options.subjects_per_level = 5;
  options.objects_per_level = 3;
  options.planted_channels = 3;
  tg_sim::GeneratedHierarchy h = tg_sim::RandomHierarchy(options, prng);
  SecurityReport dense = tg_hier::CheckSecure(h.graph, h.levels, 0, nullptr, AuditEngine::kDense);
  SecurityReport sharded =
      tg_hier::CheckSecure(h.graph, h.levels, 0, nullptr, AuditEngine::kSharded);
  ExpectSameReports(dense, sharded, "random hierarchy");
  ExpectSameChannels(
      tg_hier::FindCrossLevelChannels(h.graph, h.levels, 0, nullptr, AuditEngine::kDense),
      tg_hier::FindCrossLevelChannels(h.graph, h.levels, 0, nullptr, AuditEngine::kSharded),
      "random hierarchy channels");
}

void ExpectSameLevels(const LevelAssignment& a, const LevelAssignment& b, size_t vertex_count,
                      const char* what) {
  for (tg::VertexId v = 0; v < vertex_count; ++v) {
    EXPECT_EQ(a.LevelOf(v), b.LevelOf(v)) << what << " vertex " << v;
  }
  ASSERT_EQ(a.LevelCount(), b.LevelCount()) << what;
  for (tg_hier::LevelId x = 0; x < a.LevelCount(); ++x) {
    for (tg_hier::LevelId y = 0; y < a.LevelCount(); ++y) {
      EXPECT_EQ(a.Higher(x, y), b.Higher(x, y)) << what << " levels " << x << "," << y;
    }
  }
}

// Forcing the dense-matrix cap low at small n makes kAuto resolve to the
// sharded engine and BocDigraph take its hybrid-row path; results must not
// change, through the cache-free overloads and the cache-aware ones alike.
// The cache-aware audit verbs run on the cache's snapshot and memoize no
// rows of their own, with the cap and without it (where kAuto picks the
// dense engine at this size).
TEST(ScaleAuditTest, LowDenseCapForcesHybridPathsWithIdenticalResults) {
  const bool metrics_were_enabled = tg_util::MetricsEnabled();
  tg_util::SetMetricsEnabled(true);
  auto row_hits = [] {
    const tg_util::MetricsRegistry& registry = tg_util::MetricsRegistry::Instance();
    return registry.CounterValue("row.sparse_hits") + registry.CounterValue("row.dense_hits");
  };
  tg_sim::GeneratedHierarchy h = Hierarchy(/*planted=*/3, /*seed=*/57);
  LevelAssignment computed_default = tg_hier::ComputeRwtgLevels(h.graph);
  SecurityReport report_default =
      tg_hier::CheckSecure(h.graph, h.levels, 0, nullptr, AuditEngine::kAuto);
  ASSERT_EQ(tg_hier::ResolveAuditEngine(h.graph, h.levels), AuditEngine::kDense);
  tg_analysis::AnalysisCache dense_cache;
  LevelAssignment cached_default = tg_hier::ComputeRwtgLevels(h.graph, dense_cache);
  SecurityReport cached_report_default = tg_hier::CheckSecure(h.graph, h.levels, dense_cache);
  (void)tg_hier::FindCrossLevelChannels(h.graph, h.levels, dense_cache);
  EXPECT_EQ(dense_cache.entry_count(), 0u) << "dense audit memoized rows in the cache";

  ASSERT_EQ(setenv("TG_DENSE_MATRIX_MAX_BYTES", "64", /*overwrite=*/1), 0);
  LevelAssignment computed_capped = tg_hier::ComputeRwtgLevels(h.graph);
  SecurityReport report_capped =
      tg_hier::CheckSecure(h.graph, h.levels, 0, nullptr, AuditEngine::kAuto);
  tg_analysis::AnalysisCache capped_cache;
  const uint64_t row_hits_before = row_hits();
  LevelAssignment cached_capped = tg_hier::ComputeRwtgLevels(h.graph, capped_cache);
  const uint64_t row_hits_after = row_hits();
  SecurityReport cached_report_capped = tg_hier::CheckSecure(h.graph, h.levels, capped_cache);
  (void)tg_hier::FindCrossLevelChannels(h.graph, h.levels, capped_cache);
  EXPECT_FALSE(tg::BitMatrix::TryCreate(64, 64).ok());
  ASSERT_EQ(unsetenv("TG_DENSE_MATRIX_MAX_BYTES"), 0);
  tg_util::SetMetricsEnabled(metrics_were_enabled);

  ExpectSameLevels(computed_default, computed_capped, h.graph.VertexCount(), "capped");
  ExpectSameLevels(computed_default, cached_default, h.graph.VertexCount(), "cached");
  ExpectSameLevels(computed_default, cached_capped, h.graph.VertexCount(), "cached capped");
  EXPECT_GT(row_hits_after, row_hits_before) << "cached levels ignored the dense cap";
  EXPECT_EQ(capped_cache.entry_count(), 0u) << "capped audit memoized rows in the cache";
  ExpectSameReports(report_default, report_capped, "capped kAuto audit");
  ExpectSameReports(report_default, cached_report_default, "cached kAuto audit");
  ExpectSameReports(report_default, cached_report_capped, "cached capped kAuto audit");
}

TEST(ScaleAuditTest, HierarchicalGeneratorShape) {
  tg_sim::GeneratedHierarchy h = Hierarchy(/*planted=*/0, /*seed=*/3, /*levels=*/3,
                                           /*clusters=*/2);
  EXPECT_EQ(h.graph.VertexCount(), 3u * 2u * (5u + 2u));
  EXPECT_EQ(h.level_subjects.size(), 3u);
  for (size_t level = 0; level < h.level_subjects.size(); ++level) {
    EXPECT_EQ(h.level_subjects[level].size(), 2u * 5u) << "level " << level;
    for (tg::VertexId s : h.level_subjects[level]) {
      EXPECT_EQ(h.levels.LevelOf(s), static_cast<tg_hier::LevelId>(level));
    }
  }
  // Declared order: strictly increasing chain.
  EXPECT_TRUE(h.levels.Higher(2, 0));
  EXPECT_TRUE(h.levels.Higher(2, 1));
  EXPECT_TRUE(h.levels.Higher(1, 0));
  EXPECT_FALSE(h.levels.Higher(0, 1));
  // Secure by construction without planted channels (Theorem 5.2 both
  // directions: definition and structural scan agree).
  EXPECT_TRUE(tg_hier::CheckSecure(h.graph, h.levels).secure);
  EXPECT_TRUE(tg_hier::SecureByTheorem52(h.graph, h.levels));
}

}  // namespace

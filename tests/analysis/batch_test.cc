#include "src/analysis/batch.h"

#include <gtest/gtest.h>

#include "src/analysis/can_know.h"
#include "src/hierarchy/levels.h"
#include "src/hierarchy/secure.h"
#include "src/sim/generator.h"
#include "src/util/prng.h"
#include "src/util/thread_pool.h"

namespace tg_analysis {
namespace {

using tg::ProtectionGraph;
using tg::VertexId;

ProtectionGraph RandomTestGraph(uint64_t seed) {
  tg_util::Prng prng(seed);
  tg_sim::RandomGraphOptions options;
  options.subjects = 10;
  options.objects = 6;
  options.edge_factor = 2.0;
  return tg_sim::RandomGraph(options, prng);
}

// A layered hierarchy with planted cross-level channels.
tg_sim::GeneratedHierarchy PlantedHierarchy(uint64_t seed, size_t levels, size_t subjects,
                                            size_t objects, size_t planted) {
  tg_util::Prng prng(seed);
  tg_sim::RandomHierarchyOptions options;
  options.levels = levels;
  options.subjects_per_level = subjects;
  options.objects_per_level = objects;
  options.planted_channels = planted;
  return tg_sim::RandomHierarchy(options, prng);
}

// The 96-vertex eight-level hierarchy, where rows, levels and the
// violation list are all non-trivial.
tg_sim::GeneratedHierarchy LargeHierarchy() { return PlantedHierarchy(2026, 8, 7, 5, 4); }

// Inputs of the row, pool-size and level differentials: six random graphs
// and the large hierarchy.
std::vector<ProtectionGraph> PoolTestGraphs() {
  std::vector<ProtectionGraph> graphs;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    graphs.push_back(RandomTestGraph(seed));
  }
  graphs.push_back(LargeHierarchy().graph);
  return graphs;
}

std::vector<VertexId> AllVertices(const ProtectionGraph& g) {
  std::vector<VertexId> sources(g.VertexCount());
  for (VertexId v = 0; v < g.VertexCount(); ++v) {
    sources[v] = v;
  }
  return sources;
}

// KnowableMatrix over every vertex, the full can_know matrix.
tg::BitMatrix FullMatrix(const ProtectionGraph& g, tg_util::ThreadPool* pool = nullptr) {
  return KnowableMatrix(tg::AnalysisSnapshot(g), AllVertices(g), pool);
}

TEST(BatchTest, MatrixRowsMatchSerialKnowableFrom) {
  const std::vector<ProtectionGraph> graphs = PoolTestGraphs();
  for (size_t i = 0; i < graphs.size(); ++i) {
    const ProtectionGraph& g = graphs[i];
    tg::BitMatrix matrix = FullMatrix(g);
    ASSERT_EQ(matrix.rows(), g.VertexCount());
    for (VertexId x = 0; x < g.VertexCount(); ++x) {
      EXPECT_EQ(matrix.RowBools(x), KnowableFrom(g, x)) << "graph " << i << " row " << x;
    }
  }
}

TEST(BatchTest, ParallelAndSerialPoolsAgree) {
  tg_util::ThreadPool serial(1);
  tg_util::ThreadPool parallel(4);
  const std::vector<ProtectionGraph> graphs = PoolTestGraphs();
  for (size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_EQ(FullMatrix(graphs[i], &serial), FullMatrix(graphs[i], &parallel)) << "graph " << i;
  }
}

TEST(BatchTest, KnowableFromManyHandlesInvalidAndDuplicateSources) {
  ProtectionGraph g = RandomTestGraph(3);
  std::vector<VertexId> sources = {0, 0, tg::kInvalidVertex,
                                   static_cast<VertexId>(g.VertexCount() + 5), 1};
  tg::BitMatrix rows = KnowableMatrix(tg::AnalysisSnapshot(g), sources);
  ASSERT_EQ(rows.rows(), sources.size());
  EXPECT_EQ(rows.RowBools(0), KnowableFrom(g, 0));
  EXPECT_EQ(rows.RowBools(1), rows.RowBools(0));  // duplicate source, identical row
  EXPECT_EQ(rows.RowBools(2), std::vector<bool>(g.VertexCount(), false));
  EXPECT_EQ(rows.RowBools(3), std::vector<bool>(g.VertexCount(), false));
  EXPECT_EQ(rows.RowBools(4), KnowableFrom(g, 1));
}

TEST(BatchTest, KnowableFromSnapshotMatchesGraphLevelCall) {
  ProtectionGraph g = RandomTestGraph(5);
  tg::AnalysisSnapshot snap(g);
  for (VertexId x = 0; x < g.VertexCount(); ++x) {
    EXPECT_EQ(KnowableFromSnapshot(snap, x), KnowableFrom(g, x)) << "row " << x;
  }
}

TEST(BatchTest, EmptyGraphAndEmptySourceList) {
  ProtectionGraph g;
  EXPECT_EQ(FullMatrix(g).rows(), 0u);
  ProtectionGraph one = RandomTestGraph(1);
  EXPECT_EQ(KnowableMatrix(tg::AnalysisSnapshot(one), {}).rows(), 0u);
}

// rwtg-levels ride the same pool; the computed assignment must not depend
// on thread count.
TEST(BatchTest, RwtgLevelsIdenticalForAnyPoolSize) {
  tg_util::ThreadPool serial(1);
  tg_util::ThreadPool parallel(4);
  const std::vector<ProtectionGraph> graphs = PoolTestGraphs();
  for (size_t i = 0; i < graphs.size(); ++i) {
    const ProtectionGraph& g = graphs[i];
    tg_hier::LevelAssignment a = tg_hier::ComputeRwtgLevels(g, &serial);
    tg_hier::LevelAssignment b = tg_hier::ComputeRwtgLevels(g, &parallel);
    ASSERT_EQ(a.LevelCount(), b.LevelCount()) << "graph " << i;
    for (VertexId v = 0; v < g.VertexCount(); ++v) {
      EXPECT_EQ(a.LevelOf(v), b.LevelOf(v)) << "graph " << i << " vertex " << v;
    }
    for (tg_hier::LevelId x = 0; x < a.LevelCount(); ++x) {
      for (tg_hier::LevelId y = 0; y < a.LevelCount(); ++y) {
        EXPECT_EQ(a.Higher(x, y), b.Higher(x, y)) << "graph " << i;
      }
    }
  }
}

// The security audit fans out over the pool; reports (contents and order)
// must be identical to the serial scan.
TEST(BatchTest, SecurityAuditIdenticalForAnyPoolSize) {
  tg_util::ThreadPool serial(1);
  tg_util::ThreadPool parallel(4);
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    tg_sim::GeneratedHierarchy h =
        seed <= 4 ? PlantedHierarchy(seed, 3, 3, 2, 1) : LargeHierarchy();

    tg_hier::SecurityReport ra = tg_hier::CheckSecure(h.graph, h.levels, 0, &serial);
    tg_hier::SecurityReport rb = tg_hier::CheckSecure(h.graph, h.levels, 0, &parallel);
    EXPECT_EQ(ra.secure, rb.secure) << "seed " << seed;
    ASSERT_EQ(ra.violations.size(), rb.violations.size()) << "seed " << seed;
    for (size_t i = 0; i < ra.violations.size(); ++i) {
      EXPECT_EQ(ra.violations[i].lower, rb.violations[i].lower);
      EXPECT_EQ(ra.violations[i].higher, rb.violations[i].higher);
      EXPECT_EQ(ra.violations[i].detail, rb.violations[i].detail);
    }

    auto ca = tg_hier::FindCrossLevelChannels(h.graph, h.levels, 0, &serial);
    auto cb = tg_hier::FindCrossLevelChannels(h.graph, h.levels, 0, &parallel);
    ASSERT_EQ(ca.size(), cb.size()) << "seed " << seed;
    for (size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i].from, cb[i].from);
      EXPECT_EQ(ca[i].to, cb[i].to);
      EXPECT_EQ(ca[i].path, cb[i].path);
    }

    // The max_violations cutoff keeps the same prefix too.
    tg_hier::SecurityReport capped_a = tg_hier::CheckSecure(h.graph, h.levels, 2, &serial);
    tg_hier::SecurityReport capped_b = tg_hier::CheckSecure(h.graph, h.levels, 2, &parallel);
    ASSERT_EQ(capped_a.violations.size(), capped_b.violations.size());
    for (size_t i = 0; i < capped_a.violations.size(); ++i) {
      EXPECT_EQ(capped_a.violations[i].detail, capped_b.violations[i].detail);
    }
  }
}

}  // namespace
}  // namespace tg_analysis

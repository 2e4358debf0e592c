#include "src/tg/bitset_reach.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/can_know.h"
#include "src/hierarchy/levels.h"
#include "src/sim/generator.h"
#include "src/tg/languages.h"
#include "src/tg/snapshot.h"
#include "src/util/prng.h"
#include "src/util/thread_pool.h"

namespace tg {
namespace {

TEST(BitMatrixTest, SetTestAndRowRoundTrip) {
  BitMatrix m(3, 130);  // 130 columns: 3 words per row, top word partial
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 130u);
  EXPECT_EQ(m.row_words(), 3u);
  m.Set(0, 0);
  m.Set(1, 63);
  m.Set(1, 64);
  m.Set(2, 129);
  EXPECT_TRUE(m.Test(0, 0));
  EXPECT_FALSE(m.Test(0, 1));
  EXPECT_TRUE(m.Test(1, 63));
  EXPECT_TRUE(m.Test(1, 64));
  EXPECT_FALSE(m.Test(2, 128));
  EXPECT_TRUE(m.Test(2, 129));
  EXPECT_EQ(m.Row(1)[0], uint64_t{1} << 63);
  EXPECT_EQ(m.Row(1)[1], uint64_t{1});
  EXPECT_EQ(m.PopcountRow(1), 2u);
  std::vector<bool> row = m.RowBools(2);
  ASSERT_EQ(row.size(), 130u);
  EXPECT_TRUE(row[129]);
  EXPECT_FALSE(row[0]);
}

TEST(BitMatrixTest, ForEachSetBitAscending) {
  BitMatrix m(1, 200);
  for (size_t c : {size_t{0}, size_t{63}, size_t{64}, size_t{127}, size_t{199}}) {
    m.Set(0, c);
  }
  std::vector<size_t> seen;
  ForEachSetBit(m.Row(0), [&](size_t c) { seen.push_back(c); });
  EXPECT_EQ(seen, (std::vector<size_t>{0, 63, 64, 127, 199}));
}

TEST(SccTest, ReverseTopologicalComponentIds) {
  // 0 <-> 1 -> 2 -> 3 <-> 4, 5 isolated.
  std::vector<std::vector<VertexId>> adj(6);
  adj[0] = {1};
  adj[1] = {0, 2};
  adj[2] = {3};
  adj[3] = {4};
  adj[4] = {3};
  std::vector<uint32_t> comp = StronglyConnectedComponents(adj);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[2], comp[3]);
  // Edges point toward smaller (earlier-finished) component ids.
  EXPECT_GT(comp[0], comp[2]);
  EXPECT_GT(comp[2], comp[3]);
}

ProtectionGraph RandomTestGraph(size_t subjects, size_t objects, double edge_factor,
                                uint64_t seed) {
  tg_util::Prng prng(seed);
  tg_sim::RandomGraphOptions options;
  options.subjects = subjects;
  options.objects = objects;
  options.edge_factor = edge_factor;
  return tg_sim::RandomGraph(options, prng);
}

// Every language DFA in the repository; rows of the bit engine must match
// the scalar engine for each of them.
const std::vector<const tg_util::Dfa*>& AllDfas() {
  static const std::vector<const tg_util::Dfa*> dfas = {
      &TerminalSpanDfa(),          &InitialSpanDfa(),
      &BridgeDfa(),                &RwTerminalSpanDfa(),
      &RwInitialSpanDfa(),         &ConnectionDfa(),
      &AdmissibleRwDfa(),          &BridgeOrConnectionDfa(),
      &ReverseTerminalSpanDfa(),   &ReverseInitialSpanDfa(),
      &ReverseRwTerminalSpanDfa(), &ReverseRwInitialSpanDfa(),
  };
  return dfas;
}

void ExpectRowsMatchScalar(const AnalysisSnapshot& snap, const tg_util::Dfa& dfa,
                           const SnapshotBfsOptions& options, const char* context) {
  BitMatrix all = SnapshotWordReachableAll(snap, dfa, options);
  ASSERT_EQ(all.rows(), snap.vertex_count()) << context;
  for (VertexId v = 0; v < snap.vertex_count(); ++v) {
    const VertexId sources[] = {v};
    std::vector<bool> scalar = SnapshotWordReachable(snap, sources, dfa, options);
    EXPECT_EQ(all.RowBools(v), scalar) << context << " source " << v;
  }
}

// Row-by-row differential against the scalar engine, across every language
// DFA, with and without implicit edges, at sizes straddling the 64-lane
// word boundary (63/64/65) and spilling into a second slice (129).
TEST(SnapshotWordReachableAllTest, MatchesScalarRowsForAllLanguages) {
  struct Shape {
    size_t subjects;
    size_t objects;
    uint64_t seed;
  };
  for (const Shape& shape : {Shape{3, 2, 11}, Shape{40, 23, 5}, Shape{40, 24, 6},
                             Shape{40, 25, 7}, Shape{86, 43, 8}}) {
    ProtectionGraph g = RandomTestGraph(shape.subjects, shape.objects, 1.6, shape.seed);
    AnalysisSnapshot snap(g);
    for (const tg_util::Dfa* dfa : AllDfas()) {
      for (bool use_implicit : {true, false}) {
        SnapshotBfsOptions options;
        options.use_implicit = use_implicit;
        ExpectRowsMatchScalar(snap, *dfa, options, use_implicit ? "implicit" : "explicit");
      }
    }
  }
}

// min_steps changes which depths count as accepting (first-visit depth
// decides); the wave structure of the bit engine must preserve it.
TEST(SnapshotWordReachableAllTest, MatchesScalarRowsWithMinSteps) {
  ProtectionGraph g = RandomTestGraph(40, 25, 1.8, 19);
  AnalysisSnapshot snap(g);
  for (uint32_t min_steps : {uint32_t{1}, uint32_t{2}, uint32_t{3}}) {
    SnapshotBfsOptions options;
    options.use_implicit = true;
    options.min_steps = min_steps;
    ExpectRowsMatchScalar(snap, BridgeOrConnectionDfa(), options, "min_steps");
  }
}

// Duplicate sources get identical independent rows; invalid sources get
// all-zero rows — exactly the scalar behavior.
TEST(SnapshotWordReachableAllTest, DuplicateAndInvalidSources) {
  ProtectionGraph g = RandomTestGraph(10, 6, 1.5, 3);
  AnalysisSnapshot snap(g);
  std::vector<VertexId> sources = {2, 2, kInvalidVertex, 5,
                                   static_cast<VertexId>(g.VertexCount() + 7)};
  SnapshotBfsOptions options;
  options.use_implicit = true;
  BitMatrix rows = SnapshotWordReachableAll(snap, sources, BridgeOrConnectionDfa(), options);
  ASSERT_EQ(rows.rows(), sources.size());
  EXPECT_EQ(rows.RowBools(0), rows.RowBools(1));
  const VertexId two[] = {2};
  EXPECT_EQ(rows.RowBools(0), SnapshotWordReachable(snap, two, BridgeOrConnectionDfa(), options));
  EXPECT_EQ(rows.PopcountRow(2), 0u);
  EXPECT_EQ(rows.PopcountRow(4), 0u);
}

// The thread pool only distributes whole slices; any pool size must give
// identical matrices.
TEST(SnapshotWordReachableAllTest, DeterministicAcrossPoolSizes) {
  ProtectionGraph g = RandomTestGraph(90, 45, 1.7, 29);
  AnalysisSnapshot snap(g);
  SnapshotBfsOptions options;
  options.use_implicit = true;
  tg_util::ThreadPool one(1);
  tg_util::ThreadPool four(4);
  for (const tg_util::Dfa* dfa : {&BridgeOrConnectionDfa(), &RwTerminalSpanDfa()}) {
    BitMatrix a = SnapshotWordReachableAll(snap, *dfa, options, &one);
    BitMatrix b = SnapshotWordReachableAll(snap, *dfa, options, &four);
    EXPECT_EQ(a, b);
  }
}

// The levels oracle: rwtg-levels from their definition, with one scalar
// product BFS per subject and no bit matrix, condensation or SCC code.
// Subject u steps to subject v when a single rwtg-path from u to v carries
// a bridge-or-connection word; levels are the classes of mutual
// reachability under those steps, numbered in order of their lowest vertex
// id (ComputeRwtgLevels' numbering), and a level is higher than another
// when its members reach the other's.
tg_hier::LevelAssignment RwtgLevelsOracle(const ProtectionGraph& g) {
  AnalysisSnapshot snap(g);
  const size_t n = snap.vertex_count();
  SnapshotBfsOptions options;
  options.use_implicit = true;
  // reaches[u][v]: subject v is reachable from subject u in zero or more
  // steps (Warshall closure of the per-subject scalar rows).
  std::vector<std::vector<bool>> reaches(n, std::vector<bool>(n, false));
  for (VertexId u = 0; u < n; ++u) {
    if (!snap.IsSubject(u)) {
      continue;
    }
    const VertexId sources[] = {u};
    std::vector<bool> row = SnapshotWordReachable(snap, sources, BridgeOrConnectionDfa(), options);
    for (VertexId v = 0; v < n; ++v) {
      reaches[u][v] = v == u || (row[v] && snap.IsSubject(v));
    }
  }
  for (size_t k = 0; k < n; ++k) {
    for (size_t i = 0; i < n; ++i) {
      if (!reaches[i][k]) {
        continue;
      }
      for (size_t j = 0; j < n; ++j) {
        if (reaches[k][j]) {
          reaches[i][j] = true;
        }
      }
    }
  }
  std::vector<tg_hier::LevelId> level_of(n, tg_hier::kNoLevel);
  std::vector<VertexId> lowest_member;
  for (VertexId v = 0; v < n; ++v) {
    if (!snap.IsSubject(v) || level_of[v] != tg_hier::kNoLevel) {
      continue;
    }
    const auto level = static_cast<tg_hier::LevelId>(lowest_member.size());
    for (VertexId w = v; w < n; ++w) {
      if (reaches[v][w] && reaches[w][v]) {
        level_of[w] = level;
      }
    }
    lowest_member.push_back(v);
  }
  tg_hier::LevelAssignment levels(n, lowest_member.size());
  for (VertexId v = 0; v < n; ++v) {
    levels.Assign(v, level_of[v]);
  }
  for (tg_hier::LevelId a = 0; a < lowest_member.size(); ++a) {
    for (tg_hier::LevelId b = 0; b < lowest_member.size(); ++b) {
      if (a != b && reaches[lowest_member[a]][lowest_member[b]]) {
        levels.DeclareHigher(a, b);
      }
    }
  }
  EXPECT_TRUE(levels.Finalize());
  return levels;
}

void ExpectSameLevels(const tg_hier::LevelAssignment& got, const tg_hier::LevelAssignment& want,
                      size_t vertex_count, const std::string& context) {
  ASSERT_EQ(got.LevelCount(), want.LevelCount()) << context;
  for (VertexId v = 0; v < vertex_count; ++v) {
    EXPECT_EQ(got.LevelOf(v), want.LevelOf(v)) << context << " vertex " << v;
  }
  for (tg_hier::LevelId a = 0; a < got.LevelCount(); ++a) {
    for (tg_hier::LevelId b = 0; b < got.LevelCount(); ++b) {
      EXPECT_EQ(got.Higher(a, b), want.Higher(a, b)) << context << " levels " << a << "," << b;
    }
  }
}

// The bit-parallel level computation must reproduce the scalar reference
// exactly — same level ids, membership, and higher relation — across sizes
// and edge densities, with the bit path fanned over a four-thread pool.
TEST(BitParallelLevelsTest, MatchesScalarReference) {
  struct Shape {
    size_t subjects;
    size_t objects;
    double edge_factor;
    uint64_t seed;
  };
  tg_util::ThreadPool pool(4);
  for (const Shape& shape :
       {Shape{45, 25, 1.9, 2}, Shape{45, 25, 1.9, 13}, Shape{45, 25, 1.9, 77},
        Shape{30, 18, 1.5, 2026}, Shape{30, 18, 3.0, 2026}, Shape{60, 36, 1.5, 2026},
        Shape{60, 36, 3.0, 2026}, Shape{80, 48, 1.5, 2026}, Shape{80, 48, 3.0, 2026}}) {
    ProtectionGraph g = RandomTestGraph(shape.subjects, shape.objects, shape.edge_factor,
                                        shape.seed);
    ExpectSameLevels(tg_hier::ComputeRwtgLevels(g, &pool), RwtgLevelsOracle(g),
                     g.VertexCount(),
                     "n=" + std::to_string(g.VertexCount()) +
                         " d=" + std::to_string(shape.edge_factor) +
                         " seed=" + std::to_string(shape.seed));
  }
}

// rwtg-levels are defined as maximal sets of subjects with *mutual*
// can_know; the SCC condensation must agree with the pairwise definition.
TEST(BitParallelLevelsTest, SccLevelsAgreeWithPairwiseMutualKnowledge) {
  for (uint64_t seed : {uint64_t{41}, uint64_t{59}}) {
    ProtectionGraph g = RandomTestGraph(14, 8, 1.8, seed);
    tg_hier::LevelAssignment levels = tg_hier::ComputeRwtgLevels(g);
    for (VertexId x = 0; x < g.VertexCount(); ++x) {
      if (!g.IsSubject(x)) {
        continue;
      }
      for (VertexId y = 0; y < g.VertexCount(); ++y) {
        if (!g.IsSubject(y) || x == y) {
          continue;
        }
        bool mutual = tg_analysis::CanKnow(g, x, y) && tg_analysis::CanKnow(g, y, x);
        EXPECT_EQ(levels.LevelOf(x) == levels.LevelOf(y), mutual)
            << "seed " << seed << " pair (" << x << ", " << y << ")";
      }
    }
  }
}

}  // namespace
}  // namespace tg

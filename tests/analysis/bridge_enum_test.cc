// Differential tests for the per-word-type bridge-enum engine.
//
// The keystone claim is language decomposition: the seven typed reach sets
// of BridgeEnumIndex must match, per type, a product BFS over that type's
// own sublanguage DFA, and their union must match the generic
// bridge-or-connection sweep — on unstructured random graphs and on every
// planted-channel generator configuration.  On top of that the audit
// engines built from the index (AuditEngine::kBridgeEnum) must be
// bit-identical to the dense and sharded engines, cutoffs included, and
// every typed channel must carry a replay-verified witness.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "src/analysis/bridge_enum.h"
#include "src/take_grant.h"

namespace {

using tg_analysis::BridgeEnumIndex;
using tg_analysis::ChannelWordDfa;
using tg_analysis::ChannelWordType;
using tg_analysis::kChannelWordTypeCount;
using tg_analysis::TypedChannel;
using tg_hier::AuditEngine;
using tg_hier::CrossLevelChannel;
using tg_hier::SecurityReport;
using tg_hier::TypedCrossLevelChannel;

tg::ProtectionGraph Random(uint64_t seed, size_t subjects, size_t objects,
                           double edge_factor) {
  tg_util::Prng prng(seed);
  tg_sim::RandomGraphOptions options;
  options.subjects = subjects;
  options.objects = objects;
  options.edge_factor = edge_factor;
  return tg_sim::RandomGraph(options, prng);
}

tg_sim::GeneratedHierarchy Hierarchy(size_t planted, uint64_t seed, size_t levels = 4,
                                     size_t clusters = 3, size_t subjects = 5,
                                     size_t objects = 2) {
  tg_util::Prng prng(seed);
  tg_sim::HierarchicalGraphOptions options;
  options.levels = levels;
  options.clusters_per_level = clusters;
  options.subjects_per_cluster = subjects;
  options.objects_per_cluster = objects;
  options.tg_chords_per_cluster = 2;
  options.reads_down_per_subject = 1;
  options.planted_channels = planted;
  return tg_sim::HierarchicalGraph(options, prng);
}

// Clusters of 24 subjects and 8 objects, the shape of perfbench's audit
// workloads: 3 levels of 2 clusters (n = 192) with 0 or 4 planted
// channels, seeded 19 + planted.
tg_sim::GeneratedHierarchy WideHierarchy(size_t planted) {
  return Hierarchy(planted, 19 + planted, /*levels=*/3, /*clusters=*/2, /*subjects=*/24,
                   /*objects=*/8);
}

// The generic product-BFS answer for one sublanguage from one source.
std::vector<bool> DfaReach(const tg::AnalysisSnapshot& snap, tg::VertexId source,
                           const tg_util::Dfa& dfa) {
  tg::SnapshotBfsOptions options;
  options.use_implicit = true;
  const tg::VertexId sources[] = {source};
  return tg::SnapshotWordReachable(snap, sources, dfa, options);
}

// --- Per-type reachability vs the sublanguage DFA on random graphs. ---

TEST(BridgeEnumTest, PerTypeReachMatchesSublanguageDfaOnRandomGraphs) {
  for (uint64_t seed : {uint64_t{3}, uint64_t{41}, uint64_t{909}}) {
    tg::ProtectionGraph g = Random(seed, /*subjects=*/10, /*objects=*/5, /*edge_factor=*/1.8);
    const tg::AnalysisSnapshot snap(g);
    const BridgeEnumIndex index(snap);
    for (size_t t = 0; t < kChannelWordTypeCount; ++t) {
      const ChannelWordType type = static_cast<ChannelWordType>(t);
      const tg_util::Dfa& dfa = ChannelWordDfa(type);
      for (tg::VertexId u = 0; u < g.VertexCount(); ++u) {
        const std::vector<bool> expected = DfaReach(snap, u, dfa);
        for (tg::VertexId v = 0; v < g.VertexCount(); ++v) {
          EXPECT_EQ(index.Reaches(u, v, type), expected[v])
              << "seed=" << seed << " type=" << tg_analysis::ChannelWordTypeName(type)
              << " u=" << u << " v=" << v;
        }
      }
    }
  }
}

TEST(BridgeEnumTest, UnionReachMatchesBridgeOrConnectionDfa) {
  for (uint64_t seed : {uint64_t{7}, uint64_t{123}}) {
    tg::ProtectionGraph g = Random(seed, /*subjects=*/12, /*objects=*/6, /*edge_factor=*/2.0);
    const tg::AnalysisSnapshot snap(g);
    const BridgeEnumIndex index(snap);
    const size_t words = (g.VertexCount() + 63) / 64;
    for (tg::VertexId u = 0; u < g.VertexCount(); ++u) {
      const std::vector<bool> expected = DfaReach(snap, u, tg::BridgeOrConnectionDfa());
      std::vector<uint64_t> row(words, 0);
      index.OrReach(u, row);
      for (tg::VertexId v = 0; v < g.VertexCount(); ++v) {
        const bool got = (row[v >> 6] >> (v & 63)) & 1;
        EXPECT_EQ(got, expected[v]) << "seed=" << seed << " u=" << u << " v=" << v;
        EXPECT_EQ(index.ReachesAny(u, v), expected[v])
            << "seed=" << seed << " u=" << u << " v=" << v;
      }
    }
  }
}

// --- Classification and witnesses on single-edge graphs: each word type
// in isolation. ---

TEST(BridgeEnumTest, ClassifiesEachWordTypeOnMinimalGraphs) {
  struct Case {
    ChannelWordType type;
    tg::Right right;
    bool backward;   // edge points v -> u (or writer -> object)
    bool via_object; // kReadWrite: u -r-> o <-w- v
  };
  const Case cases[] = {
      {ChannelWordType::kTakeFwd, tg::Right::kTake, false, false},
      {ChannelWordType::kTakeBack, tg::Right::kTake, true, false},
      {ChannelWordType::kGrantFwd, tg::Right::kGrant, false, false},
      {ChannelWordType::kGrantBack, tg::Right::kGrant, true, false},
      {ChannelWordType::kRead, tg::Right::kRead, false, false},
      {ChannelWordType::kWrite, tg::Right::kWrite, true, false},
      {ChannelWordType::kReadWrite, tg::Right::kRead, false, true},
  };
  for (const Case& c : cases) {
    tg::ProtectionGraph g;
    const tg::VertexId u = g.AddSubject("u");
    const tg::VertexId v = g.AddSubject("v");
    if (c.via_object) {
      const tg::VertexId o = g.AddObject("o");
      ASSERT_TRUE(g.AddExplicit(u, o, tg::kRead).ok());
      ASSERT_TRUE(g.AddExplicit(v, o, tg::kWrite).ok());
    } else if (c.backward) {
      ASSERT_TRUE(g.AddExplicit(v, u, tg::RightSet(c.right)).ok());
    } else {
      ASSERT_TRUE(g.AddExplicit(u, v, tg::RightSet(c.right)).ok());
    }
    const tg::AnalysisSnapshot snap(g);
    const BridgeEnumIndex index(snap);
    const std::optional<ChannelWordType> type = index.Classify(u, v);
    ASSERT_TRUE(type.has_value()) << tg_analysis::ChannelWordTypeName(c.type);
    EXPECT_EQ(*type, c.type) << tg_analysis::ChannelWordTypeName(c.type);
    const std::optional<TypedChannel> channel = index.DescribeChannel(g, u, v);
    ASSERT_TRUE(channel.has_value());
    EXPECT_EQ(channel->word_type, c.type);
    EXPECT_TRUE(channel->replay_verified) << tg_analysis::ChannelWordTypeName(c.type);
    EXPECT_TRUE(tg_analysis::VerifyChannelPath(g, *channel));
    if (c.type == ChannelWordType::kTakeFwd || c.type == ChannelWordType::kTakeBack) {
      EXPECT_EQ(channel->pivot_src, tg::kInvalidVertex);
    } else {
      // The pivot is recorded in graph direction, whichever way the walk
      // crossed it.
      EXPECT_NE(channel->pivot_src, tg::kInvalidVertex);
      EXPECT_NE(channel->pivot_dst, tg::kInvalidVertex);
    }
  }
}

TEST(BridgeEnumTest, DescribeChannelVerifiesOnRandomGraphs) {
  for (uint64_t seed : {uint64_t{17}, uint64_t{55}}) {
    tg::ProtectionGraph g = Random(seed, /*subjects=*/8, /*objects=*/4, /*edge_factor=*/1.6);
    const tg::AnalysisSnapshot snap(g);
    const BridgeEnumIndex index(snap);
    for (tg::VertexId u = 0; u < g.VertexCount(); ++u) {
      for (tg::VertexId v = 0; v < g.VertexCount(); ++v) {
        if (u == v) {
          continue;
        }
        const std::optional<TypedChannel> channel = index.DescribeChannel(g, u, v);
        EXPECT_EQ(channel.has_value(), index.ReachesAny(u, v));
        if (channel.has_value()) {
          EXPECT_TRUE(channel->replay_verified) << "seed=" << seed << " u=" << u << " v=" << v;
          EXPECT_EQ(channel->word_type, *index.Classify(u, v));
        }
      }
    }
  }
}

// --- Audit-engine differentials: kBridgeEnum vs kDense vs kSharded. ---

void ExpectSameReports(const SecurityReport& a, const SecurityReport& b, const std::string& what) {
  EXPECT_EQ(a.secure, b.secure) << what;
  ASSERT_EQ(a.violations.size(), b.violations.size()) << what;
  for (size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].lower, b.violations[i].lower) << what << " violation " << i;
    EXPECT_EQ(a.violations[i].higher, b.violations[i].higher) << what << " violation " << i;
    EXPECT_EQ(a.violations[i].detail, b.violations[i].detail) << what << " violation " << i;
  }
}

void ExpectSameChannels(const std::vector<CrossLevelChannel>& a,
                        const std::vector<CrossLevelChannel>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].from, b[i].from) << what << " channel " << i;
    EXPECT_EQ(a[i].to, b[i].to) << what << " channel " << i;
    EXPECT_EQ(a[i].path, b[i].path) << what << " channel " << i;
  }
}

TEST(BridgeEnumTest, CheckSecureMatchesDenseAndShardedOnPlantedConfigs) {
  auto check = [](const tg_sim::GeneratedHierarchy& h, const std::string& what) {
    SecurityReport dense = tg_hier::CheckSecure(h.graph, h.levels, 0, nullptr, AuditEngine::kDense);
    SecurityReport sharded =
        tg_hier::CheckSecure(h.graph, h.levels, 0, nullptr, AuditEngine::kSharded);
    SecurityReport bridge =
        tg_hier::CheckSecure(h.graph, h.levels, 0, nullptr, AuditEngine::kBridgeEnum);
    ExpectSameReports(dense, bridge, what + " vs dense");
    ExpectSameReports(sharded, bridge, what + " vs sharded");
    // Cutoff parity below, at, and above the true count.
    for (size_t cap : {size_t{1}, size_t{3}, dense.violations.size() + 2}) {
      SecurityReport dense_cut =
          tg_hier::CheckSecure(h.graph, h.levels, cap, nullptr, AuditEngine::kDense);
      SecurityReport bridge_cut =
          tg_hier::CheckSecure(h.graph, h.levels, cap, nullptr, AuditEngine::kBridgeEnum);
      ExpectSameReports(dense_cut, bridge_cut, what + " cap=" + std::to_string(cap));
    }
  };
  for (size_t planted : {size_t{0}, size_t{2}, size_t{6}}) {
    for (uint64_t seed : {uint64_t{5}, uint64_t{77}}) {
      check(Hierarchy(planted, seed),
            "planted=" + std::to_string(planted) + " seed=" + std::to_string(seed));
    }
  }
  for (size_t planted : {size_t{0}, size_t{4}}) {
    check(WideHierarchy(planted), "wide planted=" + std::to_string(planted));
  }
}

TEST(BridgeEnumTest, ChannelsMatchDenseAndShardedOnPlantedConfigs) {
  auto check = [](const tg_sim::GeneratedHierarchy& h, size_t planted, const std::string& what) {
    std::vector<CrossLevelChannel> dense =
        tg_hier::FindCrossLevelChannels(h.graph, h.levels, 0, nullptr, AuditEngine::kDense);
    std::vector<CrossLevelChannel> sharded =
        tg_hier::FindCrossLevelChannels(h.graph, h.levels, 0, nullptr, AuditEngine::kSharded);
    std::vector<CrossLevelChannel> bridge =
        tg_hier::FindCrossLevelChannels(h.graph, h.levels, 0, nullptr, AuditEngine::kBridgeEnum);
    ExpectSameChannels(dense, bridge, what + " vs dense");
    ExpectSameChannels(sharded, bridge, what + " vs sharded");
    EXPECT_EQ(bridge.empty(), planted == 0) << what;
    if (!dense.empty()) {
      std::vector<CrossLevelChannel> dense_cut =
          tg_hier::FindCrossLevelChannels(h.graph, h.levels, 2, nullptr, AuditEngine::kDense);
      std::vector<CrossLevelChannel> bridge_cut = tg_hier::FindCrossLevelChannels(
          h.graph, h.levels, 2, nullptr, AuditEngine::kBridgeEnum);
      ExpectSameChannels(dense_cut, bridge_cut, what + " cap=2");
    }
  };
  for (size_t planted : {size_t{0}, size_t{2}, size_t{6}}) {
    for (uint64_t seed : {uint64_t{13}, uint64_t{99}}) {
      check(Hierarchy(planted, seed), planted,
            "planted=" + std::to_string(planted) + " seed=" + std::to_string(seed));
    }
  }
  for (size_t planted : {size_t{0}, size_t{4}}) {
    check(WideHierarchy(planted), planted, "wide planted=" + std::to_string(planted));
  }
}

TEST(BridgeEnumTest, RandomHierarchyShapesMatchAcrossEngines) {
  // The pre-existing (non-cluster) generator shapes go through the same
  // three-way differential.
  for (size_t planted : {size_t{0}, size_t{3}}) {
    tg_util::Prng prng(211 + planted);
    tg_sim::RandomHierarchyOptions options;
    options.levels = 4;
    options.subjects_per_level = 4;
    options.objects_per_level = 2;
    options.planted_channels = planted;
    tg_sim::GeneratedHierarchy h = tg_sim::RandomHierarchy(options, prng);
    const std::string what = "random-hierarchy planted=" + std::to_string(planted);
    std::vector<CrossLevelChannel> dense =
        tg_hier::FindCrossLevelChannels(h.graph, h.levels, 0, nullptr, AuditEngine::kDense);
    std::vector<CrossLevelChannel> bridge =
        tg_hier::FindCrossLevelChannels(h.graph, h.levels, 0, nullptr, AuditEngine::kBridgeEnum);
    ExpectSameChannels(dense, bridge, what);
    SecurityReport dense_sec =
        tg_hier::CheckSecure(h.graph, h.levels, 0, nullptr, AuditEngine::kDense);
    SecurityReport bridge_sec =
        tg_hier::CheckSecure(h.graph, h.levels, 0, nullptr, AuditEngine::kBridgeEnum);
    ExpectSameReports(dense_sec, bridge_sec, what);
  }
}

// --- Typed enumeration: same pairs as the untyped scan, all verified. ---

TEST(BridgeEnumTest, TypedChannelsMatchUntypedScan) {
  auto expect_same_pairs = [](const tg_sim::GeneratedHierarchy& h, const std::string& what) {
    std::vector<CrossLevelChannel> untyped =
        tg_hier::FindCrossLevelChannels(h.graph, h.levels, 0, nullptr, AuditEngine::kBridgeEnum);
    std::vector<TypedCrossLevelChannel> typed =
        tg_hier::FindTypedCrossLevelChannels(h.graph, h.levels);
    ASSERT_EQ(typed.size(), untyped.size()) << what;
    for (size_t i = 0; i < typed.size(); ++i) {
      EXPECT_EQ(typed[i].channel.from, untyped[i].from) << what << " " << i;
      EXPECT_EQ(typed[i].channel.to, untyped[i].to) << what << " " << i;
      EXPECT_TRUE(typed[i].channel.replay_verified) << what << " " << i;
      EXPECT_TRUE(tg_analysis::VerifyChannelPath(h.graph, typed[i].channel)) << what << " " << i;
      EXPECT_EQ(typed[i].from_level, h.levels.LevelOf(untyped[i].from)) << what << " " << i;
      EXPECT_EQ(typed[i].to_level, h.levels.LevelOf(untyped[i].to)) << what << " " << i;
    }
  };
  for (size_t planted : {size_t{0}, size_t{4}}) {
    expect_same_pairs(WideHierarchy(planted), "wide planted=" + std::to_string(planted));
  }
  tg_sim::GeneratedHierarchy h = Hierarchy(/*planted=*/4, /*seed=*/29);
  expect_same_pairs(h, "planted=4 seed=29");
  std::vector<TypedCrossLevelChannel> typed =
      tg_hier::FindTypedCrossLevelChannels(h.graph, h.levels);
  // Cutoff applies to the typed scan too.
  if (typed.size() > 1) {
    std::vector<TypedCrossLevelChannel> capped =
        tg_hier::FindTypedCrossLevelChannels(h.graph, h.levels, /*max_channels=*/1);
    ASSERT_EQ(capped.size(), 1u);
    EXPECT_EQ(capped[0].channel.from, typed[0].channel.from);
    EXPECT_EQ(capped[0].channel.to, typed[0].channel.to);
  }
  // The cache overload yields the identical list.
  tg_analysis::AnalysisCache cache;
  std::vector<TypedCrossLevelChannel> cached =
      tg_hier::FindTypedCrossLevelChannels(h.graph, h.levels, cache);
  ASSERT_EQ(cached.size(), typed.size());
  for (size_t i = 0; i < typed.size(); ++i) {
    EXPECT_EQ(cached[i].channel.from, typed[i].channel.from) << i;
    EXPECT_EQ(cached[i].channel.word_type, typed[i].channel.word_type) << i;
  }
}

// --- Satellite: the kAuto flip condition. ---

TEST(BridgeEnumTest, ResolveAuditEngineFlipCondition) {
  // Fewer than two levels: dense, regardless of size.
  {
    tg::ProtectionGraph g;
    const tg::VertexId a = g.AddSubject("a");
    tg_hier::LevelAssignment one_level(/*vertex_count=*/1, /*level_count=*/1);
    one_level.Assign(a, 0);
    ASSERT_TRUE(one_level.Finalize());
    EXPECT_EQ(tg_hier::ResolveAuditEngine(g, one_level), AuditEngine::kDense);
  }
  // Small hierarchies stay dense.
  {
    tg_sim::GeneratedHierarchy h = Hierarchy(/*planted=*/2, /*seed=*/3);
    ASSERT_LT(h.graph.VertexCount(), 2048u);
    EXPECT_EQ(tg_hier::ResolveAuditEngine(h.graph, h.levels), AuditEngine::kDense);
  }
  // Large hierarchy, sparse cross-level t/g pivots (planted channels well
  // under max(16, n/256)): the bridge-enum engine wins the flip.
  {
    tg_sim::GeneratedHierarchy h =
        Hierarchy(/*planted=*/4, /*seed=*/9, /*levels=*/4, /*clusters=*/80);
    ASSERT_GE(h.graph.VertexCount(), 2048u);
    EXPECT_EQ(tg_hier::ResolveAuditEngine(h.graph, h.levels), AuditEngine::kBridgeEnum);
    // And the flipped engine still matches dense on the same graph.
    SecurityReport auto_report = tg_hier::CheckSecure(h.graph, h.levels, 0, nullptr);
    SecurityReport dense_report =
        tg_hier::CheckSecure(h.graph, h.levels, 0, nullptr, AuditEngine::kDense);
    ExpectSameReports(dense_report, auto_report, "auto=bridge-enum vs dense");
  }
  // Same size, dense cross-level pivots: sharded keeps the flip.
  {
    tg_sim::GeneratedHierarchy h =
        Hierarchy(/*planted=*/200, /*seed=*/9, /*levels=*/4, /*clusters=*/80);
    ASSERT_GE(h.graph.VertexCount(), 2048u);
    EXPECT_EQ(tg_hier::ResolveAuditEngine(h.graph, h.levels), AuditEngine::kSharded);
  }
  // An explicit request is always honored.
  {
    tg_sim::GeneratedHierarchy h = Hierarchy(/*planted=*/0, /*seed=*/3);
    EXPECT_EQ(tg_hier::ResolveAuditEngine(h.graph, h.levels, AuditEngine::kBridgeEnum),
              AuditEngine::kBridgeEnum);
    EXPECT_EQ(tg_hier::ResolveAuditEngine(h.graph, h.levels, AuditEngine::kSharded),
              AuditEngine::kSharded);
  }
}

}  // namespace

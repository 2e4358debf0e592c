// Randomized and stress tests: invariants under arbitrary operation
// sequences, reference-checked language acceptors, and depth stress.

#include <gtest/gtest.h>

#include "src/take_grant.h"

namespace {

using tg::PathSymbol;
using tg::ProtectionGraph;
using tg::Right;
using tg::VertexId;
using tg::Word;

// ---- graph operation fuzz ----

TEST(GraphFuzzTest, RandomOperationsKeepInvariants) {
  tg_util::Prng prng(20240707);
  for (int round = 0; round < 20; ++round) {
    ProtectionGraph g;
    size_t expected_explicit = 0;
    for (int op = 0; op < 300; ++op) {
      switch (prng.NextBelow(6)) {
        case 0:
          g.AddSubject();
          break;
        case 1:
          g.AddObject();
          break;
        case 2: {  // add explicit
          if (g.VertexCount() < 2) {
            break;
          }
          VertexId a = static_cast<VertexId>(prng.NextBelow(g.VertexCount()));
          VertexId b = static_cast<VertexId>(prng.NextBelow(g.VertexCount()));
          tg::RightSet rights =
              tg::RightSet::FromBits(static_cast<uint8_t>(1 + prng.NextBelow(255)));
          bool had = !g.ExplicitRights(a, b).empty();
          if (g.AddExplicit(a, b, rights).ok() && !had) {
            ++expected_explicit;
          }
          break;
        }
        case 3: {  // add implicit
          if (g.VertexCount() < 2) {
            break;
          }
          VertexId a = static_cast<VertexId>(prng.NextBelow(g.VertexCount()));
          VertexId b = static_cast<VertexId>(prng.NextBelow(g.VertexCount()));
          (void)g.AddImplicit(a, b, tg::kRead);
          break;
        }
        case 4: {  // remove
          if (g.VertexCount() < 2) {
            break;
          }
          VertexId a = static_cast<VertexId>(prng.NextBelow(g.VertexCount()));
          VertexId b = static_cast<VertexId>(prng.NextBelow(g.VertexCount()));
          bool had = !g.ExplicitRights(a, b).empty();
          tg::RightSet rights =
              tg::RightSet::FromBits(static_cast<uint8_t>(1 + prng.NextBelow(255)));
          if (g.RemoveExplicit(a, b, rights).ok() && had &&
              g.ExplicitRights(a, b).empty()) {
            --expected_explicit;
          }
          break;
        }
        case 5:
          if (prng.NextBool(0.05)) {
            g.ClearImplicit();
          }
          break;
      }
    }
    ASSERT_TRUE(g.Validate().ok()) << "round " << round;
    EXPECT_EQ(g.ExplicitEdgeCount(), expected_explicit) << "round " << round;
    // Round trip.
    auto reparsed = tg::ParseGraph(tg::PrintGraph(g));
    ASSERT_TRUE(reparsed.ok()) << "round " << round;
    EXPECT_TRUE(*reparsed == g) << "round " << round;
  }
}

TEST(RuleFuzzTest, RandomRuleSequencesKeepValidity) {
  tg_util::Prng prng(777777);
  for (int round = 0; round < 10; ++round) {
    tg_sim::RandomGraphOptions options;
    options.subjects = 4;
    options.objects = 3;
    options.edge_factor = 1.5;
    ProtectionGraph g = tg_sim::RandomGraph(options, prng);
    tg::RuleEngine engine(g, nullptr);
    for (int step = 0; step < 80; ++step) {
      std::vector<tg::RuleApplication> de_jure = EnumerateDeJure(engine.graph());
      std::vector<tg::RuleApplication> de_facto = EnumerateDeFacto(engine.graph());
      de_jure.insert(de_jure.end(), de_facto.begin(), de_facto.end());
      if (de_jure.empty()) {
        break;
      }
      size_t pick = static_cast<size_t>(prng.NextBelow(de_jure.size()));
      auto result = engine.Apply(de_jure[pick]);
      EXPECT_TRUE(result.ok()) << "enumerated rule failed: "
                               << de_jure[pick].ToString(engine.graph());
    }
    EXPECT_TRUE(engine.graph().Validate().ok()) << "round " << round;
    // The journal must replay to the same graph.
    auto replayed = engine.journal().Replay(g);
    ASSERT_TRUE(replayed.ok());
    EXPECT_TRUE(*replayed == engine.graph());
  }
}

// ---- incremental oracle: cached queries vs fresh-graph analysis ----

// Interleaves rule applications with can_know / can_share queries.  The
// long-lived AnalysisCache answers through the delta-aware pipeline
// (journal -> overlay patch -> scoped entry repair); every answer is
// cross-checked against a from-scratch analysis of the current graph, and
// the mutated-in-place graph itself is cross-checked against its
// serialized rebuild so incremental state cannot drift from the ground
// truth.
TEST(IncrementalOracleFuzzTest, CachedQueriesMatchFreshAnalysisAcrossRules) {
  tg_util::Prng prng(90210);
  for (int round = 0; round < 4; ++round) {
    tg_sim::RandomGraphOptions options;
    options.subjects = 5;
    options.objects = 3;
    options.edge_factor = 1.6;
    ProtectionGraph g = tg_sim::RandomGraph(options, prng);
    tg::RuleEngine engine(g, nullptr);
    tg_analysis::AnalysisCache cache;
    int applied = 0;
    for (int step = 0; step < 60; ++step) {
      const ProtectionGraph& cur = engine.graph();
      if (prng.NextBool(0.5)) {
        std::vector<tg::RuleApplication> rules = EnumerateDeJure(cur);
        std::vector<tg::RuleApplication> de_facto = EnumerateDeFacto(cur);
        rules.insert(rules.end(), de_facto.begin(), de_facto.end());
        if (!rules.empty()) {
          size_t pick = static_cast<size_t>(prng.NextBelow(rules.size()));
          ASSERT_TRUE(engine.Apply(rules[pick]).ok());
          ++applied;
        }
        continue;
      }
      VertexId x = static_cast<VertexId>(prng.NextBelow(cur.VertexCount()));
      VertexId y = static_cast<VertexId>(prng.NextBelow(cur.VertexCount()));
      EXPECT_EQ(cache.CanKnow(cur, x, y), tg_analysis::CanKnow(cur, x, y))
          << "round " << round << " step " << step << " x=" << x << " y=" << y;
      EXPECT_EQ(cache.Knowable(cur, x), tg_analysis::KnowableFrom(cur, x))
          << "round " << round << " step " << step << " x=" << x;
      // can_share runs snapshot-free of the cache; checking it against the
      // reparsed graph verifies the mutated-in-place state it reads.
      auto reparsed = tg::ParseGraph(tg::PrintGraph(cur));
      ASSERT_TRUE(reparsed.ok());
      EXPECT_EQ(tg_analysis::CanShare(cur, Right::kRead, x, y),
                tg_analysis::CanShare(*reparsed, Right::kRead, x, y))
          << "round " << round << " step " << step << " x=" << x << " y=" << y;
    }
    EXPECT_GT(applied, 0) << "round " << round;
    // The journal window over the whole run must reconcile with the net
    // state change the rules produced.
    ASSERT_TRUE(engine.graph().journal().Covers(g.epoch()));
    tg::GraphDiff from_journal = tg::DiffOfJournal(engine.graph().journal().Since(g.epoch()));
    tg::GraphDiff from_graphs = tg::DiffGraphs(g, engine.graph());
    EXPECT_EQ(from_journal.added_vertices, from_graphs.added_vertices) << "round " << round;
    EXPECT_EQ(from_journal.added_explicit, from_graphs.added_explicit) << "round " << round;
    EXPECT_EQ(from_journal.removed_explicit, from_graphs.removed_explicit)
        << "round " << round;
    EXPECT_EQ(from_journal.added_implicit, from_graphs.added_implicit) << "round " << round;
    EXPECT_EQ(from_journal.removed_implicit, from_graphs.removed_implicit)
        << "round " << round;
  }
}

// ---- language acceptors vs reference matchers ----

// Straightforward reference implementations of the word languages.
bool RefTerminal(const Word& w) {
  for (PathSymbol s : w) {
    if (s != PathSymbol::kTakeFwd) {
      return false;
    }
  }
  return true;
}

bool RefInitial(const Word& w) {
  if (w.empty()) {
    return true;
  }
  for (size_t i = 0; i + 1 < w.size(); ++i) {
    if (w[i] != PathSymbol::kTakeFwd) {
      return false;
    }
  }
  return w.back() == PathSymbol::kGrantFwd;
}

bool RefBridge(const Word& w) {
  // t>* | t<* | t>* g> t<* | t>* g< t<*
  size_t i = 0;
  while (i < w.size() && w[i] == PathSymbol::kTakeFwd) {
    ++i;
  }
  if (i == w.size()) {
    return true;  // t>*
  }
  if (i == 0 && w[i] == PathSymbol::kTakeBack) {
    while (i < w.size() && w[i] == PathSymbol::kTakeBack) {
      ++i;
    }
    return i == w.size();  // t<*
  }
  if (w[i] != PathSymbol::kGrantFwd && w[i] != PathSymbol::kGrantBack) {
    return false;
  }
  ++i;
  while (i < w.size() && w[i] == PathSymbol::kTakeBack) {
    ++i;
  }
  return i == w.size();
}

bool RefConnection(const Word& w) {
  // t>* r> | w< t<* | t>* r> w< t<*
  if (w.empty()) {
    return false;
  }
  size_t i = 0;
  while (i < w.size() && w[i] == PathSymbol::kTakeFwd) {
    ++i;
  }
  if (i < w.size() && w[i] == PathSymbol::kReadFwd) {
    ++i;
    if (i == w.size()) {
      return true;
    }
    if (w[i] != PathSymbol::kWriteBack) {
      return false;
    }
    ++i;
    while (i < w.size() && w[i] == PathSymbol::kTakeBack) {
      ++i;
    }
    return i == w.size();
  }
  if (i == 0 && w[0] == PathSymbol::kWriteBack) {
    i = 1;
    while (i < w.size() && w[i] == PathSymbol::kTakeBack) {
      ++i;
    }
    return i == w.size();
  }
  return false;
}

bool RefAdmissible(const Word& w) {
  for (PathSymbol s : w) {
    if (s != PathSymbol::kReadFwd && s != PathSymbol::kWriteBack) {
      return false;
    }
  }
  return true;
}

TEST(LanguageFuzzTest, DfasMatchReferenceMatchers) {
  tg_util::Prng prng(31337);
  for (int trial = 0; trial < 20000; ++trial) {
    size_t len = prng.NextBelow(7);
    Word w;
    for (size_t i = 0; i < len; ++i) {
      w.push_back(static_cast<PathSymbol>(prng.NextBelow(tg::kPathSymbolCount)));
    }
    std::string label = tg::WordToString(w);
    EXPECT_EQ(tg::IsTerminalSpanWord(w), RefTerminal(w)) << label;
    EXPECT_EQ(tg::IsInitialSpanWord(w), RefInitial(w)) << label;
    EXPECT_EQ(tg::IsBridgeWord(w), RefBridge(w)) << label;
    EXPECT_EQ(tg::IsConnectionWord(w), RefConnection(w)) << label;
    EXPECT_EQ(tg::IsAdmissibleRwWord(w), RefAdmissible(w)) << label;
    // The union DFA is exactly the union.
    EXPECT_EQ(tg::BridgeOrConnectionDfa().Accepts(tg::WordToIndices(w)),
              RefBridge(w) || RefConnection(w))
        << label;
    // ... and the seven per-word-type sublanguage DFAs (the bridge-enum
    // decomposition) partition it: their union accepts exactly the same
    // words.
    bool any_type = false;
    for (size_t t = 0; t < tg_analysis::kChannelWordTypeCount; ++t) {
      const auto type = static_cast<tg_analysis::ChannelWordType>(t);
      any_type = any_type || tg_analysis::ChannelWordDfa(type).Accepts(tg::WordToIndices(w));
    }
    EXPECT_EQ(any_type, RefBridge(w) || RefConnection(w)) << label;
  }
}

// ---- procedure vs oracle cross-check ----

TEST(OracleFuzzTest, CanKnowFMatchesOracleOnRandomHierarchies) {
  // OracleCanKnowF answers can_know_f by brute saturation (no de jure
  // moves), so it must agree with the procedural CanKnowF on every pair.
  tg_util::Prng prng(4242);
  for (int trial = 0; trial < 6; ++trial) {
    tg_sim::RandomHierarchyOptions options;
    options.levels = 2 + trial % 2;
    options.subjects_per_level = 2;
    options.objects_per_level = 1;
    options.planted_channels = trial % 3;
    ProtectionGraph g = tg_sim::RandomHierarchy(options, prng).graph;
    for (VertexId x = 0; x < g.VertexCount(); ++x) {
      for (VertexId y = 0; y < g.VertexCount(); ++y) {
        EXPECT_EQ(tg_analysis::CanKnowF(g, x, y), tg_analysis::OracleCanKnowF(g, x, y))
            << "trial " << trial << " x=" << g.NameOf(x) << " y=" << g.NameOf(y);
      }
    }
  }
}

// ---- stress ----

TEST(StressTest, LongChainCanShareAndWitness) {
  ProtectionGraph g = tg_sim::ChainGraph(3000);
  VertexId head = g.FindVertex("head");
  VertexId target = g.FindVertex("target");
  EXPECT_TRUE(tg_analysis::CanShare(g, Right::kRead, head, target));
  ProtectionGraph small = tg_sim::ChainGraph(500);
  VertexId shead = small.FindVertex("head");
  VertexId starget = small.FindVertex("target");
  auto witness = tg_analysis::BuildCanShareWitness(small, Right::kRead, shead, starget);
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->size(), 498u);  // one take per chain hop plus the final pull
  EXPECT_TRUE(witness->VerifyAddsExplicit(small, shead, starget, Right::kRead).ok());
}

TEST(StressTest, DeepSccRecursionSafe) {
  // 200k-node path digraph: the iterative Tarjan must not overflow.
  constexpr size_t kN = 200000;
  std::vector<std::vector<VertexId>> adj(kN);
  for (size_t i = 0; i + 1 < kN; ++i) {
    adj[i].push_back(static_cast<VertexId>(i + 1));
  }
  auto comp = tg_hier::StronglyConnectedComponents(adj);
  EXPECT_EQ(comp.size(), kN);
  EXPECT_NE(comp[0], comp[kN - 1]);
}

TEST(StressTest, WideStarGraphAnalyses) {
  // One hub subject with 2000 spokes; everything should stay fast & sane.
  ProtectionGraph g;
  VertexId hub = g.AddSubject("hub");
  for (int i = 0; i < 2000; ++i) {
    VertexId spoke = g.AddObject();
    ASSERT_TRUE(g.AddExplicit(hub, spoke, tg::kReadWrite).ok());
  }
  EXPECT_TRUE(g.Validate().ok());
  tg_analysis::Islands islands(g);
  EXPECT_EQ(islands.Count(), 1u);
  auto knowable = tg_analysis::KnowableFrom(g, hub);
  size_t count = 0;
  for (bool b : knowable) {
    count += b ? 1 : 0;
  }
  EXPECT_EQ(count, g.VertexCount());  // hub reads every spoke
}

// ---- hybrid compressed rows vs dense engine, every path DFA ----

// The hybrid ReachRow engine must agree with the dense bit-parallel
// engine bit-for-bit for every language DFA the analyses use, at word
// boundary sizes (63/64/65/129) and at a four-digit size where multiple
// slices and container promotions occur.
TEST(StressTest, HybridRowsMatchDenseAcrossAllDfasAndSizes) {
  const struct {
    const char* name;
    const tg_util::Dfa* dfa;
  } kDfas[] = {
      {"terminal", &tg::TerminalSpanDfa()},
      {"initial", &tg::InitialSpanDfa()},
      {"bridge", &tg::BridgeDfa()},
      {"rw_terminal", &tg::RwTerminalSpanDfa()},
      {"rw_initial", &tg::RwInitialSpanDfa()},
      {"connection", &tg::ConnectionDfa()},
      {"admissible_rw", &tg::AdmissibleRwDfa()},
      {"bridge_or_connection", &tg::BridgeOrConnectionDfa()},
      {"rev_terminal", &tg::ReverseTerminalSpanDfa()},
      {"rev_initial", &tg::ReverseInitialSpanDfa()},
      {"rev_rw_terminal", &tg::ReverseRwTerminalSpanDfa()},
      {"rev_rw_initial", &tg::ReverseRwInitialSpanDfa()},
      {"grant_fwd_bridge", &tg::GrantFwdBridgeDfa()},
      {"grant_back_bridge", &tg::GrantBackBridgeDfa()},
      {"full_connection", &tg::FullConnectionDfa()},
  };
  tg_util::Prng prng(6060);
  for (size_t n : {size_t{63}, size_t{64}, size_t{65}, size_t{129}, size_t{1024}}) {
    tg_sim::RandomGraphOptions options;
    options.subjects = n * 2 / 3;
    options.objects = n - options.subjects;
    options.edge_factor = 1.5;
    ProtectionGraph g = tg_sim::RandomGraph(options, prng);
    ASSERT_EQ(g.VertexCount(), n);
    tg::AnalysisSnapshot snap(g);
    tg::SnapshotBfsOptions bfs;
    bfs.use_implicit = true;
    std::vector<VertexId> sources(n);
    for (size_t v = 0; v < n; ++v) {
      sources[v] = static_cast<VertexId>(v);
    }
    for (const auto& entry : kDfas) {
      tg::BitMatrix dense = tg::SnapshotWordReachableAll(snap, sources, *entry.dfa, bfs);
      std::vector<tg::ReachRow> rows =
          tg::SnapshotWordReachableAllRows(snap, sources, *entry.dfa, bfs);
      ASSERT_EQ(rows.size(), n) << entry.name << " n=" << n;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(rows[i].ToDenseWords(),
                  std::vector<uint64_t>(dense.Row(i).begin(), dense.Row(i).end()))
            << entry.name << " n=" << n << " row " << i;
      }
    }
  }
}

// Randomized generator graphs through the full audit engines: the sharded
// path must agree with the dense path on arbitrary (non-hierarchical)
// level assignments too.
TEST(StressTest, ShardedAuditMatchesDenseOnRandomGraphs) {
  tg_util::Prng prng(515151);
  for (int trial = 0; trial < 8; ++trial) {
    tg_sim::RandomGraphOptions options;
    options.subjects = 14;
    options.objects = 10;
    options.edge_factor = 1.8;
    ProtectionGraph g = tg_sim::RandomGraph(options, prng);
    // A random 3-level chain assignment over a random subset of vertices.
    tg_hier::LevelAssignment levels(g.VertexCount(), 3);
    for (tg_hier::LevelId a = 1; a < 3; ++a) {
      for (tg_hier::LevelId b = 0; b < a; ++b) {
        levels.DeclareHigher(a, b);
      }
    }
    for (VertexId v = 0; v < g.VertexCount(); ++v) {
      if (!prng.NextBool(0.2)) {
        levels.Assign(v, static_cast<tg_hier::LevelId>(prng.NextBelow(3)));
      }
    }
    ASSERT_TRUE(levels.Finalize());
    tg_hier::SecurityReport dense =
        tg_hier::CheckSecure(g, levels, 0, nullptr, tg_hier::AuditEngine::kDense);
    auto dense_ch = tg_hier::FindCrossLevelChannels(g, levels, 0, nullptr,
                                                    tg_hier::AuditEngine::kDense);
    // Both scaled engines — the level-sharded sweep and the per-word-type
    // bridge-enum decomposition — must match the dense reference exactly.
    for (tg_hier::AuditEngine engine :
         {tg_hier::AuditEngine::kSharded, tg_hier::AuditEngine::kBridgeEnum}) {
      const char* name = engine == tg_hier::AuditEngine::kSharded ? "sharded" : "bridge_enum";
      tg_hier::SecurityReport scaled = tg_hier::CheckSecure(g, levels, 0, nullptr, engine);
      ASSERT_EQ(dense.secure, scaled.secure) << name << " trial " << trial;
      ASSERT_EQ(dense.violations.size(), scaled.violations.size()) << name << " trial " << trial;
      for (size_t i = 0; i < dense.violations.size(); ++i) {
        EXPECT_EQ(dense.violations[i].lower, scaled.violations[i].lower)
            << name << " trial " << trial;
        EXPECT_EQ(dense.violations[i].higher, scaled.violations[i].higher)
            << name << " trial " << trial;
        EXPECT_EQ(dense.violations[i].detail, scaled.violations[i].detail)
            << name << " trial " << trial;
      }
      auto scaled_ch = tg_hier::FindCrossLevelChannels(g, levels, 0, nullptr, engine);
      ASSERT_EQ(dense_ch.size(), scaled_ch.size()) << name << " trial " << trial;
      for (size_t i = 0; i < dense_ch.size(); ++i) {
        EXPECT_EQ(dense_ch[i].from, scaled_ch[i].from) << name << " trial " << trial;
        EXPECT_EQ(dense_ch[i].to, scaled_ch[i].to) << name << " trial " << trial;
        EXPECT_EQ(dense_ch[i].path, scaled_ch[i].path) << name << " trial " << trial;
      }
    }
  }
}

TEST(StressTest, SaturationOnDenseRwClique) {
  // 14 subjects all reading each other: saturation must reach the full
  // clique of implicit edges and terminate.
  ProtectionGraph g;
  std::vector<VertexId> subjects;
  for (int i = 0; i < 14; ++i) {
    subjects.push_back(g.AddSubject());
  }
  for (VertexId a : subjects) {
    VertexId next = (a + 1) % static_cast<VertexId>(subjects.size());
    ASSERT_TRUE(g.AddExplicit(a, next, tg::kRead).ok());
  }
  ProtectionGraph saturated = tg_analysis::SaturateDeFacto(g);
  // Ring of reads among subjects: everyone ends up knowing everyone.
  for (VertexId a : subjects) {
    for (VertexId b : subjects) {
      if (a != b) {
        EXPECT_TRUE(tg_analysis::KnowEdgePresent(saturated, a, b));
      }
    }
  }
}

}  // namespace

// Cross-checks the observability layer against ground truth the engine
// already exposes: the global registry's cache counters must move in
// lockstep with AnalysisCache's own hit/miss accounting, and the BFS work
// counters must be deterministic across thread counts (per-run tallies are
// flushed once per drain, so totals are independent of scheduling).

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "src/take_grant.h"
#include "src/util/metrics.h"
#include "src/util/trace.h"

namespace {

using tg::ProtectionGraph;
using tg::VertexId;
using tg_util::MetricsRegistry;

uint64_t CounterNow(const char* name) {
  return MetricsRegistry::Instance().CounterValue(name);
}

class MetricsConsistencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = tg_util::MetricsEnabled();
    tg_util::SetMetricsEnabled(true);
  }
  void TearDown() override { tg_util::SetMetricsEnabled(was_enabled_); }

  bool was_enabled_ = true;
};

ProtectionGraph TestGraph(uint64_t seed) {
  tg_util::Prng prng(seed);
  tg_sim::RandomGraphOptions options;
  options.subjects = 12;
  options.objects = 8;
  options.edge_factor = 2.0;
  return tg_sim::RandomGraph(options, prng);
}

// The full can_know matrix (one KnowableMatrix row per vertex).
tg::BitMatrix KnowableRows(const ProtectionGraph& g, tg_util::ThreadPool* pool) {
  std::vector<VertexId> sources(g.VertexCount());
  for (VertexId v = 0; v < g.VertexCount(); ++v) {
    sources[v] = v;
  }
  return tg_analysis::KnowableMatrix(tg::AnalysisSnapshot(g), sources, pool);
}

TEST_F(MetricsConsistencyTest, RegistryCacheCountersMatchAnalysisCache) {
  ProtectionGraph g = TestGraph(91);
  tg_analysis::AnalysisCache cache;
  const uint64_t hits_before = CounterNow("cache.hits");
  const uint64_t misses_before = CounterNow("cache.misses");

  // A mixed query/mutate sequence: repeated rows (hits), new rows (misses),
  // and a mutation that invalidates everything.
  for (VertexId x = 0; x < 6; ++x) {
    cache.Knowable(g, x);
  }
  for (VertexId x = 0; x < 6; ++x) {
    cache.Knowable(g, x);
    cache.CanKnow(g, x, (x + 1) % 6);
  }
  ASSERT_TRUE(g.AddExplicit(0, 1, tg::RightSet::Of({tg::Right::kRead})).ok());
  for (VertexId x = 0; x < 4; ++x) {
    cache.Knowable(g, x);
  }

  EXPECT_GT(cache.hits(), 0u);
  EXPECT_GT(cache.misses(), 0u);
  EXPECT_EQ(CounterNow("cache.hits") - hits_before, cache.hits());
  EXPECT_EQ(CounterNow("cache.misses") - misses_before, cache.misses());
}

// KnowableMatrix runs on the bit-parallel engine; its rows and slice
// tallies must be identical for any thread count (fixed 64-source slices,
// each single-threaded — see src/tg/bitset_reach.h).
TEST_F(MetricsConsistencyTest, BitReachWorkIsDeterministicAcrossThreadCounts) {
  for (uint64_t seed : {uint64_t{7}, uint64_t{23}, uint64_t{101}}) {
    ProtectionGraph g = TestGraph(seed);

    tg_util::ThreadPool one(1);
    const uint64_t slices_before_1 = CounterNow("bitreach.slices");
    const uint64_t waves_before_1 = CounterNow("bitreach.waves");
    const uint64_t ops_before_1 = CounterNow("bitreach.word_ops");
    const uint64_t visits_before_1 = CounterNow("bitreach.lane_visits");
    const uint64_t scans_before_1 = CounterNow("bitreach.lane_edge_scans");
    tg::BitMatrix rows_1 = KnowableRows(g, &one);
    const uint64_t slices_1 = CounterNow("bitreach.slices") - slices_before_1;
    const uint64_t waves_1 = CounterNow("bitreach.waves") - waves_before_1;
    const uint64_t ops_1 = CounterNow("bitreach.word_ops") - ops_before_1;
    const uint64_t visits_1 = CounterNow("bitreach.lane_visits") - visits_before_1;
    const uint64_t scans_1 = CounterNow("bitreach.lane_edge_scans") - scans_before_1;

    tg_util::ThreadPool four(4);
    const uint64_t slices_before_4 = CounterNow("bitreach.slices");
    const uint64_t waves_before_4 = CounterNow("bitreach.waves");
    const uint64_t ops_before_4 = CounterNow("bitreach.word_ops");
    const uint64_t visits_before_4 = CounterNow("bitreach.lane_visits");
    const uint64_t scans_before_4 = CounterNow("bitreach.lane_edge_scans");
    tg::BitMatrix rows_4 = KnowableRows(g, &four);
    const uint64_t slices_4 = CounterNow("bitreach.slices") - slices_before_4;
    const uint64_t waves_4 = CounterNow("bitreach.waves") - waves_before_4;
    const uint64_t ops_4 = CounterNow("bitreach.word_ops") - ops_before_4;
    const uint64_t visits_4 = CounterNow("bitreach.lane_visits") - visits_before_4;
    const uint64_t scans_4 = CounterNow("bitreach.lane_edge_scans") - scans_before_4;

    EXPECT_EQ(rows_1, rows_4) << "seed " << seed;
    EXPECT_GT(slices_1, 0u) << "seed " << seed;
    EXPECT_GT(visits_1, 0u) << "seed " << seed;
    EXPECT_EQ(slices_1, slices_4) << "seed " << seed;
    EXPECT_EQ(waves_1, waves_4) << "seed " << seed;
    EXPECT_EQ(ops_1, ops_4) << "seed " << seed;
    EXPECT_EQ(visits_1, visits_4) << "seed " << seed;
    EXPECT_EQ(scans_1, scans_4) << "seed " << seed;
  }
}

// The per-pop tallies of the bit engine (popcount of the popped word, and
// popcount * |adj|) must sum to exactly what the scalar engine counts as
// node visits / edge scans for the same sources, one at a time.
TEST_F(MetricsConsistencyTest, BitReachLaneTalliesMatchScalarTotals) {
  for (uint64_t seed : {uint64_t{3}, uint64_t{57}}) {
    ProtectionGraph g = TestGraph(seed);
    tg::AnalysisSnapshot snap(g);
    tg::SnapshotBfsOptions options;
    options.use_implicit = true;
    const tg_util::Dfa& dfa = tg::BridgeOrConnectionDfa();

    const uint64_t visits_before = CounterNow("bfs.node_visits");
    const uint64_t scans_before = CounterNow("bfs.edge_scans");
    for (VertexId v = 0; v < g.VertexCount(); ++v) {
      const VertexId sources[] = {v};
      SnapshotWordReachable(snap, sources, dfa, options);
    }
    const uint64_t scalar_visits = CounterNow("bfs.node_visits") - visits_before;
    const uint64_t scalar_scans = CounterNow("bfs.edge_scans") - scans_before;

    const uint64_t lane_visits_before = CounterNow("bitreach.lane_visits");
    const uint64_t lane_scans_before = CounterNow("bitreach.lane_edge_scans");
    tg::SnapshotWordReachableAll(snap, dfa, options);
    const uint64_t lane_visits = CounterNow("bitreach.lane_visits") - lane_visits_before;
    const uint64_t lane_scans = CounterNow("bitreach.lane_edge_scans") - lane_scans_before;

    EXPECT_GT(scalar_visits, 0u) << "seed " << seed;
    EXPECT_EQ(lane_visits, scalar_visits) << "seed " << seed;
    EXPECT_EQ(lane_scans, scalar_scans) << "seed " << seed;
  }
}

// The cache-threaded audit path (levels + security check + channel scan
// against one cache) must build exactly one snapshot for an unchanged
// graph — the regression this guards is each analysis quietly rebuilding
// its own.
TEST_F(MetricsConsistencyTest, CacheThreadedAuditBuildsOneSnapshot) {
  ProtectionGraph g = TestGraph(17);
  tg_analysis::AnalysisCache cache;
  const uint64_t builds_before = CounterNow("snapshot.builds");
  tg_hier::LevelAssignment levels = tg_hier::ComputeRwtgLevels(g, cache);
  tg_hier::SecurityReport report = tg_hier::CheckSecure(g, levels, cache);
  auto channels = tg_hier::FindCrossLevelChannels(g, levels, cache);
  tg_hier::LevelAssignment again = tg_hier::ComputeRwtgLevels(g, cache);
  EXPECT_EQ(CounterNow("snapshot.builds") - builds_before, 1u);
  // Computed levels are self-consistently secure, so the (snapshot-free)
  // witness reconstruction never ran; sanity-check that claim.
  EXPECT_TRUE(report.secure);
  EXPECT_TRUE(channels.empty());
}

TEST_F(MetricsConsistencyTest, QueriesLeaveTraceSpans) {
  ProtectionGraph g = TestGraph(5);
  tg_util::TraceBuffer::Instance().Clear();
  tg_analysis::AnalysisCache cache;
  cache.Knowable(g, 0);
  bool saw_rebuild = false;
  bool saw_bfs = false;
  for (const tg_util::TraceEvent& e : tg_util::TraceBuffer::Instance().Events()) {
    saw_rebuild |= e.kind == tg_util::TraceKind::kCacheRebuild;
    saw_bfs |= e.kind == tg_util::TraceKind::kProductBfs;
  }
  EXPECT_TRUE(saw_rebuild);
  EXPECT_TRUE(saw_bfs);

  tg_util::TraceBuffer::Instance().Clear();
  tg_hier::ComputeRwtgLevels(g, cache);
  bool saw_bitreach = false;
  for (const tg_util::TraceEvent& e : tg_util::TraceBuffer::Instance().Events()) {
    saw_bitreach |= e.kind == tg_util::TraceKind::kBitReach;
  }
  EXPECT_TRUE(saw_bitreach);
}

// Causal identity: every span recorded during one CheckSecure call — the
// query root, the nested knowable/batch query scopes, and the leaf BFS /
// bit-reach records from pool workers — must carry the same query id for
// any thread count, and the parent links must form a single rooted tree
// (exactly one root, every parent resolvable, no cycles).
TEST_F(MetricsConsistencyTest, CheckSecureSpansShareOneQueryIdAndFormOneTree) {
  ProtectionGraph g = TestGraph(29);
  tg_hier::LevelAssignment levels = tg_hier::ComputeRwtgLevels(g);

  for (size_t threads : {size_t{1}, size_t{4}}) {
    tg_util::ThreadPool pool(threads);
    tg_util::TraceBuffer::Instance().Clear();
    tg_hier::SecurityReport report = tg_hier::CheckSecure(g, levels, 0, &pool);
    (void)report;

    std::vector<tg_util::TraceEvent> events = tg_util::TraceBuffer::Instance().Events();
    ASSERT_FALSE(events.empty()) << "threads=" << threads;

    const uint64_t query_id = events.front().query_id;
    EXPECT_NE(query_id, 0u) << "threads=" << threads;
    std::map<uint64_t, const tg_util::TraceEvent*> by_span;
    size_t roots = 0;
    for (const tg_util::TraceEvent& e : events) {
      EXPECT_EQ(e.query_id, query_id)
          << "threads=" << threads << " span " << e.span_id << " ("
          << tg_util::TraceKindName(e.kind) << ") escaped the query";
      ASSERT_NE(e.span_id, 0u);
      by_span[e.span_id] = &e;
      if (e.parent_span == 0) {
        ++roots;
        EXPECT_EQ(e.kind, tg_util::TraceKind::kQuery) << "threads=" << threads;
      }
    }
    EXPECT_EQ(roots, 1u) << "threads=" << threads;
    ASSERT_EQ(by_span.size(), events.size()) << "span ids must be unique";

    // Every non-root parent resolves, and every parent chain terminates at
    // the root (bounded walk = no cycles).
    for (const tg_util::TraceEvent& e : events) {
      uint64_t cursor = e.span_id;
      size_t steps = 0;
      while (by_span.at(cursor)->parent_span != 0) {
        uint64_t parent = by_span.at(cursor)->parent_span;
        ASSERT_TRUE(by_span.count(parent))
            << "threads=" << threads << " span " << cursor << " has unknown parent " << parent;
        cursor = parent;
        ASSERT_LT(++steps, events.size()) << "parent chain cycle at span " << e.span_id;
      }
    }
  }
}

// The condensation-first engines keep their work counters thread-count-
// invariant: quotient census (components / quotient edges / closure rows),
// shard sweeps (shards / dirty / stage visits / edge scans / closure
// rounds), and the hybrid-row container census (sparse / dense hits) are
// all per-shard- or per-row-deterministic sums.
TEST_F(MetricsConsistencyTest, CondensationCountersDeterministicAcrossThreadCounts) {
  const char* kNames[] = {
      "condense.components",  "condense.quotient_edges",   "condense.closure_rows",
      "condense.shards",      "condense.shards_dirty",     "condense.stage_visits",
      "condense.stage_edge_scans", "condense.closure_rounds",
      "row.sparse_hits",      "row.dense_hits",
  };
  tg_util::Prng prng(404);
  tg_sim::HierarchicalGraphOptions options;
  options.levels = 3;
  options.clusters_per_level = 2;
  options.subjects_per_cluster = 5;
  options.objects_per_cluster = 2;
  options.planted_channels = 2;
  tg_sim::GeneratedHierarchy h = tg_sim::HierarchicalGraph(options, prng);

  auto run = [&](size_t threads) {
    std::map<std::string, uint64_t> before;
    for (const char* name : kNames) {
      before[name] = CounterNow(name);
    }
    tg_util::ThreadPool pool(threads);
    tg_hier::SecurityReport report =
        tg_hier::CheckSecure(h.graph, h.levels, 0, &pool, tg_hier::AuditEngine::kSharded);
    (void)report;
    auto channels = tg_hier::FindCrossLevelChannels(h.graph, h.levels, 0, &pool,
                                                    tg_hier::AuditEngine::kSharded);
    (void)channels;
    tg_hier::LevelAssignment levels = tg_hier::ComputeRwtgLevels(h.graph, &pool);
    (void)levels;
    tg::BitMatrix rows = KnowableRows(h.graph, &pool);
    (void)rows;
    std::map<std::string, uint64_t> delta;
    for (const char* name : kNames) {
      delta[name] = CounterNow(name) - before[name];
    }
    return delta;
  };

  const std::map<std::string, uint64_t> one = run(1);
  const std::map<std::string, uint64_t> four = run(4);
  EXPECT_EQ(one, four);
  EXPECT_GT(one.at("condense.shards"), 0u);
  EXPECT_GT(one.at("condense.shards_dirty"), 0u);  // planted channels dirty a shard
  EXPECT_GT(one.at("condense.stage_visits"), 0u);
  EXPECT_GT(one.at("condense.components"), 0u);
  EXPECT_GT(one.at("row.sparse_hits") + one.at("row.dense_hits"), 0u);
}

// The bridge-enum engine's work tallies — segment closure rows, pivot
// adjacency scans, typed channels emitted — are per-index sums of
// deterministic values (the build is serial, emission is scan-ordered), so
// they must be identical for any thread count.
TEST_F(MetricsConsistencyTest, BridgeEnumCountersDeterministicAcrossThreadCounts) {
  const char* kNames[] = {
      "bridge_enum.segment_closures",
      "bridge_enum.pivot_scans",
      "bridge_enum.channels_emitted",
  };
  tg_util::Prng prng(404);
  tg_sim::HierarchicalGraphOptions options;
  options.levels = 3;
  options.clusters_per_level = 2;
  options.subjects_per_cluster = 5;
  options.objects_per_cluster = 2;
  options.planted_channels = 2;
  tg_sim::GeneratedHierarchy h = tg_sim::HierarchicalGraph(options, prng);

  auto run = [&](size_t threads) {
    std::map<std::string, uint64_t> before;
    for (const char* name : kNames) {
      before[name] = CounterNow(name);
    }
    tg_util::ThreadPool pool(threads);
    tg_hier::SecurityReport report =
        tg_hier::CheckSecure(h.graph, h.levels, 0, &pool, tg_hier::AuditEngine::kBridgeEnum);
    (void)report;
    auto channels = tg_hier::FindCrossLevelChannels(h.graph, h.levels, 0, &pool,
                                                    tg_hier::AuditEngine::kBridgeEnum);
    (void)channels;
    auto typed = tg_hier::FindTypedCrossLevelChannels(h.graph, h.levels);
    (void)typed;
    std::map<std::string, uint64_t> delta;
    for (const char* name : kNames) {
      delta[name] = CounterNow(name) - before[name];
    }
    return delta;
  };

  const std::map<std::string, uint64_t> one = run(1);
  const std::map<std::string, uint64_t> four = run(4);
  EXPECT_EQ(one, four);
  EXPECT_GT(one.at("bridge_enum.segment_closures"), 0u);
  EXPECT_GT(one.at("bridge_enum.pivot_scans"), 0u);
  EXPECT_GT(one.at("bridge_enum.channels_emitted"), 0u);  // planted channels get typed
}

// The cache-threaded bridge-enum audit builds exactly one snapshot for an
// unchanged secure graph, like the other engines (the index itself hangs
// off the shared snapshot, not a private rebuild); and on an insecure
// graph it adds no builds beyond dense — the only per-witness builds are
// FindWordPath's own, identical across engines.
TEST_F(MetricsConsistencyTest, BridgeEnumAuditBuildsOneSnapshot) {
  tg_util::Prng prng(505);
  tg_sim::HierarchicalGraphOptions options;
  options.levels = 3;
  options.clusters_per_level = 2;
  options.subjects_per_cluster = 5;
  options.objects_per_cluster = 2;
  tg_sim::GeneratedHierarchy secure_h = tg_sim::HierarchicalGraph(options, prng);
  {
    tg_analysis::AnalysisCache cache;
    const uint64_t builds_before = CounterNow("snapshot.builds");
    tg_hier::SecurityReport report = tg_hier::CheckSecure(
        secure_h.graph, secure_h.levels, cache, 0, nullptr, tg_hier::AuditEngine::kBridgeEnum);
    auto channels = tg_hier::FindCrossLevelChannels(secure_h.graph, secure_h.levels, cache, 0,
                                                    nullptr, tg_hier::AuditEngine::kBridgeEnum);
    auto typed = tg_hier::FindTypedCrossLevelChannels(secure_h.graph, secure_h.levels, cache);
    EXPECT_EQ(CounterNow("snapshot.builds") - builds_before, 1u);
    EXPECT_TRUE(report.secure);
    EXPECT_TRUE(channels.empty());
    EXPECT_TRUE(typed.empty());
  }
  options.planted_channels = 2;
  tg_sim::GeneratedHierarchy leaky = tg_sim::HierarchicalGraph(options, prng);
  auto builds_for = [&](tg_hier::AuditEngine engine) {
    tg_analysis::AnalysisCache cache;
    const uint64_t before = CounterNow("snapshot.builds");
    tg_hier::SecurityReport report =
        tg_hier::CheckSecure(leaky.graph, leaky.levels, cache, 0, nullptr, engine);
    EXPECT_FALSE(report.secure);
    auto channels =
        tg_hier::FindCrossLevelChannels(leaky.graph, leaky.levels, cache, 0, nullptr, engine);
    EXPECT_FALSE(channels.empty());
    return CounterNow("snapshot.builds") - before;
  };
  EXPECT_EQ(builds_for(tg_hier::AuditEngine::kBridgeEnum),
            builds_for(tg_hier::AuditEngine::kDense));
}

// The bridge-enum audit leaves its own span kind in the trace ring.
TEST_F(MetricsConsistencyTest, BridgeEnumAuditLeavesBridgeEnumSpans) {
  tg_util::Prng prng(808);
  tg_sim::HierarchicalGraphOptions options;
  options.levels = 3;
  options.clusters_per_level = 2;
  options.subjects_per_cluster = 4;
  options.objects_per_cluster = 2;
  tg_sim::GeneratedHierarchy h = tg_sim::HierarchicalGraph(options, prng);
  tg_util::TraceBuffer::Instance().Clear();
  tg_hier::SecurityReport report =
      tg_hier::CheckSecure(h.graph, h.levels, 0, nullptr, tg_hier::AuditEngine::kBridgeEnum);
  (void)report;
  bool saw_bridge_enum = false;
  for (const tg_util::TraceEvent& e : tg_util::TraceBuffer::Instance().Events()) {
    saw_bridge_enum |= e.kind == tg_util::TraceKind::kBridgeEnum;
  }
  EXPECT_TRUE(saw_bridge_enum);
}

// The sharded audit leaves its own span kinds in the trace ring.
TEST_F(MetricsConsistencyTest, ShardedAuditLeavesCondenseAndShardSpans) {
  tg_util::Prng prng(808);
  tg_sim::HierarchicalGraphOptions options;
  options.levels = 3;
  options.clusters_per_level = 2;
  options.subjects_per_cluster = 4;
  options.objects_per_cluster = 2;
  tg_sim::GeneratedHierarchy h = tg_sim::HierarchicalGraph(options, prng);
  tg_util::TraceBuffer::Instance().Clear();
  tg_hier::SecurityReport report =
      tg_hier::CheckSecure(h.graph, h.levels, 0, nullptr, tg_hier::AuditEngine::kSharded);
  (void)report;
  tg_hier::LevelAssignment levels = tg_hier::ComputeRwtgLevels(h.graph);
  (void)levels;
  bool saw_shard_audit = false;
  bool saw_condense = false;
  for (const tg_util::TraceEvent& e : tg_util::TraceBuffer::Instance().Events()) {
    saw_shard_audit |= e.kind == tg_util::TraceKind::kShardAudit;
    saw_condense |= e.kind == tg_util::TraceKind::kCondense;
  }
  EXPECT_TRUE(saw_shard_audit);
  EXPECT_TRUE(saw_condense);
}

TEST_F(MetricsConsistencyTest, MonitorCountersMatchAuditLog) {
  ProtectionGraph g;
  VertexId a = g.AddVertex(tg::VertexKind::kSubject, "a");
  VertexId b = g.AddVertex(tg::VertexKind::kSubject, "b");
  VertexId c = g.AddVertex(tg::VertexKind::kObject, "c");
  ASSERT_TRUE(g.AddExplicit(a, b, tg::RightSet::Of({tg::Right::kTake})).ok());
  ASSERT_TRUE(g.AddExplicit(b, c, tg::RightSet::Of({tg::Right::kRead})).ok());

  const uint64_t requests_before = CounterNow("monitor.requests");
  const uint64_t allowed_before = CounterNow("monitor.allowed");
  tg_sim::ReferenceMonitor monitor(std::move(g), nullptr);
  // One legal take, one malformed request (self-take).
  auto ok =
      monitor.Submit(tg::RuleApplication::Take(a, b, c, tg::RightSet::Of({tg::Right::kRead})));
  EXPECT_TRUE(ok.ok());
  auto bad =
      monitor.Submit(tg::RuleApplication::Take(a, a, a, tg::RightSet::Of({tg::Right::kRead})));
  EXPECT_FALSE(bad.ok());

  EXPECT_EQ(CounterNow("monitor.requests") - requests_before, 2u);
  EXPECT_EQ(CounterNow("monitor.allowed") - allowed_before, monitor.allowed_count());
  EXPECT_EQ(monitor.allowed_count(), 1u);
}

// The admission gate's counters are writer-side-deterministic: a fixed
// transactional workload produces identical admission.* deltas whether one
// or four concurrent readers hammer epoch-pinned graph copies while the
// writer commits — and the pinned copies never observe a partial write
// (their epoch and contents are bit-stable for the whole run).
TEST_F(MetricsConsistencyTest, AdmissionCountersInvariantAcrossReaderThreadCounts) {
  const char* kNames[] = {
      "admission.requests",       "admission.accepted",      "admission.vetoed",
      "admission.rejected",       "admission.txns_begun",    "admission.txns_committed",
      "admission.txns_aborted",   "admission.state_repairs", "admission.state_rebuilds",
      "admission.journal_records_replayed",
  };

  auto run = [&](size_t readers) {
    tg_util::Prng prng(606);
    tg_sim::HierarchicalGraphOptions options;
    options.levels = 2;
    options.clusters_per_level = 1;
    options.subjects_per_cluster = 4;
    options.objects_per_cluster = 2;
    options.planted_channels = 2;  // the stream must exercise vetoes too
    tg_sim::GeneratedHierarchy h = tg_sim::HierarchicalGraph(options, prng);

    std::map<std::string, uint64_t> before;
    for (const char* name : kNames) {
      before[name] = CounterNow(name);
    }

    tg_hier::AdmissionGate::Options gate_options;
    gate_options.abort_txn_on_veto = false;  // vetoes must not derail the stream
    auto gate = tg_hier::AdmissionGate::Create(h.graph, h.levels, gate_options);

    // Readers pin the pre-workload graph by value and query it while the
    // writer commits; every answer and the pin itself must stay identical.
    const ProtectionGraph pin = gate->graph();
    const uint64_t pin_epoch = pin.epoch();
    std::vector<std::thread> pool;
    std::vector<int> reader_failures(readers, 0);
    for (size_t r = 0; r < readers; ++r) {
      pool.emplace_back([&pin, pin_epoch, r, &reader_failures] {
        ProtectionGraph mine = pin;  // reader-local epoch-pinned copy
        const std::vector<bool> baseline = tg_analysis::KnowableFrom(mine, 0);
        for (int iter = 0; iter < 30; ++iter) {
          if (mine.epoch() != pin_epoch ||
              tg_analysis::KnowableFrom(mine, 0) != baseline || !(mine == pin)) {
            ++reader_failures[r];
          }
        }
      });
    }

    // Writer: four transactional batches over the enumerated legal rules
    // (commits and vetoes interleaved), then one malformed autocommit.
    for (int batch = 0; batch < 4; ++batch) {
      std::vector<tg::RuleApplication> rules = tg::EnumerateDeJure(gate->graph());
      gate->Begin();
      for (size_t i = 0; i < rules.size() && i < 6; ++i) {
        gate->Submit(rules[i]);
      }
      auto result = gate->Commit();
      EXPECT_TRUE(result.ok()) << "batch " << batch;
    }
    auto rejected = gate->Admit(
        tg::RuleApplication::Take(0, 0, 0, tg::RightSet::Of({tg::Right::kRead})));
    EXPECT_EQ(rejected.outcome, tg_hier::AdmissionOutcome::kRejected);

    for (std::thread& t : pool) {
      t.join();
    }
    for (size_t r = 0; r < readers; ++r) {
      EXPECT_EQ(reader_failures[r], 0)
          << "reader " << r << " of " << readers << " saw a partial write";
    }

    std::map<std::string, uint64_t> delta;
    for (const char* name : kNames) {
      delta[name] = CounterNow(name) - before[name];
    }
    // The registry deltas must agree with the gate's own ledgers.
    EXPECT_EQ(delta.at("admission.accepted"), gate->accepted_count());
    EXPECT_EQ(delta.at("admission.vetoed"), gate->vetoed_count());
    EXPECT_EQ(delta.at("admission.rejected"), gate->rejected_count());
    EXPECT_EQ(delta.at("admission.txns_committed"), gate->txns_committed());
    EXPECT_EQ(delta.at("admission.txns_aborted"), gate->txns_aborted());
    EXPECT_EQ(delta.at("admission.state_repairs"), gate->state_repairs());
    EXPECT_EQ(delta.at("admission.state_rebuilds"), gate->state_rebuilds());
    return delta;
  };

  const std::map<std::string, uint64_t> one = run(1);
  const std::map<std::string, uint64_t> four = run(4);
  EXPECT_EQ(one, four);
  EXPECT_GT(one.at("admission.accepted"), 0u);
  EXPECT_GT(one.at("admission.vetoed"), 0u);  // planted channels draw vetoes
  EXPECT_EQ(one.at("admission.rejected"), 1u);
  EXPECT_EQ(one.at("admission.txns_begun"), 4u);
  EXPECT_EQ(one.at("admission.txns_committed"), 4u);
}

}  // namespace

// Security of hierarchical protection graphs (section 5).
//
// A graph is *secure* for a level assignment when no vertex can come to
// know information belonging to a strictly higher level, no matter what
// finite rule derivation its (possibly all-corrupt) subjects perform:
//
//     for all x, y with level(x) < level(y):  can_know(x, y, G) is false.
//
// Theorem 5.2 characterizes security structurally: it holds exactly when no
// bridge and no connection crosses from one rwtg-level toward a higher one.
// CheckSecure decides the definition via the can_know machinery; the
// cross-level scan (FindCrossLevelChannels) implements the structural side
// so the two can be compared experimentally.

#ifndef SRC_HIERARCHY_SECURE_H_
#define SRC_HIERARCHY_SECURE_H_

#include <string>
#include <vector>

#include "src/analysis/bridge_enum.h"
#include "src/hierarchy/levels.h"
#include "src/tg/graph.h"
#include "src/util/thread_pool.h"

namespace tg_hier {

struct SecurityViolation {
  tg::VertexId lower = tg::kInvalidVertex;   // the vertex that learns too much
  tg::VertexId higher = tg::kInvalidVertex;  // the vertex whose info leaks
  std::string detail;
};

struct SecurityReport {
  bool secure = true;
  std::vector<SecurityViolation> violations;
};

// Which reachability engine the audit runs on.  kDense is the PR-3 path:
// one knowable / BOC row per candidate from the bit-parallel matrix
// pipeline.  kSharded is the condensation-first path: candidates shard by
// rwtg-level, each shard computes ONE multi-source summary per pipeline
// stage (src/hierarchy/shard_audit.h), and only dirty shards expand to
// per-candidate rows — identical reports (contents, order, cutoff), but
// O(levels) sweeps instead of O(candidates) rows on clean hierarchies,
// which is what scales past the dense matrix allocation cap.  kBridgeEnum
// is the bridge-first path: one tg_analysis::BridgeEnumIndex (take
// condensation + per-word-type segment closures) replaces every product
// sweep; shard summaries and dirty-shard per-row expansion come from row
// ORs over the shared index, so nothing is rebuilt per shard or per
// source.  All three produce bit-identical reports and channel lists.
//
// kAuto (ResolveAuditEngine): kDense below kShardedAuditMinVertices
// vertices or under two levels; at scale, kBridgeEnum when the explicit
// cross-level take/grant pivot density is low (the planted-channel regime,
// where the word-type factorization collapses the work) and kSharded when
// pivots are dense enough that the shared product sweeps win.
enum class AuditEngine { kAuto, kDense, kSharded, kBridgeEnum };

// The kAuto selection rule, exposed so callers (and tests) can see which
// engine an audit will run on.  Returns `requested` unchanged unless it is
// kAuto.  The density flip: at or past the sharded scale threshold, count
// explicit take/grant edges between differently-leveled assigned vertices
// (exactly the generator's planted channels); at most max(16, n / 256) of
// them picks kBridgeEnum, more picks kSharded.
AuditEngine ResolveAuditEngine(const tg::ProtectionGraph& g, const LevelAssignment& assignment,
                               AuditEngine requested = AuditEngine::kAuto);

// Decides the security definition for an explicit level assignment:
// for every ordered pair with level(lower) < level(higher), can_know(lower,
// higher) must be false.  Unassigned vertices are unconstrained.
// `max_violations` bounds the report size (0 = report all).
//
// The per-vertex knowable rows are computed on `pool` (nullptr = the shared
// pool); the report — contents, order, and the max_violations cutoff — is
// identical to the serial scan for any thread count.
SecurityReport CheckSecure(const tg::ProtectionGraph& g, const LevelAssignment& assignment,
                           size_t max_violations = 0, tg_util::ThreadPool* pool = nullptr,
                           AuditEngine engine = AuditEngine::kAuto);

// Cache-aware overload: runs the same audit on the cache's overlay-patched
// snapshot instead of building one, so an audit that also computes levels
// and channels through the same cache does one snapshot build total.  No
// audit rows are memoized.  Identical report.
SecurityReport CheckSecure(const tg::ProtectionGraph& g, const LevelAssignment& assignment,
                           tg_analysis::AnalysisCache& cache, size_t max_violations = 0,
                           tg_util::ThreadPool* pool = nullptr,
                           AuditEngine engine = AuditEngine::kAuto);

// One cross-level information channel (Theorem 5.2's structural witness):
// a bridge-or-connection path from a subject in one level to a subject in a
// different, comparable level that would let information flow downward.
struct CrossLevelChannel {
  tg::VertexId from = tg::kInvalidVertex;  // lower-level subject
  tg::VertexId to = tg::kInvalidVertex;    // higher-level subject
  std::string path;                        // rendered witness path
};

// Scans for bridge-or-connection paths from lower-level subjects to
// higher-level subjects (the structural condition of Theorem 5.2).
// Reachability fans out over `pool`; witness paths are rendered serially in
// scan order, so the channel list is deterministic for any thread count.
std::vector<CrossLevelChannel> FindCrossLevelChannels(const tg::ProtectionGraph& g,
                                                      const LevelAssignment& assignment,
                                                      size_t max_channels = 0,
                                                      tg_util::ThreadPool* pool = nullptr,
                                                      AuditEngine engine = AuditEngine::kAuto);

// Cache-aware overload: runs the same scan on the cache's snapshot.
// Identical channel list.
std::vector<CrossLevelChannel> FindCrossLevelChannels(const tg::ProtectionGraph& g,
                                                      const LevelAssignment& assignment,
                                                      tg_analysis::AnalysisCache& cache,
                                                      size_t max_channels = 0,
                                                      tg_util::ThreadPool* pool = nullptr,
                                                      AuditEngine engine = AuditEngine::kAuto);

// Theorem 5.2, decided structurally: secure iff FindCrossLevelChannels
// returns nothing.
bool SecureByTheorem52(const tg::ProtectionGraph& g, const LevelAssignment& assignment);

// A cross-level channel with its full bridge-enum explanation attached:
// the word type that carries it, the pivot edge, a replay-verified witness
// path, and the endpoint levels.
struct TypedCrossLevelChannel {
  tg_analysis::TypedChannel channel;
  LevelId from_level = kNoLevel;
  LevelId to_level = kNoLevel;
};

// The typed counterpart of FindCrossLevelChannels: same (from, to) pairs in
// the same order and under the same max_channels cutoff, but each channel
// is a tg_analysis::BridgeEnumIndex::DescribeChannel record instead of a
// rendered union-language path.  Always runs on the bridge-enum engine
// (typing is what that engine exists for).
std::vector<TypedCrossLevelChannel> FindTypedCrossLevelChannels(
    const tg::ProtectionGraph& g, const LevelAssignment& assignment, size_t max_channels = 0);

// Cache-aware overload: reuses the cache's overlay-patched snapshot.
std::vector<TypedCrossLevelChannel> FindTypedCrossLevelChannels(
    const tg::ProtectionGraph& g, const LevelAssignment& assignment,
    tg_analysis::AnalysisCache& cache, size_t max_channels = 0);

}  // namespace tg_hier

#endif  // SRC_HIERARCHY_SECURE_H_

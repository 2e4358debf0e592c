#include "src/hierarchy/secure.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "src/analysis/batch.h"
#include "src/analysis/can_know.h"
#include "src/hierarchy/shard_audit.h"
#include "src/tg/bitset_reach.h"
#include "src/tg/languages.h"
#include "src/tg/path.h"
#include "src/tg/snapshot.h"
#include "src/util/trace.h"

namespace tg_hier {

using tg::ProtectionGraph;
using tg::VertexId;

namespace {

// Phase 1 of CheckSecure: assigned vertices with at least one
// strictly-higher assigned vertex.  Everything else is vacuously fine.
// "Some assigned vertex sits strictly higher than x" only depends on x's
// level, so one O(n) occupancy pass + an O(L^2) level scan replaces the
// old O(n^2) pairwise loop — same candidates, same (ascending) order.
std::vector<VertexId> SecureCandidates(const ProtectionGraph& g,
                                       const LevelAssignment& assignment) {
  const size_t n = g.VertexCount();
  const size_t level_count = assignment.LevelCount();
  std::vector<bool> occupied(level_count, false);
  for (VertexId v = 0; v < n; ++v) {
    const LevelId level = assignment.LevelOf(v);
    if (level != kNoLevel) {
      occupied[level] = true;
    }
  }
  std::vector<bool> has_higher(level_count, false);
  for (LevelId low = 0; low < level_count; ++low) {
    for (LevelId high = 0; high < level_count; ++high) {
      if (occupied[high] && assignment.Higher(high, low)) {
        has_higher[low] = true;
        break;
      }
    }
  }
  std::vector<VertexId> candidates;
  for (VertexId x = 0; x < n; ++x) {
    const LevelId level = assignment.LevelOf(x);
    if (level != kNoLevel && has_higher[level]) {
      candidates.push_back(x);
    }
  }
  return candidates;
}

// Explicit take/grant edges between differently-leveled assigned vertices
// — exactly the pivot edges a planted cross-level channel needs, so their
// count is the kAuto density signal.
size_t CrossLevelPivotEdges(const ProtectionGraph& g, const LevelAssignment& assignment) {
  size_t count = 0;
  g.ForEachEdge([&](const tg::Edge& edge) {
    if (!edge.explicit_rights.Has(tg::Right::kTake) &&
        !edge.explicit_rights.Has(tg::Right::kGrant)) {
      return;
    }
    const LevelId src_level = assignment.LevelOf(edge.src);
    const LevelId dst_level = assignment.LevelOf(edge.dst);
    if (src_level != kNoLevel && dst_level != kNoLevel && src_level != dst_level) {
      ++count;
    }
  });
  return count;
}

// Phase 3 of CheckSecure (serial, in candidate order): emit violations
// exactly as the serial loop would, including the max_violations cutoff.
// knows(i, y) reads candidate i's knowable row.
template <typename Knows>
SecurityReport EmitViolations(const ProtectionGraph& g, const LevelAssignment& assignment,
                              const std::vector<VertexId>& candidates, const Knows& knows,
                              size_t max_violations) {
  SecurityReport report;
  const size_t n = g.VertexCount();
  for (size_t i = 0; i < candidates.size(); ++i) {
    VertexId x = candidates[i];
    for (VertexId y = 0; y < n; ++y) {
      if (!knows(i, y) || !assignment.HigherVertex(y, x)) {
        continue;
      }
      report.secure = false;
      report.violations.push_back(SecurityViolation{
          x, y,
          g.NameOf(x) + " (level " + assignment.LevelName(assignment.LevelOf(x)) +
              ") can come to know " + g.NameOf(y) + " (level " +
              assignment.LevelName(assignment.LevelOf(y)) + ")"});
      if (max_violations != 0 && report.violations.size() >= max_violations) {
        return report;
      }
    }
  }
  return report;
}

// Sources of the Theorem 5.2 scan: assigned subjects.
std::vector<VertexId> ChannelSources(const ProtectionGraph& g,
                                     const LevelAssignment& assignment) {
  std::vector<VertexId> sources;
  for (VertexId u = 0; u < g.VertexCount(); ++u) {
    if (g.IsSubject(u) && assignment.IsAssigned(u)) {
      sources.push_back(u);
    }
  }
  return sources;
}

// Serial scan in source order; witness reconstruction only runs for actual
// channels, which are rare, so it stays serial (and the channel list keeps
// the exact order of the old per-subject loop).  reaches(i, v) reads
// source i's BOC reach row.  Witness replay reuses the caller's snapshot —
// one snapshot per audit, not one per reported channel.
template <typename Reaches>
std::vector<CrossLevelChannel> EmitChannels(const ProtectionGraph& g,
                                            const tg::AnalysisSnapshot& snap,
                                            const LevelAssignment& assignment,
                                            const std::vector<VertexId>& sources,
                                            const Reaches& reaches, size_t max_channels) {
  std::vector<CrossLevelChannel> channels;
  const size_t n = g.VertexCount();
  tg::PathSearchOptions options;
  options.use_implicit = true;
  for (size_t i = 0; i < sources.size(); ++i) {
    VertexId u = sources[i];
    for (VertexId v = 0; v < n; ++v) {
      if (v == u || !reaches(i, v) || !g.IsSubject(v)) {
        continue;
      }
      // A BOC path u -> v lets u learn v's information; dangerous exactly
      // when v is strictly higher than u.
      if (!assignment.HigherVertex(v, u)) {
        continue;
      }
      CrossLevelChannel channel;
      channel.from = u;
      channel.to = v;
      std::optional<tg::GraphPath> path =
          FindWordPath(snap, u, v, tg::BridgeOrConnectionDfa(), options);
      channel.path = path.has_value() ? path->ToString(g) : "<path elided>";
      channels.push_back(std::move(channel));
      if (max_channels != 0 && channels.size() >= max_channels) {
        return channels;
      }
    }
  }
  return channels;
}

// Sharded phase 2+3: shard summaries decide which levels can contribute at
// all; only candidates on dirty levels expand to real rows, in global
// ascending candidate order and in bounded 256-row chunks (so an insecure
// graph with a cutoff never materializes more rows than it reports from).
// Chunk rows come from the same KnowableMatrix pipeline as the dense
// engine, so contents, order, and the max_violations cutoff are identical.
SecurityReport CheckSecureSharded(const ProtectionGraph& g, const tg::AnalysisSnapshot& snap,
                                  const LevelAssignment& assignment,
                                  const std::vector<VertexId>& candidates,
                                  size_t max_violations, tg_util::ThreadPool* pool) {
  const std::vector<ShardSummary> summaries =
      KnowableShardSummaries(snap, assignment, candidates, pool);
  std::vector<bool> dirty_level(assignment.LevelCount(), false);
  bool any_dirty = false;
  for (const ShardSummary& summary : summaries) {
    if (summary.dirty) {
      dirty_level[summary.level] = true;
      any_dirty = true;
    }
  }
  SecurityReport report;
  if (!any_dirty) {
    return report;  // every shard proved clean by the union argument
  }
  std::vector<VertexId> dirty_candidates;
  for (VertexId x : candidates) {
    if (dirty_level[assignment.LevelOf(x)]) {
      dirty_candidates.push_back(x);
    }
  }
  constexpr size_t kChunk = 256;
  for (size_t first = 0; first < dirty_candidates.size(); first += kChunk) {
    const size_t count = std::min(kChunk, dirty_candidates.size() - first);
    const std::vector<VertexId> chunk(dirty_candidates.begin() + first,
                                      dirty_candidates.begin() + first + count);
    tg::BitMatrix rows = tg_analysis::KnowableMatrix(
        snap, std::span<const VertexId>(chunk), pool);
    const size_t remaining =
        max_violations == 0 ? 0 : max_violations - report.violations.size();
    SecurityReport part = EmitViolations(
        g, assignment, chunk, [&](size_t i, VertexId y) { return rows.Test(i, y); },
        remaining);
    if (!part.secure) {
      report.secure = false;
    }
    report.violations.insert(report.violations.end(),
                             std::make_move_iterator(part.violations.begin()),
                             std::make_move_iterator(part.violations.end()));
    if (max_violations != 0 && report.violations.size() >= max_violations) {
      break;
    }
  }
  return report;
}

std::vector<uint64_t> DenseSubjectBits(const tg::AnalysisSnapshot& snap) {
  std::vector<uint64_t> bits((snap.vertex_count() + 63) / 64, 0);
  for (VertexId s : snap.Subjects()) {
    bits[s >> 6] |= uint64_t{1} << (s & 63);
  }
  return bits;
}

inline void SetBit(std::vector<uint64_t>& words, VertexId v) {
  words[v >> 6] |= uint64_t{1} << (v & 63);
}

inline bool TestBit(const std::vector<uint64_t>& words, VertexId v) {
  return (words[v >> 6] >> (v & 63)) & 1;
}

// The scalar knowable pipeline (heads probe -> subject closure -> spans,
// with the empty-heads short circuit) replayed as row ORs over the
// bridge-enum index.  Bit-identical to KnowableMatrix's row for x.
std::vector<uint64_t> BridgeKnowableWords(const tg::AnalysisSnapshot& snap,
                                          const tg_analysis::BridgeEnumIndex& index,
                                          const std::vector<uint64_t>& subject_bits,
                                          VertexId x) {
  const size_t words = subject_bits.size();
  std::vector<uint64_t> knowable(words, 0);
  SetBit(knowable, x);
  std::vector<uint64_t> heads(words, 0);
  index.OrWriterClosure(x, heads);
  for (size_t w = 0; w < words; ++w) {
    heads[w] &= subject_bits[w];
  }
  if (snap.IsSubject(x)) {
    SetBit(heads, x);
  }
  const bool any_head =
      std::any_of(heads.begin(), heads.end(), [](uint64_t w) { return w != 0; });
  if (!any_head) {
    return knowable;  // nothing can write toward x: knowable = {x}
  }
  const std::vector<uint64_t> closure =
      index.SubjectClosureWords(subject_bits, std::move(heads));
  index.OrReadSpanSet(closure, knowable);
  for (size_t w = 0; w < words; ++w) {
    knowable[w] |= closure[w];
  }
  return knowable;
}

// Bridge-enum shard summaries, reduced to the one bit that matters: which
// levels are dirty (their members' union reach touches a strictly higher
// level through a qualifying vertex).  Same dirty criterion as the sharded
// engine's ShardSummary, computed from index row ORs instead of product
// sweeps.  knowable=true runs the union knowable pipeline per level and
// qualifies any assigned vertex; knowable=false uses the raw BOC reach and
// qualifies assigned subjects only (the channel-scan criterion).
std::vector<bool> BridgeDirtyLevels(const tg::AnalysisSnapshot& snap,
                                    const tg_analysis::BridgeEnumIndex& index,
                                    const LevelAssignment& assignment,
                                    const std::vector<VertexId>& vertices, bool knowable,
                                    bool* any_dirty) {
  const size_t n = snap.vertex_count();
  const size_t words = (n + 63) / 64;
  std::vector<std::vector<VertexId>> by_level(assignment.LevelCount());
  for (VertexId v : vertices) {
    const LevelId level = assignment.LevelOf(v);
    if (level != kNoLevel) {
      by_level[level].push_back(v);
    }
  }
  const std::vector<uint64_t> subject_bits = DenseSubjectBits(snap);
  // Per-level dirty masks: the vertices whose presence in a level's reach
  // set makes it dirty — assigned, strictly higher, and (for the channel
  // scan) subjects.  One O(n) bucketing pass plus an O(L^2) mask union
  // replaces a per-set-bit level lookup over every reached vertex.
  const size_t level_count = assignment.LevelCount();
  std::vector<std::vector<uint64_t>> level_bits(level_count,
                                                std::vector<uint64_t>(words, 0));
  for (VertexId v = 0; v < n; ++v) {
    const LevelId level_v = assignment.LevelOf(v);
    if (level_v == kNoLevel || (!knowable && !snap.IsSubject(v))) {
      continue;
    }
    SetBit(level_bits[level_v], v);
  }
  std::vector<std::vector<uint64_t>> higher_mask(level_count,
                                                 std::vector<uint64_t>(words, 0));
  for (LevelId low = 0; low < level_count; ++low) {
    for (LevelId high = 0; high < level_count; ++high) {
      if (!assignment.Higher(high, low)) {
        continue;
      }
      for (size_t w = 0; w < words; ++w) {
        higher_mask[low][w] |= level_bits[high][w];
      }
    }
  }
  std::vector<bool> dirty(level_count, false);
  *any_dirty = false;
  std::vector<uint64_t> reached(words);
  for (LevelId level = 0; level < by_level.size(); ++level) {
    const std::vector<VertexId>& members = by_level[level];
    if (members.empty()) {
      continue;
    }
    std::fill(reached.begin(), reached.end(), 0);
    if (knowable) {
      // Union-distributivity: the union of per-member knowable sets is the
      // pipeline run with all members as seeds (members with no heads
      // contribute only themselves, which the member loop below adds).
      std::vector<uint64_t> heads(words, 0);
      index.OrWriterClosureMulti(members, heads);
      for (size_t w = 0; w < words; ++w) {
        heads[w] &= subject_bits[w];
      }
      for (VertexId x : members) {
        if (snap.IsSubject(x)) {
          SetBit(heads, x);
        }
      }
      const bool any_head =
          std::any_of(heads.begin(), heads.end(), [](uint64_t w) { return w != 0; });
      if (any_head) {
        const std::vector<uint64_t> closure =
            index.SubjectClosureWords(subject_bits, std::move(heads));
        index.OrReadSpanSet(closure, reached);
        for (size_t w = 0; w < words; ++w) {
          reached[w] |= closure[w];
        }
      }
      for (VertexId x : members) {
        SetBit(reached, x);
      }
    } else {
      index.OrReachMulti(members, reached);
    }
    for (size_t w = 0; w < words && !dirty[level]; ++w) {
      if ((reached[w] & higher_mask[level][w]) != 0) {
        dirty[level] = true;
        *any_dirty = true;
      }
    }
  }
  return dirty;
}

// Bridge-enum phase 2+3 of CheckSecure: the index builds once, level
// summaries decide dirtiness from row ORs, and only dirty-level candidates
// expand — one knowable word-row each, in global candidate order, through
// the same EmitViolations as every other engine.
SecurityReport CheckSecureBridgeEnum(const ProtectionGraph& g, const tg::AnalysisSnapshot& snap,
                                     const LevelAssignment& assignment,
                                     const std::vector<VertexId>& candidates,
                                     size_t max_violations) {
  const tg_analysis::BridgeEnumIndex index(snap);
  bool any_dirty = false;
  const std::vector<bool> dirty_level =
      BridgeDirtyLevels(snap, index, assignment, candidates, /*knowable=*/true, &any_dirty);
  SecurityReport report;
  if (!any_dirty) {
    return report;
  }
  const std::vector<uint64_t> subject_bits = DenseSubjectBits(snap);
  for (VertexId x : candidates) {
    if (!dirty_level[assignment.LevelOf(x)]) {
      continue;
    }
    const std::vector<uint64_t> knowable = BridgeKnowableWords(snap, index, subject_bits, x);
    const size_t remaining =
        max_violations == 0 ? 0 : max_violations - report.violations.size();
    const std::vector<VertexId> one{x};
    SecurityReport part = EmitViolations(
        g, assignment, one, [&](size_t, VertexId y) { return TestBit(knowable, y); },
        remaining);
    if (!part.secure) {
      report.secure = false;
    }
    report.violations.insert(report.violations.end(),
                             std::make_move_iterator(part.violations.begin()),
                             std::make_move_iterator(part.violations.end()));
    if (max_violations != 0 && report.violations.size() >= max_violations) {
      break;
    }
  }
  return report;
}

// The snapshot an audit verb runs on: the cache's overlay-patched one, or
// a fresh build held in `owned`.  Called inside the verb's query scope and
// only once the verb knows it has work, so the snapshot build is traced
// as part of the query and skipped when there is nothing to check.
const tg::AnalysisSnapshot& AuditSnapshot(const ProtectionGraph& g,
                                          tg_analysis::AnalysisCache* cache,
                                          std::optional<tg::AnalysisSnapshot>& owned) {
  return cache != nullptr ? cache->Snapshot(g) : owned.emplace(g);
}

// The one CheckSecure body behind both overloads.
SecurityReport CheckSecureImpl(const ProtectionGraph& g, const LevelAssignment& assignment,
                               tg_analysis::AnalysisCache* cache, size_t max_violations,
                               tg_util::ThreadPool* pool, AuditEngine engine) {
  tg_util::QueryScope query(tg_util::QueryKind::kCheckSecure, 1);
  std::vector<VertexId> candidates = SecureCandidates(g, assignment);
  if (candidates.empty()) {
    return SecurityReport{};
  }
  std::optional<tg::AnalysisSnapshot> owned;
  const tg::AnalysisSnapshot& snap = AuditSnapshot(g, cache, owned);
  SecurityReport report;
  const AuditEngine resolved = ResolveAuditEngine(g, assignment, engine);
  if (resolved == AuditEngine::kSharded) {
    report = CheckSecureSharded(g, snap, assignment, candidates, max_violations, pool);
  } else if (resolved == AuditEngine::kBridgeEnum) {
    report = CheckSecureBridgeEnum(g, snap, assignment, candidates, max_violations);
  } else {
    // One knowable bit row per candidate from the bit-parallel pipeline,
    // 64 candidates per product BFS.
    tg::BitMatrix rows = tg_analysis::KnowableMatrix(snap, candidates, pool);
    report = EmitViolations(
        g, assignment, candidates, [&](size_t i, VertexId y) { return rows.Test(i, y); },
        max_violations);
  }
  query.set_verdict(report.secure);
  return report;
}

}  // namespace

AuditEngine ResolveAuditEngine(const ProtectionGraph& g, const LevelAssignment& assignment,
                               AuditEngine requested) {
  if (requested != AuditEngine::kAuto) {
    return requested;
  }
  if (assignment.LevelCount() < 2) {
    return AuditEngine::kDense;
  }
  const size_t n = g.VertexCount();
  const bool over_cap =
      tg::BitMatrix::AllocationBytes(n, n) > tg::BitMatrix::MaxBytes();
  if (n < kShardedAuditMinVertices && !over_cap) {
    return AuditEngine::kDense;
  }
  // At scale the engines split on pivot density.  Few cross-level take or
  // grant edges (the planted-channel regime) means few dirty shards and
  // tiny pivot seeds, where the bridge-enum factorization collapses the
  // audit; dense pivots erode that advantage and the shared product sweeps
  // of the sharded engine win.
  const size_t pivots = CrossLevelPivotEdges(g, assignment);
  const size_t threshold = std::max<size_t>(16, n / 256);
  return pivots <= threshold ? AuditEngine::kBridgeEnum : AuditEngine::kSharded;
}

SecurityReport CheckSecure(const ProtectionGraph& g, const LevelAssignment& assignment,
                           size_t max_violations, tg_util::ThreadPool* pool,
                           AuditEngine engine) {
  return CheckSecureImpl(g, assignment, nullptr, max_violations, pool, engine);
}

SecurityReport CheckSecure(const ProtectionGraph& g, const LevelAssignment& assignment,
                           tg_analysis::AnalysisCache& cache, size_t max_violations,
                           tg_util::ThreadPool* pool, AuditEngine engine) {
  return CheckSecureImpl(g, assignment, &cache, max_violations, pool, engine);
}

namespace {

// Sharded structural scan: per-level BOC summaries, then per-source rows
// for dirty levels only, chunked like the sharded CheckSecure.  The
// summary-level verdict (which levels a shard's sources reach) expands to
// concrete vertex paths in EmitChannels — FindWordPath replays the actual
// bridge-or-connection witness, so the channel list is identical to the
// dense scan's.
std::vector<CrossLevelChannel> FindCrossLevelChannelsSharded(
    const ProtectionGraph& g, const tg::AnalysisSnapshot& snap,
    const LevelAssignment& assignment, const std::vector<VertexId>& sources,
    size_t max_channels, tg_util::ThreadPool* pool) {
  const std::vector<ShardSummary> summaries =
      ChannelShardSummaries(snap, assignment, sources, pool);
  std::vector<bool> dirty_level(assignment.LevelCount(), false);
  bool any_dirty = false;
  for (const ShardSummary& summary : summaries) {
    if (summary.dirty) {
      dirty_level[summary.level] = true;
      any_dirty = true;
    }
  }
  std::vector<CrossLevelChannel> channels;
  if (!any_dirty) {
    return channels;
  }
  std::vector<VertexId> dirty_sources;
  for (VertexId u : sources) {
    if (dirty_level[assignment.LevelOf(u)]) {
      dirty_sources.push_back(u);
    }
  }
  tg::SnapshotBfsOptions snap_options;
  snap_options.use_implicit = true;
  constexpr size_t kChunk = 256;
  for (size_t first = 0; first < dirty_sources.size(); first += kChunk) {
    const size_t count = std::min(kChunk, dirty_sources.size() - first);
    const std::vector<VertexId> chunk(dirty_sources.begin() + first,
                                      dirty_sources.begin() + first + count);
    tg::BitMatrix reach =
        tg::SnapshotWordReachableAll(snap, std::span<const VertexId>(chunk),
                                     tg::BridgeOrConnectionDfa(), snap_options, pool);
    const size_t remaining = max_channels == 0 ? 0 : max_channels - channels.size();
    std::vector<CrossLevelChannel> part = EmitChannels(
        g, snap, assignment, chunk, [&](size_t i, VertexId v) { return reach.Test(i, v); },
        remaining);
    channels.insert(channels.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
    if (max_channels != 0 && channels.size() >= max_channels) {
      break;
    }
  }
  return channels;
}

// Bridge-enum structural scan: the index's per-source union rows stand in
// for the multi-source BOC sweeps (the word-type union equals the BOC
// language), dirty levels gate the per-source expansion, and EmitChannels
// replays the same witnesses — identical channel lists.
std::vector<CrossLevelChannel> FindCrossLevelChannelsBridgeEnum(
    const ProtectionGraph& g, const tg::AnalysisSnapshot& snap,
    const LevelAssignment& assignment, const std::vector<VertexId>& sources,
    size_t max_channels) {
  const tg_analysis::BridgeEnumIndex index(snap);
  bool any_dirty = false;
  const std::vector<bool> dirty_level =
      BridgeDirtyLevels(snap, index, assignment, sources, /*knowable=*/false, &any_dirty);
  std::vector<CrossLevelChannel> channels;
  if (!any_dirty) {
    return channels;
  }
  const size_t n = snap.vertex_count();
  const size_t words = (n + 63) / 64;
  // Per-level mask of assigned subjects strictly higher than that level —
  // exactly the vertices EmitChannels could report for a source at the
  // level, so a zero intersection skips the source without entering the
  // per-vertex emit loop.
  const size_t level_count = assignment.LevelCount();
  std::vector<std::vector<uint64_t>> level_subjects(level_count,
                                                    std::vector<uint64_t>(words, 0));
  for (VertexId v = 0; v < n; ++v) {
    if (g.IsSubject(v) && assignment.IsAssigned(v)) {
      SetBit(level_subjects[assignment.LevelOf(v)], v);
    }
  }
  std::vector<std::vector<uint64_t>> higher_subjects(level_count,
                                                     std::vector<uint64_t>(words, 0));
  for (LevelId low = 0; low < level_count; ++low) {
    for (LevelId high = 0; high < level_count; ++high) {
      if (!assignment.Higher(high, low)) {
        continue;
      }
      for (size_t w = 0; w < words; ++w) {
        higher_subjects[low][w] |= level_subjects[high][w];
      }
    }
  }
  // Sources arrive in ascending vertex order, so take-component runs are
  // contiguous for the common cluster shapes; the component part of the
  // reach row is shared by the whole run and computed once.  Only sources
  // whose row intersects their level's mask pay the full emit scan.
  std::vector<uint64_t> comp_row(words);
  std::vector<uint64_t> row(words);
  uint32_t cur_comp = std::numeric_limits<uint32_t>::max();
  for (VertexId u : sources) {
    if (!dirty_level[assignment.LevelOf(u)]) {
      continue;
    }
    const uint32_t c = index.take_quotient().component[u];
    if (c != cur_comp) {
      std::fill(comp_row.begin(), comp_row.end(), 0);
      index.OrComponentReach(u, comp_row);
      cur_comp = c;
    }
    const std::vector<uint64_t>& mask = higher_subjects[assignment.LevelOf(u)];
    bool hit = false;
    for (size_t w = 0; w < words && !hit; ++w) {
      hit = (comp_row[w] & mask[w]) != 0;
    }
    if (!hit && !index.HasWriterPivots(u)) {
      continue;
    }
    std::copy(comp_row.begin(), comp_row.end(), row.begin());
    index.OrWriterClosure(u, row);
    if (!hit) {
      for (size_t w = 0; w < words && !hit; ++w) {
        hit = (row[w] & mask[w]) != 0;
      }
      if (!hit) {
        continue;
      }
    }
    const size_t remaining = max_channels == 0 ? 0 : max_channels - channels.size();
    const std::vector<VertexId> one{u};
    std::vector<CrossLevelChannel> part = EmitChannels(
        g, snap, assignment, one, [&](size_t, VertexId v) { return TestBit(row, v); },
        remaining);
    channels.insert(channels.end(), std::make_move_iterator(part.begin()),
                    std::make_move_iterator(part.end()));
    if (max_channels != 0 && channels.size() >= max_channels) {
      break;
    }
  }
  return channels;
}

// The one FindCrossLevelChannels body behind both overloads.
std::vector<CrossLevelChannel> FindCrossLevelChannelsImpl(const ProtectionGraph& g,
                                                          const LevelAssignment& assignment,
                                                          tg_analysis::AnalysisCache* cache,
                                                          size_t max_channels,
                                                          tg_util::ThreadPool* pool,
                                                          AuditEngine engine) {
  tg_util::QueryScope query(tg_util::QueryKind::kCrossLevelChannels);
  std::vector<VertexId> sources = ChannelSources(g, assignment);
  if (sources.empty()) {
    return {};
  }
  std::optional<tg::AnalysisSnapshot> owned;
  const tg::AnalysisSnapshot& snap = AuditSnapshot(g, cache, owned);
  std::vector<CrossLevelChannel> channels;
  const AuditEngine resolved = ResolveAuditEngine(g, assignment, engine);
  if (resolved == AuditEngine::kSharded) {
    channels = FindCrossLevelChannelsSharded(g, snap, assignment, sources, max_channels, pool);
  } else if (resolved == AuditEngine::kBridgeEnum) {
    channels = FindCrossLevelChannelsBridgeEnum(g, snap, assignment, sources, max_channels);
  } else {
    tg::SnapshotBfsOptions snap_options;
    snap_options.use_implicit = true;
    tg::BitMatrix reach =
        tg::SnapshotWordReachableAll(snap, std::span<const VertexId>(sources),
                                     tg::BridgeOrConnectionDfa(), snap_options, pool);
    channels = EmitChannels(
        g, snap, assignment, sources, [&](size_t i, VertexId v) { return reach.Test(i, v); },
        max_channels);
  }
  query.set_result(channels.size());
  return channels;
}

}  // namespace

std::vector<CrossLevelChannel> FindCrossLevelChannels(const ProtectionGraph& g,
                                                      const LevelAssignment& assignment,
                                                      size_t max_channels,
                                                      tg_util::ThreadPool* pool,
                                                      AuditEngine engine) {
  return FindCrossLevelChannelsImpl(g, assignment, nullptr, max_channels, pool, engine);
}

std::vector<CrossLevelChannel> FindCrossLevelChannels(const ProtectionGraph& g,
                                                      const LevelAssignment& assignment,
                                                      tg_analysis::AnalysisCache& cache,
                                                      size_t max_channels,
                                                      tg_util::ThreadPool* pool,
                                                      AuditEngine engine) {
  return FindCrossLevelChannelsImpl(g, assignment, &cache, max_channels, pool, engine);
}

bool SecureByTheorem52(const ProtectionGraph& g, const LevelAssignment& assignment) {
  return FindCrossLevelChannels(g, assignment, /*max_channels=*/1).empty();
}

namespace {

// The one FindTypedCrossLevelChannels body: same source loop, pair
// filter, order, and cutoff as EmitChannels — the typed list pairs up
// one-to-one with the untyped channel list — but each hit expands to a
// DescribeChannel record (word type, pivot, typed witness, replay
// verdict).
std::vector<TypedCrossLevelChannel> FindTypedCrossLevelChannelsImpl(
    const ProtectionGraph& g, const LevelAssignment& assignment,
    tg_analysis::AnalysisCache* cache, size_t max_channels) {
  tg_util::QueryScope query(tg_util::QueryKind::kCrossLevelChannels);
  const std::vector<VertexId> sources = ChannelSources(g, assignment);
  std::vector<TypedCrossLevelChannel> channels;
  if (sources.empty()) {
    return channels;
  }
  std::optional<tg::AnalysisSnapshot> owned;
  const tg::AnalysisSnapshot& snap = AuditSnapshot(g, cache, owned);
  const tg_analysis::BridgeEnumIndex index(snap);
  const size_t n = g.VertexCount();
  for (VertexId u : sources) {
    for (VertexId v = 0; v < n; ++v) {
      if (v == u || !index.ReachesAny(u, v) || !g.IsSubject(v)) {
        continue;
      }
      if (!assignment.HigherVertex(v, u)) {
        continue;
      }
      std::optional<tg_analysis::TypedChannel> described = index.DescribeChannel(g, u, v, &snap);
      if (!described.has_value()) {
        continue;  // unreachable: ReachesAny just held
      }
      TypedCrossLevelChannel channel;
      channel.channel = std::move(*described);
      channel.from_level = assignment.LevelOf(u);
      channel.to_level = assignment.LevelOf(v);
      channels.push_back(std::move(channel));
      if (max_channels != 0 && channels.size() >= max_channels) {
        query.set_result(channels.size());
        return channels;
      }
    }
  }
  query.set_result(channels.size());
  return channels;
}

}  // namespace

std::vector<TypedCrossLevelChannel> FindTypedCrossLevelChannels(
    const ProtectionGraph& g, const LevelAssignment& assignment, size_t max_channels) {
  return FindTypedCrossLevelChannelsImpl(g, assignment, nullptr, max_channels);
}

std::vector<TypedCrossLevelChannel> FindTypedCrossLevelChannels(
    const ProtectionGraph& g, const LevelAssignment& assignment,
    tg_analysis::AnalysisCache& cache, size_t max_channels) {
  return FindTypedCrossLevelChannelsImpl(g, assignment, &cache, max_channels);
}

}  // namespace tg_hier

// AnalysisCache: epoch-keyed memoization with scoped, delta-aware
// invalidation.
//
// Interactive front-ends (tgsh), the simulation monitor, audit tools and
// the policy server's worker slots ask the same can_know questions over
// and over between graph mutations.  ProtectionGraph
// carries a mutation epoch plus an append-only MutationJournal; this cache
// keys everything on the epoch, so repeated queries against an unchanged
// graph are O(1) hash lookups — and after a mutation it consults the
// journal instead of discarding state:
//
//   * the snapshot is kept in sync by a SnapshotOverlay (only the mutated
//     vertices' adjacency is re-derived; see src/tg/snapshot.h),
//   * every knowable row carries the *dependency footprint* of its
//     computation — the set of vertices its product BFS runs visited in
//     any DFA state.  A mutation batch can only change a row whose
//     footprint intersects the batch's affected vertices (the endpoints
//     of its journal records; DESIGN.md §10 has the soundness argument),
//     so clean rows survive verbatim and dirty ones are dropped for the
//     next query to recompute, and
//   * only a journal gap (records trimmed past the cached epoch) forces
//     the drop-everything rebuild.
//
// Observability: surviving rows are counted in incremental.rows_reused;
// full rebuilds keep the cache.snapshot_rebuilds counter and
// kCacheRebuild trace span.
//
// What is memoized:
//   * the AnalysisSnapshot itself (the CSR flattening), which the
//     cache-aware audit overloads (CheckSecure, FindCrossLevelChannels,
//     ComputeRwtgLevels) share instead of building their own,
//   * per-source KnowableFrom rows (the Theorem 3.2 closure).
// Whole-graph audits compute their rows on the snapshot per call; none of
// their matrices is kept here.
//
// Contract: one cache serves one logical graph.  Staleness detection is by
// epoch and journal only — pair a cache with a single ProtectionGraph
// object (or call Invalidate() when rebinding it to a different graph).
// The cache is not thread-safe; parallel work should share one immutable
// snapshot across threads instead (src/analysis/batch.h).
//
// Size bound: knowable rows are capped at max_entries (constructor
// argument, default kDefaultMaxEntries).  When an insert would exceed the
// cap, the least-recently-used half of the rows is dropped in one batch —
// ordering is tracked with a per-access tick, so eviction is LRU-accurate
// while the hit path stays a hash probe plus one store.  Returned
// references are valid only until the next cache call (a miss may evict,
// a mutation may drop the row).

#ifndef SRC_ANALYSIS_CACHE_H_
#define SRC_ANALYSIS_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/tg/graph.h"
#include "src/tg/snapshot.h"

namespace tg_analysis {

class AnalysisCache {
 public:
  static constexpr size_t kDefaultMaxEntries = 4096;

  // max_entries bounds the knowable rows (the snapshot itself is not
  // counted).  Clamped to >= 2.
  explicit AnalysisCache(size_t max_entries = kDefaultMaxEntries);

  // The snapshot for g's current epoch (overlay-patched or rebuilt if
  // stale).
  const tg::AnalysisSnapshot& Snapshot(const tg::ProtectionGraph& g);

  // Memoized KnowableFrom(g, x).
  const std::vector<bool>& Knowable(const tg::ProtectionGraph& g, tg::VertexId x);

  // can_know via the memoized row (reflexive; false for invalid ids).
  bool CanKnow(const tg::ProtectionGraph& g, tg::VertexId x, tg::VertexId y);

  // Drops everything, including the snapshot.  Required when rebinding the
  // cache to a different graph object.
  void Invalidate();

  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  size_t evictions() const { return evictions_; }
  size_t max_entries() const { return max_entries_; }
  size_t entry_count() const { return knowable_.size(); }

 private:
  // A memoized row plus the dependency footprint it was computed under
  // (one bit per vertex; see the file comment).
  struct Entry {
    std::vector<bool> value;
    std::vector<uint64_t> deps;
    uint64_t last_used = 0;
  };

  // Brings the snapshot up to date with g and reconciles the knowable rows:
  // scoped repair when the journal covers the cached epoch, FullRebuild
  // otherwise.  No-op when the epochs already match.
  void Refresh(const tg::ProtectionGraph& g);

  // The legacy drop-everything path (first build, journal gap, rebind).
  void FullRebuild(const tg::ProtectionGraph& g);

  // Scoped reconciliation after Sync: erases rows whose footprints
  // intersect affected_words (bits over pre-mutation vertex ids) and
  // extends and keeps the rest.  `grew` says the batch appended vertices
  // (rows keyed by a then-invalid source must not survive its id becoming
  // valid).
  void RepairEntries(const std::vector<uint64_t>& affected_words, size_t old_vertex_count,
                     bool grew);

  // Batch-evicts the least-recently-used half when the cap is reached.
  void EvictIfFull();

  uint64_t Touch() { return ++tick_; }

  size_t max_entries_;
  uint64_t tick_ = 0;
  tg::SnapshotOverlay overlay_;
  std::unordered_map<tg::VertexId, Entry> knowable_;
  size_t hits_ = 0;
  size_t misses_ = 0;
  size_t evictions_ = 0;
};

}  // namespace tg_analysis

#endif  // SRC_ANALYSIS_CACHE_H_

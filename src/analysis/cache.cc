#include "src/analysis/cache.h"

#include <algorithm>
#include <span>

#include "src/analysis/batch.h"
#include "src/util/metrics.h"
#include "src/util/trace.h"

namespace tg_analysis {

using tg::AnalysisSnapshot;
using tg::VertexId;

namespace {

struct CacheMetrics {
  tg_util::Counter& hits = tg_util::GetCounter("cache.hits");
  tg_util::Counter& misses = tg_util::GetCounter("cache.misses");
  tg_util::Counter& evictions = tg_util::GetCounter("cache.evictions");
  tg_util::Counter& rebuilds = tg_util::GetCounter("cache.snapshot_rebuilds");
  tg_util::Counter& rows_reused = tg_util::GetCounter("incremental.rows_reused");
};

CacheMetrics& Metrics() {
  static CacheMetrics metrics;
  return metrics;
}

}  // namespace

AnalysisCache::AnalysisCache(size_t max_entries)
    : max_entries_(max_entries < 2 ? 2 : max_entries) {}

void AnalysisCache::Invalidate() {
  overlay_.Reset();
  knowable_.clear();
}

void AnalysisCache::FullRebuild(const tg::ProtectionGraph& g) {
  tg_util::TraceSpan span(tg_util::TraceKind::kCacheRebuild, g.epoch(), entry_count());
  Metrics().rebuilds.Add();
  Invalidate();
  overlay_.Sync(g);
}

void AnalysisCache::Refresh(const tg::ProtectionGraph& g) {
  if (overlay_.has_value() && overlay_.snapshot().graph_epoch() == g.epoch()) {
    return;
  }
  if (!overlay_.has_value() || !g.journal().Covers(overlay_.snapshot().graph_epoch())) {
    FullRebuild(g);
    return;
  }
  // The journal retains every record since the cached epoch: collect the
  // batch's affected vertices (record endpoints, in pre-mutation id space)
  // and reconcile entries against them instead of dropping everything.
  const size_t old_n = overlay_.snapshot().vertex_count();
  std::span<const tg::MutationRecord> records =
      g.journal().Since(overlay_.snapshot().graph_epoch());
  std::vector<uint64_t> affected_words((old_n + 63) / 64, 0);
  bool grew = false;
  for (const tg::MutationRecord& rec : records) {
    if (rec.kind == tg::MutationKind::kAddVertex) {
      grew = true;
      continue;
    }
    for (VertexId v : {rec.src, rec.dst}) {
      if (v < old_n) {
        affected_words[v >> 6] |= uint64_t{1} << (v & 63);
      }
    }
  }
  overlay_.Sync(g);
  RepairEntries(affected_words, old_n, grew);
}

void AnalysisCache::RepairEntries(const std::vector<uint64_t>& affected_words,
                                  size_t old_vertex_count, bool grew) {
  const size_t n = overlay_.snapshot().vertex_count();
  const size_t old_n = old_vertex_count;
  size_t rows_kept = 0;

  // Erase the dirty rows (the next query recomputes them), keep and extend
  // the clean ones.  A row computed for a source id that was invalid then
  // (all-false row, empty footprint) must not survive that id becoming
  // valid.
  for (auto it = knowable_.begin(); it != knowable_.end();) {
    const VertexId source = it->first;
    const std::vector<uint64_t>& deps = it->second.deps;
    const size_t limit = std::min(deps.size(), affected_words.size());
    bool dirty = grew && source >= old_n && source < n;
    for (size_t w = 0; w < limit && !dirty; ++w) {
      dirty = (deps[w] & affected_words[w]) != 0;
    }
    if (dirty) {
      it = knowable_.erase(it);
      continue;
    }
    if (n > old_n) {
      it->second.value.resize(n, false);
    }
    ++rows_kept;
    ++it;
  }

  if (rows_kept > 0) {
    Metrics().rows_reused.Add(rows_kept);
  }
}

const AnalysisSnapshot& AnalysisCache::Snapshot(const tg::ProtectionGraph& g) {
  Refresh(g);
  return overlay_.snapshot();
}

void AnalysisCache::EvictIfFull() {
  if (entry_count() < max_entries_) {
    return;
  }
  // Median last-used tick over all rows; dropping everything at or below
  // it removes about half (ticks are unique, so at least one).
  std::vector<uint64_t> ticks;
  ticks.reserve(entry_count());
  for (const auto& [key, entry] : knowable_) {
    ticks.push_back(entry.last_used);
  }
  auto median = ticks.begin() + ticks.size() / 2;
  std::nth_element(ticks.begin(), median, ticks.end());
  const uint64_t cutoff = *median;
  const size_t dropped =
      std::erase_if(knowable_, [&](const auto& kv) { return kv.second.last_used <= cutoff; });
  evictions_ += dropped;
  Metrics().evictions.Add(dropped);
}

const std::vector<bool>& AnalysisCache::Knowable(const tg::ProtectionGraph& g, VertexId x) {
  tg_util::QueryScope query(tg_util::QueryKind::kKnowable, 0, tg_util::QueryScope::kSampleable);
  Refresh(g);
  auto it = knowable_.find(x);
  if (it != knowable_.end()) {
    ++hits_;
    Metrics().hits.Add();
    it->second.last_used = Touch();
    query.set_result(1);  // cache hit
    return it->second.value;
  }
  ++misses_;
  Metrics().misses.Add();
  EvictIfFull();
  Entry entry;
  entry.value = KnowableFromSnapshotWithDeps(overlay_.snapshot(), x, entry.deps);
  entry.last_used = Touch();
  return knowable_.emplace(x, std::move(entry)).first->second.value;
}

bool AnalysisCache::CanKnow(const tg::ProtectionGraph& g, VertexId x, VertexId y) {
  if (!g.IsValidVertex(x) || !g.IsValidVertex(y)) {
    return false;
  }
  return Knowable(g, x)[y];
}

}  // namespace tg_analysis

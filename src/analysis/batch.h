// Knowable rows on a prebuilt snapshot, one source or many.
//
// The can_know analyses reduce to one Theorem 3.2 closure per source
// vertex.  KnowableFromSnapshot runs that closure for one source with the
// scalar product BFS (the implementation behind KnowableFrom and the
// AnalysisCache rows).  KnowableMatrix answers many sources at once on the
// bit-parallel engine (src/tg/bitset_reach.h): three 64-lane sweeps (heads
// probe, bridge-or-connection words, rw-terminal spans) plus one
// condensation of the subject BOC digraph replace the per-source closure
// loop, and the ThreadPool fans out 64-source word slices so the two
// parallelism axes compose.  Results are deterministic — row i is exactly
// what KnowableFromSnapshot(snap, sources[i]) computes, regardless of
// thread count or scheduling — because slices and rows are fixed by index
// and each worker writes only its own slots.

#ifndef SRC_ANALYSIS_BATCH_H_
#define SRC_ANALYSIS_BATCH_H_

#include <span>
#include <vector>

#include "src/tg/bitset_reach.h"
#include "src/tg/snapshot.h"
#include "src/util/thread_pool.h"

namespace tg_analysis {

// KnowableFrom computed on a prebuilt snapshot (the shared scalar
// implementation behind the graph-level KnowableFrom and the per-row
// cache).  Invalid x yields an all-false row.
std::vector<bool> KnowableFromSnapshot(const tg::AnalysisSnapshot& snap, tg::VertexId x);

// As KnowableFromSnapshot, additionally reassigning dep_words
// ((vertex_count + 63) / 64 words) to the row's conservative dependency
// footprint: x itself plus every vertex any stage's product BFS visited in
// any DFA state.  A mutation batch whose affected vertices all miss the
// footprint provably leaves the row bit-identical (DESIGN.md §10), which
// is what lets AnalysisCache keep the row across such mutations.
std::vector<bool> KnowableFromSnapshotWithDeps(const tg::AnalysisSnapshot& snap, tg::VertexId x,
                                               std::vector<uint64_t>& dep_words);

// Knowable matrix on a prebuilt snapshot: row i is
// KnowableFromSnapshot(snap, sources[i]) as a bit row, computed with the
// bit-parallel pipeline (see file comment).  Duplicate sources get
// identical rows; invalid ones all-zero rows.  pool == nullptr uses
// ThreadPool::Shared() (TG_THREADS-sized).
tg::BitMatrix KnowableMatrix(const tg::AnalysisSnapshot& snap,
                             std::span<const tg::VertexId> sources,
                             tg_util::ThreadPool* pool = nullptr);

}  // namespace tg_analysis

#endif  // SRC_ANALYSIS_BATCH_H_

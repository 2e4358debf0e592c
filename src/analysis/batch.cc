#include "src/analysis/batch.h"

#include <algorithm>

#include "src/analysis/bridges.h"
#include "src/tg/condense.h"
#include "src/tg/languages.h"

namespace tg_analysis {

using tg::AnalysisSnapshot;
using tg::BitMatrix;
using tg::SnapshotBfsOptions;
using tg::VertexId;

namespace {

void OrInto(std::span<uint64_t> dst, std::span<const uint64_t> src) {
  for (size_t w = 0; w < dst.size(); ++w) {
    dst[w] |= src[w];
  }
}

// Shared scalar pipeline; dep_words != nullptr additionally collects the
// union of every stage's visited set (the row's dependency footprint).
std::vector<bool> KnowableFromSnapshotImpl(const AnalysisSnapshot& snap, VertexId x,
                                           std::vector<uint64_t>* dep_words) {
  const size_t n = snap.vertex_count();
  if (dep_words != nullptr) {
    dep_words->assign((n + 63) / 64, 0);
  }
  std::vector<bool> knowable(n, false);
  if (!snap.IsValidVertex(x)) {
    return knowable;
  }
  knowable[x] = true;
  if (dep_words != nullptr) {
    (*dep_words)[x >> 6] |= uint64_t{1} << (x & 63);
  }
  SnapshotBfsOptions options;
  options.use_implicit = true;
  std::vector<uint64_t> stage_touched;
  auto reach = [&](std::span<const VertexId> sources, const tg_util::Dfa& dfa) {
    if (dep_words == nullptr) {
      return SnapshotWordReachable(snap, sources, dfa, options);
    }
    std::vector<bool> reached = SnapshotWordReachableTouched(snap, sources, dfa, stage_touched,
                                                             options);
    OrInto(*dep_words, stage_touched);
    return reached;
  };
  // (a) candidate chain heads: subjects that rw-initially span to x (one
  // reversed-language BFS from x), plus x itself when x is a subject.
  std::vector<VertexId> heads;
  {
    const VertexId sources[] = {x};
    std::vector<bool> spanners = reach(sources, tg::ReverseRwInitialSpanDfa());
    for (VertexId v = 0; v < n; ++v) {
      if (spanners[v] && snap.IsSubject(v)) {
        heads.push_back(v);
      }
    }
  }
  if (snap.IsSubject(x)) {
    heads.push_back(x);
  }
  if (heads.empty()) {
    return knowable;
  }
  // (c) directed closure over bridge-or-connection words.
  std::vector<bool> closure;
  if (dep_words != nullptr) {
    closure = BridgeOrConnectionClosureTouched(snap, heads, stage_touched);
    OrInto(*dep_words, stage_touched);
  } else {
    closure = BridgeOrConnectionClosure(snap, heads);
  }
  // y is knowable when some closure subject is y itself or rw-terminally
  // spans to y; the latter is one multi-source span search.
  std::vector<VertexId> closure_subjects;
  for (VertexId v = 0; v < n; ++v) {
    if (closure[v]) {
      knowable[v] = true;
      closure_subjects.push_back(v);
    }
  }
  std::vector<bool> spanned = reach(closure_subjects, tg::RwTerminalSpanDfa());
  for (VertexId v = 0; v < n; ++v) {
    if (spanned[v]) {
      knowable[v] = true;
    }
  }
  return knowable;
}

}  // namespace

std::vector<bool> KnowableFromSnapshot(const AnalysisSnapshot& snap, VertexId x) {
  return KnowableFromSnapshotImpl(snap, x, nullptr);
}

std::vector<bool> KnowableFromSnapshotWithDeps(const AnalysisSnapshot& snap, VertexId x,
                                               std::vector<uint64_t>& dep_words) {
  return KnowableFromSnapshotImpl(snap, x, &dep_words);
}

BitMatrix KnowableMatrix(const AnalysisSnapshot& snap, std::span<const VertexId> sources,
                         tg_util::ThreadPool* pool) {
  const size_t n = snap.vertex_count();
  BitMatrix rows(sources.size(), n);
  if (n == 0 || sources.empty()) {
    return rows;
  }
  SnapshotBfsOptions options;
  options.use_implicit = true;
  tg_util::ThreadPool& runner = pool != nullptr ? *pool : tg_util::ThreadPool::Shared();
  const std::vector<VertexId>& subjects = snap.Subjects();
  const std::span<const VertexId> subject_span(subjects);

  // Stage 1 (bit-parallel sweeps).  heads_probe row i: everything the
  // reversed rw-initial-span language reaches from sources[i]; its subject
  // bits are the closure seeds.  boc row j / spans row j: one
  // bridge-or-connection word / one rw-terminal span from subjects[j].
  BitMatrix heads_probe =
      SnapshotWordReachableAll(snap, sources, tg::ReverseRwInitialSpanDfa(), options, &runner);
  BitMatrix boc =
      SnapshotWordReachableAll(snap, subject_span, tg::BridgeOrConnectionDfa(), options, &runner);
  BitMatrix spans =
      SnapshotWordReachableAll(snap, subject_span, tg::RwTerminalSpanDfa(), options, &runner);

  constexpr uint32_t kNoSubject = 0xffffffffu;
  std::vector<uint32_t> subject_index(n, kNoSubject);
  for (size_t i = 0; i < subjects.size(); ++i) {
    subject_index[subjects[i]] = static_cast<uint32_t>(i);
  }

  // Stage 2 (serial, linear): condense the subject BOC digraph.  The
  // iterated multi-source closure of the scalar path equals transitive
  // closure over single-BOC-word edges (min_steps is 0, so a multi-source
  // reach is the union of the single-source reaches), and component ids
  // come out in reverse topological order, so one ascending sweep can
  // fold each component's members, their terminal spans, and every
  // successor component into a per-component "knowable through here" row.
  std::vector<std::vector<VertexId>> digraph(n);
  for (size_t i = 0; i < subjects.size(); ++i) {
    VertexId u = subjects[i];
    tg::ForEachSetBit(boc.Row(i), [&](size_t v) {
      if (subject_index[v] != kNoSubject) {
        digraph[u].push_back(static_cast<VertexId>(v));
      }
    });
  }
  // The quotient CSR dedupes cross-component edges, and the closure pass
  // folds each successor component exactly once per component (the member
  // loop only contributes seeds), so the fold is one reverse-topological
  // pass.  Rows are hybrid ReachRows: sparse components cost O(set bits),
  // not n/8 bytes.
  const tg::QuotientGraph quotient = tg::BuildQuotient(digraph);
  const uint32_t comp_count = quotient.component_count;
  const std::vector<uint32_t>& comp = quotient.component;
  std::vector<tg::ReachRow> full = tg::QuotientClosure(
      quotient, n, [&](uint32_t c, tg::ReachRow& row) {
        for (VertexId u : quotient.members[c]) {
          if (subject_index[u] == kNoSubject) {
            continue;  // objects are singleton components that seed nothing
          }
          row.Set(u);
          row.OrDense(spans.Row(subject_index[u]));
        }
      });

  // Stage 3 (word-sliced, parallel): compose each source row as
  // {x} ∪ ∪_{h ∈ heads(x)} full[comp[h]].  Slices are fixed 64-row spans
  // writing only their own rows, so any pool size gives identical bits.
  const size_t row_slices = (sources.size() + 63) / 64;
  runner.ParallelFor(row_slices, [&](size_t slice) {
    std::vector<bool> comp_seen(comp_count, false);
    std::vector<uint32_t> touched;
    const size_t base = slice * 64;
    const size_t end = std::min(sources.size(), base + 64);
    for (size_t i = base; i < end; ++i) {
      VertexId x = sources[i];
      if (!snap.IsValidVertex(x)) {
        continue;
      }
      std::span<uint64_t> row = rows.MutableRow(i);
      rows.Set(i, x);
      auto add_head = [&](VertexId h) {
        uint32_t c = comp[h];
        if (comp_seen[c]) {
          return;
        }
        comp_seen[c] = true;
        touched.push_back(c);
        full[c].OrIntoDense(row);
      };
      tg::ForEachSetBit(heads_probe.Row(i), [&](size_t v) {
        if (subject_index[v] != kNoSubject) {
          add_head(static_cast<VertexId>(v));
        }
      });
      if (subject_index[x] != kNoSubject) {
        add_head(x);
      }
      for (uint32_t c : touched) {
        comp_seen[c] = false;
      }
      touched.clear();
    }
  });
  return rows;
}

}  // namespace tg_analysis

#include "src/analysis/can_know.h"

#include "src/analysis/batch.h"
#include "src/analysis/bridges.h"
#include "src/analysis/spans.h"
#include "src/tg/languages.h"
#include "src/tg/snapshot.h"
#include "src/util/metrics.h"
#include "src/util/trace.h"

namespace tg_analysis {

using tg::GraphPath;
using tg::PathSearchOptions;
using tg::PathSymbol;
using tg::ProtectionGraph;
using tg::VertexId;

namespace {

// Admissibility side conditions (Theorem 3.1 (b)): an r> step is a read by
// its origin, so the origin must be a subject; a w< step is a write by its
// destination, so the destination must be a subject.
PathSearchOptions AdmissibleOptions(const ProtectionGraph& g) {
  PathSearchOptions options;
  options.use_implicit = true;
  options.min_steps = 1;
  options.step_filter = [&g](VertexId from, PathSymbol symbol, VertexId to) {
    if (symbol == PathSymbol::kReadFwd) {
      return g.IsSubject(from);
    }
    if (symbol == PathSymbol::kWriteBack) {
      return g.IsSubject(to);
    }
    return true;  // other symbols are rejected by the DFA anyway
  };
  return options;
}

}  // namespace

bool CanKnowF(const ProtectionGraph& g, VertexId x, VertexId y) {
  static tg_util::Counter& queries = tg_util::GetCounter("query.can_know_f");
  queries.Add();
  tg_util::QueryScope query(tg_util::QueryKind::kCanKnowF, 0, tg_util::QueryScope::kSampleable);
  if (!g.IsValidVertex(x) || !g.IsValidVertex(y)) {
    return false;
  }
  if (x == y) {
    query.set_verdict(true);
    return true;
  }
  PathSearchOptions options = AdmissibleOptions(g);
  const bool verdict = FindWordPath(g, x, y, tg::AdmissibleRwDfa(), options).has_value();
  query.set_verdict(verdict);
  return verdict;
}

std::optional<GraphPath> FindAdmissibleRwPath(const ProtectionGraph& g, VertexId x, VertexId y) {
  if (!g.IsValidVertex(x) || !g.IsValidVertex(y) || x == y) {
    return std::nullopt;
  }
  PathSearchOptions options = AdmissibleOptions(g);
  return FindWordPath(g, x, y, tg::AdmissibleRwDfa(), options);
}

bool CanKnow(const ProtectionGraph& g, VertexId x, VertexId y) {
  static tg_util::Counter& queries = tg_util::GetCounter("query.can_know");
  queries.Add();
  tg_util::QueryScope query(tg_util::QueryKind::kCanKnow, 0, tg_util::QueryScope::kSampleable);
  if (!g.IsValidVertex(x) || !g.IsValidVertex(y)) {
    return false;
  }
  if (x == y) {
    query.set_verdict(true);
    return true;
  }
  // (a) candidate chain heads.
  std::vector<VertexId> heads = RwInitialSpannersTo(g, x);
  if (g.IsSubject(x)) {
    heads.push_back(x);
  }
  if (heads.empty()) {
    return false;
  }
  // (b) candidate chain tails.
  std::vector<VertexId> tails = RwTerminalSpannersTo(g, y);
  if (g.IsSubject(y)) {
    tails.push_back(y);
  }
  if (tails.empty()) {
    return false;
  }
  // (c) directed closure over bridge-or-connection words.
  std::vector<bool> closure = BridgeOrConnectionClosure(g, heads);
  for (VertexId u : tails) {
    if (closure[u]) {
      query.set_verdict(true);
      return true;
    }
  }
  return false;
}

std::vector<bool> KnowableFrom(const ProtectionGraph& g, VertexId x) {
  // One shared implementation with the analysis cache's rows
  // (src/analysis/batch.cc), so serial and cached queries are
  // bit-identical by construction.
  return KnowableFromSnapshot(tg::AnalysisSnapshot(g), x);
}

}  // namespace tg_analysis

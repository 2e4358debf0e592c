#include "src/hierarchy/levels.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "src/tg/bitset_reach.h"
#include "src/tg/condense.h"
#include "src/tg/languages.h"
#include "src/tg/path.h"
#include "src/tg/snapshot.h"
#include "src/util/trace.h"

namespace tg_hier {

using tg::Edge;
using tg::ProtectionGraph;
using tg::Right;
using tg::VertexId;

LevelAssignment::LevelAssignment(size_t vertex_count, size_t level_count)
    : level_count_(level_count),
      level_of_(vertex_count, kNoLevel),
      higher_(level_count, std::vector<bool>(level_count, false)),
      names_(level_count) {
  for (size_t i = 0; i < level_count; ++i) {
    names_[i] = "L" + std::to_string(i);
  }
}

bool LevelAssignment::Assign(VertexId v, LevelId level) {
  if (v == tg::kInvalidVertex) {
    return false;  // would otherwise grow the table to 2^32 entries
  }
  if (level >= level_count_ && level != kNoLevel) {
    return false;
  }
  if (v >= level_of_.size()) {
    // Documented growth: vertices created after construction (create
    // rules) join the assignment lazily; the gap stays unassigned.
    level_of_.resize(v + 1, kNoLevel);
  }
  level_of_[v] = level;
  return true;
}

void LevelAssignment::DeclareHigher(LevelId a, LevelId b) {
  assert(a < level_count_ && b < level_count_);
  higher_[a][b] = true;
  finalized_ = false;
}

bool LevelAssignment::Finalize() {
  // Floyd-Warshall closure over the boolean relation.
  for (size_t k = 0; k < level_count_; ++k) {
    for (size_t i = 0; i < level_count_; ++i) {
      if (!higher_[i][k]) {
        continue;
      }
      for (size_t j = 0; j < level_count_; ++j) {
        if (higher_[k][j]) {
          higher_[i][j] = true;
        }
      }
    }
  }
  for (size_t i = 0; i < level_count_; ++i) {
    if (higher_[i][i]) {
      return false;  // cycle: not a strict partial order
    }
  }
  finalized_ = true;
  return true;
}

bool LevelAssignment::Higher(LevelId a, LevelId b) const {
  assert(finalized_ && "call Finalize() before Higher queries");
  if (a >= level_count_ || b >= level_count_) {
    return false;
  }
  return higher_[a][b];
}

bool LevelAssignment::HigherVertex(VertexId a, VertexId b) const {
  LevelId la = LevelOf(a);
  LevelId lb = LevelOf(b);
  if (la == kNoLevel || lb == kNoLevel) {
    return false;
  }
  return Higher(la, lb);
}

void LevelAssignment::SetLevelName(LevelId level, std::string name) {
  assert(level < level_count_);
  names_[level] = std::move(name);
}

const std::string& LevelAssignment::LevelName(LevelId level) const {
  static const std::string kUnassigned = "<none>";
  if (level >= level_count_) {
    return kUnassigned;
  }
  return names_[level];
}

std::vector<std::vector<VertexId>> LevelAssignment::Members() const {
  std::vector<std::vector<VertexId>> members(level_count_);
  for (VertexId v = 0; v < level_of_.size(); ++v) {
    if (level_of_[v] != kNoLevel) {
      members[level_of_[v]].push_back(v);
    }
  }
  return members;
}

std::vector<std::vector<VertexId>> KnowStepDigraph(const ProtectionGraph& g) {
  std::vector<std::vector<VertexId>> adj(g.VertexCount());
  // Template ForEachOutEdge: the per-edge visitor is inlined, no
  // std::function dispatch in this O(E) sweep.
  for (VertexId u = 0; u < g.VertexCount(); ++u) {
    g.ForEachOutEdge(u, [&](const Edge& e) {
      tg::RightSet total = e.TotalRights();
      if (total.Has(Right::kRead) && g.IsSubject(e.src)) {
        adj[e.src].push_back(e.dst);  // src reads dst: src knows dst
      }
      if (total.Has(Right::kWrite) && g.IsSubject(e.src)) {
        adj[e.dst].push_back(e.src);  // src writes dst: dst knows src
      }
    });
  }
  return adj;
}

std::vector<std::vector<VertexId>> BocDigraph(const tg::AnalysisSnapshot& snap,
                                              tg_util::ThreadPool* pool) {
  tg::SnapshotBfsOptions options;
  options.use_implicit = true;
  tg_util::ThreadPool& runner = pool != nullptr ? *pool : tg_util::ThreadPool::Shared();
  const std::vector<VertexId>& subjects = snap.Subjects();
  std::vector<std::vector<VertexId>> adj(snap.vertex_count());
  // Reach rows arrive ascending, so each list is sorted; only subjects are
  // kept and self-edges are dropped.
  auto add_edge = [&](VertexId u, size_t v) {
    if (v != u && snap.IsSubject(static_cast<VertexId>(v))) {
      adj[u].push_back(static_cast<VertexId>(v));
    }
  };
  if (tg::BitMatrix::AllocationBytes(subjects.size(), snap.vertex_count()) >
      tg::BitMatrix::MaxBytes()) {
    // Dense subject x vertex matrix over the cap: hold the BOC relation as
    // hybrid ReachRows instead.  Row contents are identical (same slices),
    // so the digraph — and every level decision downstream — is unchanged.
    std::vector<tg::ReachRow> rows = tg::SnapshotWordReachableAllRows(
        snap, std::span<const VertexId>(subjects), tg::BridgeOrConnectionDfa(), options,
        &runner);
    runner.ParallelFor(subjects.size(), [&](size_t i) {
      rows[i].ForEachSetBit([&](size_t v) { add_edge(subjects[i], v); });
    });
    return adj;
  }
  tg::BitMatrix reach = tg::SnapshotWordReachableAll(
      snap, std::span<const VertexId>(subjects), tg::BridgeOrConnectionDfa(), options, &runner);
  runner.ParallelFor(subjects.size(), [&](size_t i) {
    tg::ForEachSetBit(reach.Row(i), [&](size_t v) { add_edge(subjects[i], v); });
  });
  return adj;
}

std::vector<uint32_t> StronglyConnectedComponents(
    const std::vector<std::vector<VertexId>>& adjacency) {
  return tg::StronglyConnectedComponents(adjacency);
}

namespace {

// Builds a LevelAssignment from a step digraph: SCCs become levels, and a
// level is higher than another iff it can reach it in the condensation
// (knowing someone's information places you above them).
LevelAssignment LevelsFromDigraph(const std::vector<std::vector<VertexId>>& adj,
                                  const std::vector<bool>& participates) {
  const size_t n = adj.size();
  // Condense first: levels are components of the quotient, and the higher
  // relation is exactly the deduplicated quotient edge set — O(components +
  // quotient edges) declarations instead of re-walking every raw edge.
  // (Both digraphs fed here keep participation closed under SCCs: BOC
  // edges only link subjects, and the rw digraph participates everywhere,
  // so a quotient edge between two remapped components always corresponds
  // to a participating raw edge.)
  const tg::QuotientGraph quotient = tg::BuildQuotient(adj);
  const std::vector<uint32_t>& comp = quotient.component;
  // Renumber to only components containing participating vertices.
  std::vector<uint32_t> remap(quotient.component_count, kNoLevel);
  uint32_t level_count = 0;
  for (size_t v = 0; v < n; ++v) {
    if (participates[v] && remap[comp[v]] == kNoLevel) {
      remap[comp[v]] = level_count++;
    }
  }
  LevelAssignment assignment(n, level_count);
  for (size_t v = 0; v < n; ++v) {
    if (participates[v]) {
      assignment.Assign(static_cast<VertexId>(v), remap[comp[v]]);
    }
  }
  for (uint32_t c = 0; c < quotient.component_count; ++c) {
    if (remap[c] == kNoLevel) {
      continue;
    }
    for (uint32_t e = quotient.offsets[c]; e < quotient.offsets[c + 1]; ++e) {
      const uint32_t d = quotient.targets[e];
      if (remap[d] != kNoLevel) {
        assignment.DeclareHigher(remap[c], remap[d]);
      }
    }
  }
  bool ok = assignment.Finalize();
  assert(ok && "condensation of an SCC decomposition cannot have cycles");
  (void)ok;
  return assignment;
}

}  // namespace

LevelAssignment ComputeRwLevels(const ProtectionGraph& g) {
  std::vector<bool> all(g.VertexCount(), true);
  return LevelsFromDigraph(KnowStepDigraph(g), all);
}

namespace {

std::vector<bool> SubjectMask(const ProtectionGraph& g) {
  std::vector<bool> subjects(g.VertexCount(), false);
  for (VertexId v = 0; v < g.VertexCount(); ++v) {
    subjects[v] = g.IsSubject(v);
  }
  return subjects;
}

// The one ComputeRwtgLevels body behind both overloads: the cache's
// snapshot when there is one, else a fresh build.
LevelAssignment RwtgLevelsImpl(const ProtectionGraph& g, tg_analysis::AnalysisCache* cache,
                               tg_util::ThreadPool* pool) {
  tg_util::QueryScope query(tg_util::QueryKind::kRwtgLevels);
  std::optional<tg::AnalysisSnapshot> owned;
  const tg::AnalysisSnapshot& snap = cache != nullptr ? cache->Snapshot(g) : owned.emplace(g);
  LevelAssignment levels = LevelsFromDigraph(BocDigraph(snap, pool), SubjectMask(g));
  query.set_result(levels.LevelCount());
  return levels;
}

}  // namespace

LevelAssignment ComputeRwtgLevels(const ProtectionGraph& g, tg_util::ThreadPool* pool) {
  return RwtgLevelsImpl(g, nullptr, pool);
}

LevelAssignment ComputeRwtgLevels(const ProtectionGraph& g, tg_analysis::AnalysisCache& cache,
                                  tg_util::ThreadPool* pool) {
  return RwtgLevelsImpl(g, &cache, pool);
}

void AssignObjectLevels(const ProtectionGraph& g, LevelAssignment& assignment) {
  for (VertexId v = 0; v < g.VertexCount(); ++v) {
    if (!g.IsObject(v) || assignment.IsAssigned(v)) {
      continue;
    }
    // Collect levels of subjects with explicit r or w access.
    std::vector<LevelId> accessor_levels;
    g.ForEachInEdge(v, [&](const Edge& e) {
      if (!g.IsSubject(e.src)) {
        return;
      }
      if (!e.explicit_rights.Intersects(tg::kReadWrite)) {
        return;
      }
      LevelId level = assignment.LevelOf(e.src);
      if (level != kNoLevel) {
        accessor_levels.push_back(level);
      }
    });
    if (accessor_levels.empty()) {
      continue;
    }
    // The lowest accessor level, if the accessors form a chain.
    LevelId lowest = accessor_levels[0];
    bool comparable = true;
    for (LevelId level : accessor_levels) {
      if (level == lowest) {
        continue;
      }
      if (assignment.Higher(lowest, level)) {
        lowest = level;
      } else if (!assignment.Higher(level, lowest)) {
        comparable = false;
        break;
      }
    }
    if (comparable) {
      assignment.Assign(v, lowest);
    }
  }
}

}  // namespace tg_hier

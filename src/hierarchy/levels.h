// Security levels: rw-levels, rwtg-levels, and level assignments.
//
// An rw-level is a maximal set of vertices with *mutual* can_know_f (de
// facto information equivalence, section 4); an rwtg-level is a maximal set
// of subjects with mutual can_know (de jure + de facto, section 5).  Both
// are strongly connected components:
//
//  * can_know_f is the reflexive-transitive closure of the one-step "know"
//    relation (x -r-> y read by a subject, or y -w-> x written by a
//    subject), so rw-levels are the SCCs of that step digraph.
//  * For subjects, can_know coincides with reachability over single
//    bridge-or-connection paths (an rw-initial span to x read backwards is
//    the connection w< t<*, and an rw-terminal span is t>* r>), so
//    rwtg-levels are the SCCs of the BOC digraph.
//
// A LevelAssignment maps vertices to level ids with a strict partial order
// over levels.  Assignments come either from the classification builders
// (designer-given hierarchies, Figures 4.1/4.2) or computed from a graph.

#ifndef SRC_HIERARCHY_LEVELS_H_
#define SRC_HIERARCHY_LEVELS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/analysis/cache.h"
#include "src/tg/graph.h"
#include "src/tg/snapshot.h"
#include "src/util/thread_pool.h"

namespace tg_hier {

using LevelId = uint32_t;
inline constexpr LevelId kNoLevel = 0xffffffffu;

class LevelAssignment {
 public:
  LevelAssignment() = default;

  // Creates `level_count` levels with no order and every vertex unassigned.
  LevelAssignment(size_t vertex_count, size_t level_count);

  size_t LevelCount() const { return level_count_; }

  // Assigns v to `level` (kNoLevel unassigns).  Vertex ids beyond the
  // constructed vertex count *grow* the assignment — an explicit feature:
  // create rules add vertices after a hierarchy was designed, and the
  // level policies assign the newcomers on the fly (LevelPolicy::
  // NotifyApplied).  Ids in the gap stay unassigned.  Returns false and
  // changes nothing for kInvalidVertex or a level outside
  // [0, LevelCount()) u {kNoLevel}.
  bool Assign(tg::VertexId v, LevelId level);
  LevelId LevelOf(tg::VertexId v) const {
    return v < level_of_.size() ? level_of_[v] : kNoLevel;
  }
  bool IsAssigned(tg::VertexId v) const { return LevelOf(v) != kNoLevel; }

  // Declares a strictly higher than b.  Callers must keep the relation a
  // strict partial order; Finalize() computes the transitive closure and
  // verifies antisymmetry.
  void DeclareHigher(LevelId a, LevelId b);

  // Transitively closes the declared relation.  Returns false (and leaves
  // the assignment unusable for Higher queries) on a cycle.
  bool Finalize();

  // a strictly higher than b (after Finalize).
  bool Higher(LevelId a, LevelId b) const;
  bool Comparable(LevelId a, LevelId b) const {
    return a == b || Higher(a, b) || Higher(b, a);
  }

  // Vertex-level conveniences; unassigned vertices compare with nothing.
  bool HigherVertex(tg::VertexId a, tg::VertexId b) const;
  bool SameLevel(tg::VertexId a, tg::VertexId b) const {
    return IsAssigned(a) && LevelOf(a) == LevelOf(b);
  }

  // Optional display names for levels.
  void SetLevelName(LevelId level, std::string name);
  const std::string& LevelName(LevelId level) const;

  // Members of each level.
  std::vector<std::vector<tg::VertexId>> Members() const;

 private:
  size_t level_count_ = 0;
  std::vector<LevelId> level_of_;
  std::vector<std::vector<bool>> higher_;  // higher_[a][b]: a > b, closed
  std::vector<std::string> names_;
  bool finalized_ = false;
};

// The one-step know digraph over all vertices: edge x -> y iff x directly
// learns y's information (x -r-> y with x a subject, or y -w-> x with y a
// subject; explicit or implicit labels both count).
std::vector<std::vector<tg::VertexId>> KnowStepDigraph(const tg::ProtectionGraph& g);

// The bridge-or-connection digraph over subjects: edge u -> v iff a single
// rwtg-path from u to v carries a word in B U C.  Non-subjects have empty
// adjacency.  Built with the bit-parallel engine (64 subjects per product
// BFS, slices fanned over `pool`; nullptr = the shared TG_THREADS-sized
// pool) into a subject x vertex bit matrix, or into hybrid ReachRows when
// that matrix would exceed BitMatrix::MaxBytes(); the result is
// deterministic for any pool size and identical to a per-subject scalar
// construction.
std::vector<std::vector<tg::VertexId>> BocDigraph(const tg::AnalysisSnapshot& snap,
                                                  tg_util::ThreadPool* pool = nullptr);

// SCC decomposition of a digraph (Tarjan).  Returns component id per node;
// ids are in reverse topological order of the condensation (an edge u -> v
// between components implies comp[u] >= comp[v]).  Thin wrapper over
// tg::StronglyConnectedComponents (src/tg/bitset_reach.h), kept here so
// hierarchy callers need not reach into the tg layer.
std::vector<uint32_t> StronglyConnectedComponents(
    const std::vector<std::vector<tg::VertexId>>& adjacency);

// rw-levels of g: vertices grouped by mutual can_know_f, with the higher
// relation induced by condensation reachability (a level that can know
// another is higher).
LevelAssignment ComputeRwLevels(const tg::ProtectionGraph& g);

// rwtg-levels of g: subjects grouped by mutual can_know.  Objects are left
// unassigned (use AssignObjectLevels for the Theorem 4.5 rule).  The BOC
// digraph construction dominates the cost and runs on `pool`; any pool
// size yields the identical assignment.
LevelAssignment ComputeRwtgLevels(const tg::ProtectionGraph& g,
                                  tg_util::ThreadPool* pool = nullptr);

// Cache-aware overload: runs on the cache's overlay-patched snapshot
// (shared with CheckSecure and FindCrossLevelChannels) instead of building
// one.  Identical assignment to the other overloads.
LevelAssignment ComputeRwtgLevels(const tg::ProtectionGraph& g,
                                  tg_analysis::AnalysisCache& cache,
                                  tg_util::ThreadPool* pool = nullptr);

// Applies the paper's object-level rule to `assignment`: an object belongs
// to the *lowest* level of any subject with explicit r or w access to it
// (when those levels are incomparable the object stays unassigned, matching
// the paper's restriction of the rule to hierarchies).
void AssignObjectLevels(const tg::ProtectionGraph& g, LevelAssignment& assignment);

}  // namespace tg_hier

#endif  // SRC_HIERARCHY_LEVELS_H_

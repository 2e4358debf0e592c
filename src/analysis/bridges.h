// Bridges and connections between subjects.
//
// A *bridge* is a tg-path between two subjects with word in
// { t>*, t<*, t>* g> t<*, t>* g< t<* }: the channel over which cooperating
// subjects move *authority* between islands.  A *connection* is an rwtg-path
// with word in { t>* r>, w< t<*, t>* r> w< t<* }: the channel over which
// *information* flows directly between subjects.  Theorem 5.2 characterizes
// security as the absence of bridges and connections between rwtg-levels.

#ifndef SRC_ANALYSIS_BRIDGES_H_
#define SRC_ANALYSIS_BRIDGES_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/tg/bitset_reach.h"
#include "src/tg/graph.h"
#include "src/tg/path.h"
#include "src/tg/snapshot.h"

namespace tg_analysis {

// A bridge from u to v (both subjects), or nullopt.
std::optional<tg::GraphPath> FindBridge(const tg::ProtectionGraph& g, tg::VertexId u,
                                        tg::VertexId v);

// A connection from u to v (both subjects; information flows v -> u).
std::optional<tg::GraphPath> FindConnection(const tg::ProtectionGraph& g, tg::VertexId u,
                                            tg::VertexId v);

// A bridge-or-connection path (condition (c) of Theorem 3.2).
std::optional<tg::GraphPath> FindBridgeOrConnection(const tg::ProtectionGraph& g,
                                                    tg::VertexId u, tg::VertexId v);

// All subjects reachable from any seed subject by chains that alternate
// island co-membership and bridges — the island/bridge closure used by
// can_share's condition (iii).  Seeds must be subjects.
std::vector<bool> BridgeClosure(const tg::ProtectionGraph& g,
                                const std::vector<tg::VertexId>& seeds);

// Same, but chaining bridge-or-connection paths and rwtg-level-style
// co-membership is NOT applied: pure directional closure over subjects of
// condition (c) of Theorem 3.2 (u_i -> u_{i+1} words in B U C).
std::vector<bool> BridgeOrConnectionClosure(const tg::ProtectionGraph& g,
                                            const std::vector<tg::VertexId>& seeds);

// Snapshot overloads of the closures for the knowable pipeline and caches
// that reuse one AnalysisSnapshot across many queries (bit-identical results;
// the graph overloads above are thin wrappers over these).
std::vector<bool> BridgeClosure(const tg::AnalysisSnapshot& snap,
                                const std::vector<tg::VertexId>& seeds);
std::vector<bool> BridgeOrConnectionClosure(const tg::AnalysisSnapshot& snap,
                                            const std::vector<tg::VertexId>& seeds);

// As the snapshot BridgeOrConnectionClosure, additionally OR-ing into
// touched_words ((vertex_count + 63) / 64 words, reassigned here) every
// vertex any closure round's product BFS visited in any DFA state — the
// closure's conservative dependency footprint for scoped cache
// invalidation (see tg::SnapshotWordReachableTouched).
std::vector<bool> BridgeOrConnectionClosureTouched(const tg::AnalysisSnapshot& snap,
                                                   const std::vector<tg::VertexId>& seeds,
                                                   std::vector<uint64_t>& touched_words);

// Low-memory bitset form of the directional closure, for the level-sharded
// audit: the same least fixpoint as BridgeOrConnectionClosure, but seeds
// and result are vertex bitsets ((vertex_count + 63) / 64 words) and every
// round is one reach-only sweep over a PREBUILT product graph (built once
// per audit from BridgeOrConnectionDfa with use_implicit = true, shared
// read-only across shards).  Non-subject / invalid seed bits are ignored,
// matching the vector overloads.  `stats` (if given) accumulates sweep
// tallies and `rounds` (if given) the number of fixpoint rounds — both
// deterministic for any thread count.
std::vector<uint64_t> SubjectClosureWords(const tg::AnalysisSnapshot& snap,
                                          const tg::ProductGraph& graph,
                                          std::span<const uint64_t> seed_words,
                                          tg::ProductReachStats* stats = nullptr,
                                          uint64_t* rounds = nullptr);

}  // namespace tg_analysis

#endif  // SRC_ANALYSIS_BRIDGES_H_

// Bit-parallel all-pairs reachability over AnalysisSnapshot.
//
// Every all-pairs question in the repository (rwtg-levels, the security
// audit, the knowable matrix) used to run one scalar product BFS per source
// vertex: n independent O((n + m) * |Q|) sweeps.  This engine packs 64
// sources into one machine word and runs the *same* product BFS once per
// 64-source slice: the per-(vertex, DFA-state) "visited" flag becomes a
// 64-bit lane mask, and each relaxation ORs a whole word of sources across
// a precomputed product-graph CSR edge instead of re-walking the snapshot
// adjacency once per source.  Every row of the result — including
// min_steps semantics, which hinge on first-visit depth — is bit-for-bit
// identical to SnapshotWordReachable run with that single source: the
// min_steps == 0 fast path is pure reachability (depth-free), and
// min_steps > 0 runs strictly layered waves whose wave-k frontier holds
// exactly the lanes whose scalar BFS would sit at depth k.
//
// Determinism rule (lane slicing): slice i always covers sources
// [64*i, 64*i + 64) in caller order, slices only write their own rows, and
// a slice's interior is single-threaded, so results and the bitreach.*
// work tallies are identical for every ThreadPool size.
//
// Layered on top: StronglyConnectedComponents (iterative Tarjan), the
// shared condensation primitive that turns "mutual reachability" questions
// (rwtg-levels, the knowable closure) into one linear pass over a reach
// matrix instead of pairwise row comparisons.

#ifndef SRC_TG_BITSET_REACH_H_
#define SRC_TG_BITSET_REACH_H_

#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/tg/reach_row.h"
#include "src/tg/snapshot.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace tg {

// A dense boolean matrix stored as row-major uint64_t words; bit (r, c) is
// word r * row_words() + (c >> 6), bit (c & 63).  Rows are independent
// cache-line-friendly bitsets, so per-row consumers take Row() spans and
// OR/AND them wholesale.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), row_words_((cols + 63) / 64),
        words_(rows * row_words_, 0) {}

  // Bytes a rows x cols matrix would allocate, computed in 64-bit so the
  // rows * row_words product cannot wrap on 32-bit size_t math.
  static uint64_t AllocationBytes(uint64_t rows, uint64_t cols) {
    return rows * ((cols + 63) / 64) * sizeof(uint64_t);
  }

  // The dense-allocation cap consulted by TryCreate and by engines that
  // choose between dense and condensed paths.  Defaults to 1 GiB;
  // overridable via TG_DENSE_MATRIX_MAX_BYTES (re-read on each call, like
  // TG_THREADS, so tests can steer the engine choice).
  static uint64_t MaxBytes();

  // Guarded construction: refuses (FAILED_PRECONDITION) instead of
  // silently attempting a fatal allocation when the matrix would exceed
  // MaxBytes().  Callers at quotient-skippable scale branch to the hybrid
  // ReachRow / sharded paths on error.
  static tg_util::StatusOr<BitMatrix> TryCreate(size_t rows, size_t cols);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t row_words() const { return row_words_; }

  bool Test(size_t r, size_t c) const {
    return (words_[r * row_words_ + (c >> 6)] >> (c & 63)) & 1;
  }
  void Set(size_t r, size_t c) {
    words_[r * row_words_ + (c >> 6)] |= uint64_t{1} << (c & 63);
  }

  std::span<const uint64_t> Row(size_t r) const {
    return {words_.data() + r * row_words_, row_words_};
  }
  std::span<uint64_t> MutableRow(size_t r) {
    return {words_.data() + r * row_words_, row_words_};
  }

  // Row r as the vector<bool> the scalar engines return.
  std::vector<bool> RowBools(size_t r) const {
    std::vector<bool> out(cols_, false);
    for (size_t c = 0; c < cols_; ++c) {
      out[c] = Test(r, c);
    }
    return out;
  }

  size_t PopcountRow(size_t r) const {
    size_t total = 0;
    for (uint64_t w : Row(r)) {
      total += static_cast<size_t>(std::popcount(w));
    }
    return total;
  }

  friend bool operator==(const BitMatrix&, const BitMatrix&) = default;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t row_words_ = 0;
  std::vector<uint64_t> words_;
};

// Calls fn(bit_index) for every set bit in `words`, ascending.
template <typename Fn>
void ForEachSetBit(std::span<const uint64_t> words, Fn fn) {
  for (size_t w = 0; w < words.size(); ++w) {
    uint64_t bits = words[w];
    while (bits != 0) {
      fn(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

// SCC decomposition of a digraph (iterative Tarjan).  Returns component id
// per node; ids are in reverse topological order of the condensation (an
// edge u -> v between components implies comp[u] >= comp[v]), so a sweep
// in ascending component id visits every successor component before the
// components that reach it.
std::vector<uint32_t> StronglyConnectedComponents(
    const std::vector<std::vector<VertexId>>& adjacency);

namespace internal {
// Observability glue, defined in bitset_reach.cc (keeps this header free
// of the metrics/trace includes).  Tallies are per-slice and deterministic
// (see the lane-slicing rule above): lane_visits sums popcount over popped
// frontier words and lane_edge_scans sums popcount * |adj(v)|, so the
// totals equal the scalar engine's bfs.node_visits / bfs.edge_scans for
// the same sources.
uint64_t BitReachStartNs();
void RecordBitReachRun(uint64_t start_ns, uint64_t lanes, uint64_t waves,
                       uint64_t word_ops, uint64_t lane_visits, uint64_t lane_edge_scans);

// The product graph (vertex, DFA state) -> successor product nodes,
// flattened to CSR once per SnapshotWordReachableAll call and shared
// read-only by every slice.  Baking the rights tests, DFA stepping, and
// the step filter into the build keeps the slice inner loop down to one
// word AND-NOT per successor.  Entries for a node preserve the scalar
// engine's relaxation order (adjacency record, then right, then forward /
// backward), so duplicate successors — two symbols funneling into the same
// (v, state) — relax in the same order and the word_ops tally matches the
// per-attempt counting of the pre-CSR engine.
struct ProductCsr {
  size_t vertex_count = 0;
  size_t states = 0;
  tg_util::Dfa::State start = 0;
  uint32_t min_steps = 0;
  std::vector<uint8_t> accepting;      // per DFA state
  std::vector<uint32_t> adj_records;   // |AdjacencyOf(u)| per vertex, for edge-scan tallies
  std::vector<uint32_t> offsets;       // node_count + 1
  std::vector<uint32_t> targets;       // successor product nodes
};

template <typename Filter>
ProductCsr BuildProductCsr(const AnalysisSnapshot& snap, const tg_util::Dfa& dfa,
                           const SnapshotBfsOptions& options, const Filter& filter) {
  const size_t n = snap.vertex_count();
  const size_t states = static_cast<size_t>(dfa.state_count());
  ProductCsr csr;
  csr.vertex_count = n;
  csr.states = states;
  csr.start = dfa.start();
  csr.min_steps = static_cast<uint32_t>(options.min_steps);
  csr.accepting.resize(states);
  std::vector<tg_util::Dfa::State> step(states * kPathSymbolCount);
  for (size_t s = 0; s < states; ++s) {
    csr.accepting[s] = dfa.IsAccepting(static_cast<tg_util::Dfa::State>(s)) ? 1 : 0;
    for (size_t sym = 0; sym < kPathSymbolCount; ++sym) {
      step[s * kPathSymbolCount + sym] =
          dfa.Step(static_cast<tg_util::Dfa::State>(s), sym);
    }
  }
  csr.adj_records.resize(n);
  csr.offsets.assign(n * states + 1, 0);
  std::vector<std::pair<VertexId, size_t>> edges;  // (target vertex, symbol index)
  for (VertexId u = 0; u < n; ++u) {
    const std::span<const AnalysisSnapshot::AdjRecord> adj = snap.AdjacencyOf(u);
    csr.adj_records[u] = static_cast<uint32_t>(adj.size());
    edges.clear();
    for (const AnalysisSnapshot::AdjRecord& rec : adj) {
      RightSet fwd = options.use_implicit ? rec.fwd_total : rec.fwd_explicit;
      RightSet back = options.use_implicit ? rec.back_total : rec.back_explicit;
      for (Right r : {Right::kRead, Right::kWrite, Right::kTake, Right::kGrant}) {
        for (int dir = 0; dir < 2; ++dir) {
          bool backward = dir == 1;
          if (!(backward ? back : fwd).Has(r)) {
            continue;
          }
          PathSymbol sym = MakeSymbol(r, backward);
          if (!filter(u, sym, rec.to)) {
            continue;
          }
          edges.emplace_back(rec.to, SymbolIndex(sym));
        }
      }
    }
    for (size_t s = 0; s < states; ++s) {
      for (const auto& [v, sym] : edges) {
        tg_util::Dfa::State next_state = step[s * kPathSymbolCount + sym];
        if (next_state == tg_util::Dfa::kReject) {
          continue;
        }
        csr.targets.push_back(
            static_cast<uint32_t>(static_cast<size_t>(v) * states + next_state));
      }
      csr.offsets[static_cast<size_t>(u) * states + s + 1] =
          static_cast<uint32_t>(csr.targets.size());
    }
  }
  return csr;
}

// One <= 64-lane slice of the bit-parallel product BFS: sources[l] drives
// lane l, and rows first_row + l of `out` receive the vertices lane l can
// reach by an accepted walk of >= csr.min_steps.  Single-threaded;
// SnapshotWordReachableAll fans slices across a pool.  Defined in
// bitset_reach.cc.
void BitReachSlice(const AnalysisSnapshot& snap, const ProductCsr& csr,
                   std::span<const VertexId> sources, BitMatrix& out, size_t first_row);
}  // namespace internal

// A reusable read-only product-graph CSR for one (snapshot, DFA, options)
// combination.  The level-sharded audit builds each stage's product graph
// ONCE and runs every shard's sweep against it, instead of paying the
// CSR build per shard; the CSR is shared read-only across pool workers.
class ProductGraph {
 public:
  template <typename Filter = NoStepFilter>
  static ProductGraph Build(const AnalysisSnapshot& snap, const tg_util::Dfa& dfa,
                            const SnapshotBfsOptions& options = {}, Filter filter = Filter{}) {
    ProductGraph pg;
    pg.csr_ = internal::BuildProductCsr(snap, dfa, options, filter);
    return pg;
  }

  const internal::ProductCsr& csr() const { return csr_; }
  size_t vertex_count() const { return csr_.vertex_count; }

 private:
  internal::ProductCsr csr_;
};

// Deterministic work tallies of one ProductReachWords sweep: each reached
// product node is popped exactly once, so visits / edge_scans do not depend
// on seed order or thread count.
struct ProductReachStats {
  uint64_t visits = 0;      // product nodes popped
  uint64_t edge_scans = 0;  // snapshot adjacency records scanned at pops
};

// Reach-only multi-source sweep: seeds every source vertex at the DFA start
// state and returns one bit per vertex reachable in an accepting state
// ((vertex_count + 63) / 64 words).  Requires csr.min_steps == 0 (pure
// reachability — no depth bookkeeping), and in exchange costs one bit per
// product node instead of SnapshotProductBfs's per-node parent/depth
// records, which is what makes per-shard sweeps feasible at 10^6 vertices.
// The reached set of a seed set is exactly the union of per-seed reaches
// (product-BFS reachability is union-distributive), which the level-sharded
// audit leans on for bit-identity with the per-source dense engine.
std::vector<uint64_t> ProductReachWords(const AnalysisSnapshot& snap, const ProductGraph& graph,
                                        std::span<const VertexId> sources,
                                        ProductReachStats* stats = nullptr);

// As above, seeding from a vertex bitset ((vertex_count + 63) / 64 words).
std::vector<uint64_t> ProductReachWords(const AnalysisSnapshot& snap, const ProductGraph& graph,
                                        std::span<const uint64_t> source_words,
                                        ProductReachStats* stats = nullptr);

// All-pairs word reachability: row i holds the vertices reachable from
// sources[i] by an accepted walk of >= options.min_steps.  Row i is
// bit-for-bit identical to SnapshotWordReachable(snap, {sources[i]}, ...);
// invalid sources yield all-zero rows.  Work fans out over `pool`
// (nullptr = the shared TG_THREADS-sized pool) in deterministic 64-source
// slices.
template <typename Filter = NoStepFilter>
BitMatrix SnapshotWordReachableAll(const AnalysisSnapshot& snap,
                                   std::span<const VertexId> sources,
                                   const tg_util::Dfa& dfa,
                                   const SnapshotBfsOptions& options = {},
                                   tg_util::ThreadPool* pool = nullptr,
                                   Filter filter = Filter{}) {
  BitMatrix out(sources.size(), snap.vertex_count());
  const size_t slices = (sources.size() + 63) / 64;
  if (slices == 0) {
    return out;
  }
  const internal::ProductCsr csr = internal::BuildProductCsr(snap, dfa, options, filter);
  tg_util::ThreadPool& runner = pool != nullptr ? *pool : tg_util::ThreadPool::Shared();
  runner.ParallelFor(slices, [&](size_t slice) {
    const size_t base = slice * 64;
    const size_t lanes = sources.size() - base < 64 ? sources.size() - base : 64;
    internal::BitReachSlice(snap, csr, sources.subspan(base, lanes), out, base);
  });
  return out;
}

// Every vertex as its own source: row v = reach from v.
template <typename Filter = NoStepFilter>
BitMatrix SnapshotWordReachableAll(const AnalysisSnapshot& snap, const tg_util::Dfa& dfa,
                                   const SnapshotBfsOptions& options = {},
                                   tg_util::ThreadPool* pool = nullptr,
                                   Filter filter = Filter{}) {
  std::vector<VertexId> sources(snap.vertex_count());
  for (size_t v = 0; v < sources.size(); ++v) {
    sources[v] = static_cast<VertexId>(v);
  }
  return SnapshotWordReachableAll(snap, std::span<const VertexId>(sources), dfa, options,
                                  pool, std::move(filter));
}

// As SnapshotWordReachableAll, but each row materializes as a hybrid
// tg::ReachRow instead of a dense BitMatrix row, so the result costs
// O(set bits) for sparse sources.  Rows are computed by the same
// deterministic 64-source slices (each slice keeps a <= 64 x n dense
// scratch matrix, then compresses its own rows), so row i is content-equal
// to SnapshotWordReachableAll's row i for every pool size.
template <typename Filter = NoStepFilter>
std::vector<ReachRow> SnapshotWordReachableAllRows(const AnalysisSnapshot& snap,
                                                   std::span<const VertexId> sources,
                                                   const tg_util::Dfa& dfa,
                                                   const SnapshotBfsOptions& options = {},
                                                   tg_util::ThreadPool* pool = nullptr,
                                                   Filter filter = Filter{}) {
  std::vector<ReachRow> rows(sources.size());
  const size_t slices = (sources.size() + 63) / 64;
  if (slices == 0) {
    return rows;
  }
  const internal::ProductCsr csr = internal::BuildProductCsr(snap, dfa, options, filter);
  tg_util::ThreadPool& runner = pool != nullptr ? *pool : tg_util::ThreadPool::Shared();
  runner.ParallelFor(slices, [&](size_t slice) {
    const size_t base = slice * 64;
    const size_t lanes = sources.size() - base < 64 ? sources.size() - base : 64;
    BitMatrix scratch(lanes, snap.vertex_count());
    internal::BitReachSlice(snap, csr, sources.subspan(base, lanes), scratch, 0);
    for (size_t l = 0; l < lanes; ++l) {
      rows[base + l] = ReachRow::FromDense(scratch.Row(l), snap.vertex_count());
      RecordReachRowStats(rows[base + l]);
    }
  });
  return rows;
}

}  // namespace tg

#endif  // SRC_TG_BITSET_REACH_H_

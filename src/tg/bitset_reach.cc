#include "src/tg/bitset_reach.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <string>

#include "src/util/metrics.h"
#include "src/util/trace.h"

namespace tg {

namespace internal {

uint64_t BitReachStartNs() {
  return tg_util::MetricsEnabled() ? tg_util::TraceBuffer::NowNs() : 0;
}

void RecordBitReachRun(uint64_t start_ns, uint64_t lanes, uint64_t waves,
                       uint64_t word_ops, uint64_t lane_visits, uint64_t lane_edge_scans) {
  if (!tg_util::MetricsEnabled()) {
    return;
  }
  static tg_util::Counter& slices = tg_util::GetCounter("bitreach.slices");
  static tg_util::Counter& wave_count = tg_util::GetCounter("bitreach.waves");
  static tg_util::Counter& ops = tg_util::GetCounter("bitreach.word_ops");
  static tg_util::Counter& visits = tg_util::GetCounter("bitreach.lane_visits");
  static tg_util::Counter& scans = tg_util::GetCounter("bitreach.lane_edge_scans");
  static tg_util::Histogram& run_ns = tg_util::GetHistogram("bitreach.run_ns");
  slices.Add();
  wave_count.Add(waves);
  ops.Add(word_ops);
  visits.Add(lane_visits);
  scans.Add(lane_edge_scans);
  uint64_t end_ns = tg_util::TraceBuffer::NowNs();
  run_ns.Observe(end_ns - start_ns);
  tg_util::TraceBuffer::Instance().Record(tg_util::TraceKind::kBitReach, start_ns,
                                          end_ns - start_ns, lanes, word_ops);
}

// Two interior variants, chosen by csr.min_steps alone (so the choice is
// deterministic): min_steps == 0 runs a depth-free worklist where lanes
// arriving at a node between pops accumulate into one pending word — the
// coalescing that lets one pop serve many sources at once.  min_steps > 0
// needs first-visit depths, so it runs strictly layered waves instead.
// Both visit every reached (node, lane) pair exactly once — a lane's bit
// enters a node's pending word at most once (the reached guard) and every
// pending bit is eventually popped — so the rows and the popcount-based
// lane tallies are identical either way.
void BitReachSlice(const AnalysisSnapshot& snap, const ProductCsr& csr,
                   std::span<const VertexId> sources, BitMatrix& out, size_t first_row) {
  const size_t n = csr.vertex_count;
  const size_t states = csr.states;
  const size_t node_count = n * states;
  const uint64_t start_ns = BitReachStartNs();
  // Lane masks per (vertex, state) product node: reached = ever-visited,
  // cur_bits = lanes newly discovered and not yet processed.
  std::vector<uint64_t> reached(node_count, 0);
  std::vector<uint64_t> cur_bits(node_count, 0);
  std::vector<uint64_t> accept(n, 0);  // lanes that reached v accepting
  std::vector<uint32_t> cur;
  uint64_t waves = 0;
  uint64_t word_ops = 0;
  uint64_t lane_visits = 0;
  uint64_t lane_edge_scans = 0;

  for (size_t l = 0; l < sources.size(); ++l) {
    if (!snap.IsValidVertex(sources[l])) {
      continue;  // invalid source: its row stays all-zero, as in the scalar engine
    }
    size_t idx = static_cast<size_t>(sources[l]) * states + static_cast<size_t>(csr.start);
    if (cur_bits[idx] == 0) {
      cur.push_back(static_cast<uint32_t>(idx));
    }
    cur_bits[idx] |= uint64_t{1} << l;
    reached[idx] |= uint64_t{1} << l;
  }

  // The relaxation shared by both variants: pop word w at product node
  // idx, tally it, record acceptance, and push every newly reached
  // (node, lane) onto `pending` (pending[i] bits, queue `work`).
  auto relax = [&](uint32_t idx, uint64_t w, bool accepting, std::vector<uint64_t>& pending,
                   std::vector<uint32_t>& work) {
    const size_t u = idx / states;
    const size_t state = idx % states;
    const uint64_t lanes_here = static_cast<uint64_t>(std::popcount(w));
    lane_visits += lanes_here;
    lane_edge_scans += lanes_here * csr.adj_records[u];
    if (accepting && csr.accepting[state] != 0) {
      accept[u] |= w;
    }
    const uint32_t begin = csr.offsets[idx];
    const uint32_t end = csr.offsets[idx + 1];
    for (uint32_t i = begin; i < end; ++i) {
      const uint32_t v_idx = csr.targets[i];
      const uint64_t add = w & ~reached[v_idx];
      if (add == 0) {
        continue;
      }
      ++word_ops;
      if (pending[v_idx] == 0) {
        work.push_back(v_idx);
      }
      pending[v_idx] |= add;
      reached[v_idx] |= add;
    }
  };

  if (csr.min_steps == 0) {
    // Depth-free worklist (reachability only: every accepting visit counts,
    // whatever its depth).  Successors feed the same queue; lanes landing
    // on a queued node merge into its pending word instead of forcing a
    // separate pop per arrival depth.  `waves` counts FIFO rounds (queue
    // generations), the analogue of BFS depth.
    size_t head = 0;
    size_t round_end = cur.size();
    while (head < cur.size()) {
      ++waves;
      while (head < round_end) {
        const uint32_t idx = cur[head++];
        const uint64_t w = cur_bits[idx];
        cur_bits[idx] = 0;
        relax(idx, w, /*accepting=*/true, cur_bits, cur);
      }
      round_end = cur.size();
    }
  } else {
    // Strictly layered waves: wave d pops relax only into wave d + 1, so a
    // lane's first-visit depth — which decides min_steps acceptance — is
    // exactly its scalar BFS depth.
    std::vector<uint64_t> next_bits(node_count, 0);
    std::vector<uint32_t> next;
    size_t depth = 0;
    while (!cur.empty()) {
      ++waves;
      for (uint32_t idx : cur) {
        const uint64_t w = cur_bits[idx];
        cur_bits[idx] = 0;
        relax(idx, w, depth >= csr.min_steps, next_bits, next);
      }
      cur.swap(next);
      next.clear();
      cur_bits.swap(next_bits);  // popped cur_bits are all zero again
      ++depth;
    }
  }

  // Scatter the accumulated lane masks into the source-major result rows.
  for (size_t v = 0; v < n; ++v) {
    uint64_t lanes = accept[v];
    while (lanes != 0) {
      size_t l = static_cast<size_t>(std::countr_zero(lanes));
      out.Set(first_row + l, v);
      lanes &= lanes - 1;
    }
  }
  RecordBitReachRun(start_ns, sources.size(), waves, word_ops, lane_visits, lane_edge_scans);
}

}  // namespace internal

std::vector<uint32_t> StronglyConnectedComponents(
    const std::vector<std::vector<VertexId>>& adjacency) {
  const size_t n = adjacency.size();
  constexpr uint32_t kUnvisited = 0xffffffffu;
  std::vector<uint32_t> index(n, kUnvisited);
  std::vector<uint32_t> lowlink(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<uint32_t> component(n, kUnvisited);
  std::vector<size_t> stack;
  uint32_t next_index = 0;
  uint32_t next_component = 0;

  // Iterative Tarjan: frames of (node, child cursor).
  struct Frame {
    size_t node;
    size_t child = 0;
  };
  std::vector<Frame> frames;

  for (size_t root = 0; root < n; ++root) {
    if (index[root] != kUnvisited) {
      continue;
    }
    frames.push_back(Frame{root});
    while (!frames.empty()) {
      Frame& frame = frames.back();
      size_t v = frame.node;
      if (frame.child == 0) {
        index[v] = lowlink[v] = next_index++;
        stack.push_back(v);
        on_stack[v] = true;
      }
      bool descended = false;
      while (frame.child < adjacency[v].size()) {
        size_t w = adjacency[v][frame.child++];
        if (index[w] == kUnvisited) {
          frames.push_back(Frame{w});
          descended = true;
          break;
        }
        if (on_stack[w]) {
          lowlink[v] = std::min(lowlink[v], index[w]);
        }
      }
      if (descended) {
        continue;
      }
      if (lowlink[v] == index[v]) {
        while (true) {
          size_t w = stack.back();
          stack.pop_back();
          on_stack[w] = false;
          component[w] = next_component;
          if (w == v) {
            break;
          }
        }
        ++next_component;
      }
      frames.pop_back();
      if (!frames.empty()) {
        lowlink[frames.back().node] = std::min(lowlink[frames.back().node], lowlink[v]);
      }
    }
  }
  return component;
}

uint64_t BitMatrix::MaxBytes() {
  constexpr uint64_t kDefault = uint64_t{1} << 30;  // 1 GiB
  const char* env = std::getenv("TG_DENSE_MATRIX_MAX_BYTES");
  if (env == nullptr || *env == '\0') {
    return kDefault;
  }
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0' || parsed == 0) {
    return kDefault;
  }
  return static_cast<uint64_t>(parsed);
}

tg_util::StatusOr<BitMatrix> BitMatrix::TryCreate(size_t rows, size_t cols) {
  const uint64_t bytes = AllocationBytes(rows, cols);
  const uint64_t cap = MaxBytes();
  if (bytes > cap) {
    return tg_util::Status::FailedPrecondition(
        "dense BitMatrix of " + std::to_string(rows) + " x " + std::to_string(cols) +
        " needs " + std::to_string(bytes) + " bytes, over the TG_DENSE_MATRIX_MAX_BYTES cap of " +
        std::to_string(cap) + "; use the condensed/sharded engine at this scale");
  }
  return BitMatrix(rows, cols);
}

namespace {

// Shared interior of both ProductReachWords overloads: drain a reach-only
// worklist from the already-seeded frontier.
std::vector<uint64_t> DrainProductReach(const internal::ProductCsr& csr,
                                        std::vector<uint8_t>&& visited,
                                        std::vector<uint32_t>&& work,
                                        ProductReachStats* stats) {
  assert(csr.min_steps == 0 && "reach-only sweep cannot honor min_steps");
  const size_t states = csr.states;
  std::vector<uint64_t> accept((csr.vertex_count + 63) / 64, 0);
  uint64_t visits = 0;
  uint64_t edge_scans = 0;
  while (!work.empty()) {
    const uint32_t idx = work.back();
    work.pop_back();
    const size_t u = idx / states;
    const size_t s = idx % states;
    ++visits;
    edge_scans += csr.adj_records[u];
    if (csr.accepting[s] != 0) {
      accept[u >> 6] |= uint64_t{1} << (u & 63);
    }
    for (uint32_t e = csr.offsets[idx]; e < csr.offsets[idx + 1]; ++e) {
      const uint32_t next = csr.targets[e];
      if (visited[next] == 0) {
        visited[next] = 1;
        work.push_back(next);
      }
    }
  }
  if (stats != nullptr) {
    stats->visits += visits;
    stats->edge_scans += edge_scans;
  }
  return accept;
}

}  // namespace

std::vector<uint64_t> ProductReachWords(const AnalysisSnapshot& snap, const ProductGraph& graph,
                                        std::span<const VertexId> sources,
                                        ProductReachStats* stats) {
  const internal::ProductCsr& csr = graph.csr();
  std::vector<uint8_t> visited(csr.vertex_count * csr.states, 0);
  std::vector<uint32_t> work;
  work.reserve(sources.size());
  for (VertexId v : sources) {
    if (!snap.IsValidVertex(v)) {
      continue;
    }
    const size_t idx = static_cast<size_t>(v) * csr.states + static_cast<size_t>(csr.start);
    if (visited[idx] == 0) {
      visited[idx] = 1;
      work.push_back(static_cast<uint32_t>(idx));
    }
  }
  return DrainProductReach(csr, std::move(visited), std::move(work), stats);
}

std::vector<uint64_t> ProductReachWords(const AnalysisSnapshot& snap, const ProductGraph& graph,
                                        std::span<const uint64_t> source_words,
                                        ProductReachStats* stats) {
  const internal::ProductCsr& csr = graph.csr();
  std::vector<uint8_t> visited(csr.vertex_count * csr.states, 0);
  std::vector<uint32_t> work;
  ForEachSetBit(source_words, [&](size_t v) {
    if (v >= csr.vertex_count || !snap.IsValidVertex(static_cast<VertexId>(v))) {
      return;
    }
    const size_t idx = v * csr.states + static_cast<size_t>(csr.start);
    if (visited[idx] == 0) {
      visited[idx] = 1;
      work.push_back(static_cast<uint32_t>(idx));
    }
  });
  return DrainProductReach(csr, std::move(visited), std::move(work), stats);
}

}  // namespace tg

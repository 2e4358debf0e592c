#include "src/analysis/provenance.h"

#include <cstdio>
#include <functional>
#include <iterator>
#include <map>

#include "src/analysis/bridge_enum.h"
#include "src/analysis/bridges.h"
#include "src/analysis/can_know.h"
#include "src/analysis/can_share.h"
#include "src/analysis/oracle.h"
#include "src/analysis/spans.h"
#include "src/analysis/witness_builder.h"
#include "src/tg/rights.h"
#include "src/tg/witness.h"
#include "src/util/flight_recorder.h"
#include "src/util/metrics.h"
#include "src/util/strings.h"

namespace tg_analysis {

using tg::ProtectionGraph;
using tg::VertexId;
using tg_util::MetricsRegistry;
using tg_util::QueryKind;
using tg_util::QueryScope;
using tg_util::TraceBuffer;
using tg_util::TraceEvent;

namespace {

// Counters whose movement during one query is provenance-relevant: they
// tell apart cached, patched, and rebuilt answers and size the work done.
constexpr const char* kDeltaCounters[] = {
    "cache.hits",
    "cache.misses",
    "cache.snapshot_rebuilds",
    "snapshot.builds",
    "incremental.overlay_patches",
    "incremental.rows_reused",
    "bfs.runs",
    "bfs.node_visits",
    "bitreach.slices",
};

std::vector<uint64_t> SnapshotCounters() {
  std::vector<uint64_t> values;
  values.reserve(std::size(kDeltaCounters));
  for (const char* name : kDeltaCounters) {
    values.push_back(MetricsRegistry::Instance().CounterValue(name));
  }
  return values;
}

// How the answering snapshot came to be, from this call's counter deltas:
// a full rebuild beats a patch beats a cached row beats plain reuse.
std::string DeriveSnapshotSource(const QueryProvenance& p) {
  uint64_t rebuilds = 0, patches = 0, hits = 0;
  for (const auto& [name, delta] : p.metrics_delta) {
    if (name == std::string_view("cache.snapshot_rebuilds") ||
        name == std::string_view("snapshot.builds")) {
      rebuilds += delta;
    } else if (name == std::string_view("incremental.overlay_patches")) {
      patches += delta;
    } else if (name == std::string_view("cache.hits")) {
      hits += delta;
    }
  }
  if (rebuilds > 0) {
    return "rebuilt";
  }
  if (patches > 0) {
    return "patched";
  }
  if (hits > 0) {
    return "cached-row";
  }
  return "reused";
}

// Shared run harness: opens the root QueryScope, runs the predicate,
// collects the query's spans from the ring, and folds the counter deltas.
template <typename Fn>
void RunExplained(QueryProvenance& p, const ProtectionGraph& g, QueryKind kind, Fn&& predicate) {
  p.graph_epoch = g.epoch();
  const std::vector<uint64_t> before = SnapshotCounters();
  const uint64_t start_ns = TraceBuffer::NowNs();
  {
    QueryScope query(kind);
    p.query_id = query.query_id();
    p.verdict = predicate();
    query.set_verdict(p.verdict);
  }
  p.duration_ns = TraceBuffer::NowNs() - start_ns;
  const std::vector<uint64_t> after = SnapshotCounters();
  for (size_t i = 0; i < std::size(kDeltaCounters); ++i) {
    if (after[i] > before[i]) {
      p.metrics_delta.emplace_back(kDeltaCounters[i], after[i] - before[i]);
    }
  }
  if (p.query_id != 0) {
    for (const TraceEvent& e : TraceBuffer::Instance().Events()) {
      if (e.query_id == p.query_id) {
        p.events.push_back(e);
      }
    }
  }
  p.snapshot_source = DeriveSnapshotSource(p);
}

void AttachWitness(QueryProvenance& p, const ProtectionGraph& g,
                   std::optional<tg::Witness> witness,
                   const std::function<bool(const ProtectionGraph&)>& goal) {
  if (!witness.has_value()) {
    return;
  }
  p.has_witness = true;
  p.witness_de_jure = witness->DeJureCount();
  p.witness_de_facto = witness->DeFactoCount();
  p.witness_text = witness->ToString(g);
  tg_util::StatusOr<ProtectionGraph> replayed = witness->Replay(g);
  p.witness_verified = replayed.ok() && goal(replayed.value());
}

std::string SafeName(const ProtectionGraph& g, VertexId v) {
  return g.IsValidVertex(v) ? g.NameOf(v) : "<invalid:" + std::to_string(v) + ">";
}

}  // namespace

QueryProvenance ExplainCanKnow(const ProtectionGraph& g, VertexId x, VertexId y,
                               AnalysisCache* cache) {
  QueryProvenance p;
  p.predicate = "can_know";
  p.args = {SafeName(g, x), SafeName(g, y)};
  RunExplained(p, g, QueryKind::kCanKnow, [&] {
    return cache != nullptr ? cache->CanKnow(g, x, y) : CanKnow(g, x, y);
  });
  if (g.IsValidVertex(x) && g.IsValidVertex(y) && x != y) {
    // Theorem 3.2 chain summary: candidate heads/tails and the closure.
    std::vector<VertexId> heads = RwInitialSpannersTo(g, x);
    if (g.IsSubject(x)) {
      heads.push_back(x);
    }
    std::vector<VertexId> tails = RwTerminalSpannersTo(g, y);
    if (g.IsSubject(y)) {
      tails.push_back(y);
    }
    uint64_t closure_size = 0;
    uint64_t tails_reached = 0;
    if (!heads.empty()) {
      std::vector<bool> closure = BridgeOrConnectionClosure(g, heads);
      for (bool b : closure) {
        closure_size += b ? 1 : 0;
      }
      for (VertexId t : tails) {
        tails_reached += closure[t] ? 1 : 0;
      }
    }
    p.chain = {{"rw_initial_spanners", heads.size()},
               {"rw_terminal_spanners", tails.size()},
               {"boc_closure_subjects", closure_size},
               {"tails_in_closure", tails_reached}};
  }
  if (p.verdict && x != y) {
    AttachWitness(p, g, BuildCanKnowWitness(g, x, y),
                  [x, y](const ProtectionGraph& final_g) {
                    return KnowEdgePresent(final_g, x, y);
                  });
  }
  return p;
}

QueryProvenance ExplainCanKnowF(const ProtectionGraph& g, VertexId x, VertexId y) {
  QueryProvenance p;
  p.predicate = "can_know_f";
  p.args = {SafeName(g, x), SafeName(g, y)};
  RunExplained(p, g, QueryKind::kCanKnowF, [&] { return CanKnowF(g, x, y); });
  if (p.verdict && x != y) {
    AttachWitness(p, g, BuildCanKnowFWitness(g, x, y),
                  [x, y](const ProtectionGraph& final_g) {
                    return KnowEdgePresent(final_g, x, y);
                  });
  }
  return p;
}

QueryProvenance ExplainChannel(const ProtectionGraph& g, VertexId u, VertexId v,
                               AnalysisCache* cache) {
  QueryProvenance p;
  p.predicate = "channel";
  p.args = {SafeName(g, u), SafeName(g, v)};
  std::optional<TypedChannel> channel;
  uint64_t types_reachable = 0;
  uint64_t take_components = 0;
  RunExplained(p, g, QueryKind::kCrossLevelChannels, [&] {
    if (!g.IsValidVertex(u) || !g.IsValidVertex(v)) {
      return false;
    }
    std::optional<tg::AnalysisSnapshot> local;
    if (cache == nullptr) {
      local.emplace(g);
    }
    const tg::AnalysisSnapshot& snap = cache != nullptr ? cache->Snapshot(g) : *local;
    const BridgeEnumIndex index(snap);
    take_components = index.take_quotient().component_count;
    for (size_t t = 0; t < kChannelWordTypeCount; ++t) {
      if (index.Reaches(u, v, static_cast<ChannelWordType>(t))) {
        ++types_reachable;
      }
    }
    channel = index.DescribeChannel(g, u, v, &snap);
    return channel.has_value();
  });
  p.chain = {{"take_components", take_components}, {"word_types_reachable", types_reachable}};
  if (channel.has_value()) {
    p.channel_word = ChannelWordTypeName(channel->word_type);
    if (channel->pivot_src != tg::kInvalidVertex) {
      p.channel_pivot = SafeName(g, channel->pivot_src) + " -" +
                        tg::RightName(tg::SymbolRight(channel->pivot_symbol)) + "-> " +
                        SafeName(g, channel->pivot_dst);
    }
    p.has_witness = true;
    p.witness_verified = channel->replay_verified;
    p.witness_text = "    " + channel->path.ToString(g) + "\n";
  }
  return p;
}

QueryProvenance ExplainCanShare(const ProtectionGraph& g, tg::Right right, VertexId x,
                                VertexId y) {
  QueryProvenance p;
  p.predicate = std::string("can_share ") + tg::RightName(right);
  p.args = {SafeName(g, x), SafeName(g, y)};
  RunExplained(p, g, QueryKind::kCanShare, [&] { return CanShare(g, right, x, y); });
  if (g.IsValidVertex(x) && g.IsValidVertex(y) && x != y) {
    // Theorem 2.3 chain summary.
    std::vector<VertexId> sources;
    g.ForEachInEdge(y, [&](const tg::Edge& e) {
      if (e.explicit_rights.Has(right)) {
        sources.push_back(e.src);
      }
    });
    std::vector<VertexId> acquirers = InitialSpannersTo(g, x);
    std::vector<VertexId> extractors = TerminalSpannersTo(g, sources);
    uint64_t closure_size = 0;
    if (!acquirers.empty()) {
      for (bool b : BridgeClosure(g, acquirers)) {
        closure_size += b ? 1 : 0;
      }
    }
    p.chain = {{"right_holders", sources.size()},
               {"initial_spanners", acquirers.size()},
               {"terminal_spanners", extractors.size()},
               {"bridge_closure_subjects", closure_size}};
  }
  if (p.verdict && x != y) {
    AttachWitness(p, g, BuildCanShareWitness(g, right, x, y),
                  [x, y, right](const ProtectionGraph& final_g) {
                    return final_g.HasExplicit(x, y, right);
                  });
  }
  return p;
}

std::string QueryProvenance::ToText() const {
  std::string out;
  char buf[256];
  out += "provenance: " + predicate;
  for (const std::string& a : args) {
    out += " " + a;
  }
  out += "\n";
  std::snprintf(buf, sizeof(buf), "  verdict: %s\n  query_id: %llu\n  epoch: %llu\n",
                verdict ? "true" : "false", static_cast<unsigned long long>(query_id),
                static_cast<unsigned long long>(graph_epoch));
  out += buf;
  std::snprintf(buf, sizeof(buf), "  duration_us: %.1f\n  snapshot: %s\n",
                static_cast<double>(duration_ns) / 1000.0, snapshot_source.c_str());
  out += buf;
  if (!chain.empty()) {
    out += "  chain:";
    for (const auto& [name, value] : chain) {
      std::snprintf(buf, sizeof(buf), " %s=%llu", name.c_str(),
                    static_cast<unsigned long long>(value));
      out += buf;
    }
    out += "\n";
  }
  if (!metrics_delta.empty()) {
    out += "  metrics_delta:";
    for (const auto& [name, value] : metrics_delta) {
      std::snprintf(buf, sizeof(buf), " %s=+%llu", name.c_str(),
                    static_cast<unsigned long long>(value));
      out += buf;
    }
    out += "\n";
  }
  if (!events.empty()) {
    out += "  phases:\n";
    // Indent children under their parent.  Events are oldest-first; a
    // child always closes (records) before its parent, so resolve depth
    // by walking parent links over the query's own span set.
    std::map<uint64_t, const TraceEvent*> by_span;
    for (const TraceEvent& e : events) {
      by_span[e.span_id] = &e;
    }
    for (const TraceEvent& e : events) {
      int depth = 0;
      uint64_t parent = e.parent_span;
      while (parent != 0 && depth < 16) {
        auto it = by_span.find(parent);
        if (it == by_span.end()) {
          break;
        }
        ++depth;
        parent = it->second->parent_span;
      }
      out += "    ";
      for (int i = 0; i < depth; ++i) {
        out += "  ";
      }
      std::string name = tg_util::TraceKindName(e.kind);
      if (e.kind == tg_util::TraceKind::kQuery && e.arg0 < tg_util::kQueryKindCount) {
        name += std::string(":") + tg_util::QueryKindName(static_cast<QueryKind>(e.arg0));
      }
      std::snprintf(buf, sizeof(buf), "%s dur_us=%.1f arg0=%llu arg1=%llu\n", name.c_str(),
                    static_cast<double>(e.duration_ns) / 1000.0,
                    static_cast<unsigned long long>(e.arg0),
                    static_cast<unsigned long long>(e.arg1));
      out += buf;
    }
  }
  if (!channel_word.empty()) {
    out += "  channel: word=" + channel_word;
    if (!channel_pivot.empty()) {
      out += " pivot=" + channel_pivot;
    }
    out += "\n";
  }
  if (has_witness) {
    if (!channel_word.empty()) {
      std::snprintf(buf, sizeof(buf), "  witness: path replay %s\n",
                    witness_verified ? "VERIFIED" : "FAILED");
    } else {
      std::snprintf(buf, sizeof(buf),
                    "  witness: %zu de jure + %zu de facto rules, replay %s\n", witness_de_jure,
                    witness_de_facto, witness_verified ? "VERIFIED" : "FAILED");
    }
    out += buf;
    out += witness_text;
  } else if (verdict) {
    out += "  witness: (none constructed)\n";
  }
  return out;
}

std::string QueryProvenance::ToJson() const {
  std::string out = "{\"predicate\":\"" + tg_util::JsonEscape(predicate) + "\",\"args\":[";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += "\"" + tg_util::JsonEscape(args[i]) + "\"";
  }
  out += "],\"verdict\":";
  out += verdict ? "true" : "false";
  out += ",\"query_id\":" + std::to_string(query_id);
  out += ",\"epoch\":" + std::to_string(graph_epoch);
  out += ",\"duration_ns\":" + std::to_string(duration_ns);
  out += ",\"snapshot\":\"" + tg_util::JsonEscape(snapshot_source) + "\"";
  out += ",\"chain\":{";
  for (size_t i = 0; i < chain.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += "\"" + tg_util::JsonEscape(chain[i].first) + "\":" + std::to_string(chain[i].second);
  }
  out += "},\"metrics_delta\":{";
  for (size_t i = 0; i < metrics_delta.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += "\"" + tg_util::JsonEscape(metrics_delta[i].first) +
           "\":" + std::to_string(metrics_delta[i].second);
  }
  out += "},\"spans\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) {
      out += ",";
    }
    out += "{\"kind\":\"";
    out += tg_util::TraceKindName(e.kind);
    out += "\",\"span\":" + std::to_string(e.span_id) +
           ",\"parent\":" + std::to_string(e.parent_span) +
           ",\"dur_ns\":" + std::to_string(e.duration_ns) +
           ",\"arg0\":" + std::to_string(e.arg0) + ",\"arg1\":" + std::to_string(e.arg1) + "}";
  }
  out += "]";
  if (!channel_word.empty()) {
    out += ",\"channel\":{\"word\":\"" + tg_util::JsonEscape(channel_word) + "\",\"pivot\":\"" +
           tg_util::JsonEscape(channel_pivot) + "\"}";
  }
  if (has_witness) {
    out += ",\"witness\":{\"de_jure\":" + std::to_string(witness_de_jure) +
           ",\"de_facto\":" + std::to_string(witness_de_facto) + ",\"verified\":";
    out += witness_verified ? "true" : "false";
    out += "}";
  }
  out += "}";
  return out;
}

void RecordProvenance(const QueryProvenance& record) {
  tg_util::FlightRecorder& recorder = tg_util::FlightRecorder::Instance();
  if (!recorder.enabled()) {
    return;
  }
  recorder.Append("{\"type\":\"provenance\",\"record\":" + record.ToJson() + "}");
}

}  // namespace tg_analysis

#include "src/util/trace_export.h"

#include <cstdio>
#include <map>

#include "src/util/strings.h"

namespace tg_util {

namespace {

// Names for the two payload words of each span kind, mirroring the
// per-kind comments on TraceKind.  Readable arg keys make the Perfetto
// slice detail pane self-describing.
struct ArgNames {
  const char* arg0;
  const char* arg1;
};

ArgNames ArgNamesFor(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSnapshotBuild:
      return {"vertices", "adjacency_records"};
    case TraceKind::kProductBfs:
      return {"nodes_visited", "edges_scanned"};
    case TraceKind::kDeFactoSaturate:
      return {"rounds", "rules_applied"};
    case TraceKind::kRuleApply:
      return {"rule_kind", "applied"};
    case TraceKind::kMonitorDecision:
      return {"outcome", "audit_seq"};
    case TraceKind::kCacheRebuild:
      return {"epoch", "entries_dropped"};
    case TraceKind::kBitReach:
      return {"lanes", "word_ops"};
    case TraceKind::kOverlayPatch:
      return {"journal_records", "vertices_patched"};
    case TraceKind::kCondense:
      return {"components", "quotient_edges"};
    case TraceKind::kShardAudit:
      return {"shards", "dirty_shards"};
    case TraceKind::kAdmission:
      return {"admission_event", "sequence"};
    case TraceKind::kServer:
      return {"batch_requests", "epoch"};
    case TraceKind::kBridgeEnum:
      return {"take_components", "pivot_edges"};
    case TraceKind::kQuery:
      return {"query_kind", "result"};
  }
  return {"arg0", "arg1"};
}

void AppendEvent(std::string& out, const TraceEvent& e, bool& first) {
  if (!first) {
    out += ",\n";
  }
  first = false;
  char buf[512];
  std::string name = TraceKindName(e.kind);
  if (e.kind == TraceKind::kQuery && e.arg0 < kQueryKindCount) {
    name += ":";
    name += QueryKindName(static_cast<QueryKind>(e.arg0));
  }
  const ArgNames args = ArgNamesFor(e.kind);
  std::snprintf(buf, sizeof(buf),
                "{\"name\":\"%s\",\"cat\":\"tg\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                "\"pid\":1,\"tid\":%llu,\"args\":{\"seq\":%llu,\"span\":%llu,\"parent\":%llu,"
                "\"%s\":%llu,\"%s\":%llu}}",
                JsonEscape(name).c_str(), static_cast<double>(e.start_ns) / 1000.0,
                static_cast<double>(e.duration_ns) / 1000.0,
                static_cast<unsigned long long>(e.query_id),
                static_cast<unsigned long long>(e.seq),
                static_cast<unsigned long long>(e.span_id),
                static_cast<unsigned long long>(e.parent_span), args.arg0,
                static_cast<unsigned long long>(e.arg0), args.arg1,
                static_cast<unsigned long long>(e.arg1));
  out += buf;
}

}  // namespace

std::string RenderChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;

  // Label each query track.  Prefer the query's root-kind name when a
  // kQuery span for the track survived in the ring.
  std::map<uint64_t, std::string> tracks;
  for (const TraceEvent& e : events) {
    std::string& label = tracks[e.query_id];
    if (e.kind == TraceKind::kQuery && e.arg0 < kQueryKindCount) {
      label = QueryKindName(static_cast<QueryKind>(e.arg0));
    }
  }
  char buf[256];
  for (const auto& [tid, label] : tracks) {
    std::string name;
    if (tid == 0) {
      name = "background";
    } else {
      name = "query " + std::to_string(tid);
      if (!label.empty()) {
        name += " (" + label + ")";
      }
    }
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%llu,"
                  "\"args\":{\"name\":\"%s\"}}",
                  static_cast<unsigned long long>(tid), JsonEscape(name).c_str());
    if (!first) {
      out += ",\n";
    }
    first = false;
    out += buf;
  }

  for (const TraceEvent& e : events) {
    AppendEvent(out, e, first);
  }
  out += "\n]}\n";
  return out;
}

std::string RenderChromeTraceJson() {
  return RenderChromeTraceJson(TraceBuffer::Instance().Events());
}

bool WriteChromeTraceJson(const std::string& path, const std::vector<TraceEvent>& events) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::string json = RenderChromeTraceJson(events);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

bool WriteChromeTraceJson(const std::string& path) {
  return WriteChromeTraceJson(path, TraceBuffer::Instance().Events());
}

}  // namespace tg_util

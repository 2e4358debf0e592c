#include "src/server/engine.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "src/analysis/can_know.h"
#include "src/analysis/can_share.h"
#include "src/analysis/provenance.h"
#include "src/hierarchy/secure.h"
#include "src/server/protocol.h"
#include "src/util/flight_recorder.h"
#include "src/util/metrics.h"
#include "src/util/strings.h"
#include "src/util/trace.h"

namespace tg_server {

namespace {

struct EngineMetrics {
  tg_util::Counter& epochs_published = tg_util::GetCounter("server.epochs_published");
  tg_util::Counter& queries = tg_util::GetCounter("server.queries");
  tg_util::Counter& mutations = tg_util::GetCounter("server.mutations");
};

EngineMetrics& Metrics() {
  static EngineMetrics metrics;
  return metrics;
}

std::string Quoted(std::string_view s) { return "\"" + tg_util::JsonEscape(s) + "\""; }

tg_util::StatusOr<tg::VertexId> ResolveName(const tg::ProtectionGraph& g,
                                            std::string_view name) {
  tg::VertexId v = g.FindVertex(name);
  if (v == tg::kInvalidVertex) {
    return tg_util::Status::NotFound("unknown vertex '" + std::string(name) + "'");
  }
  return v;
}

// JSON array of the trace spans recorded under `query_id` (oldest first);
// "" when the query carried no id (tracing disabled).
std::string HarvestSpansJson(uint64_t query_id) {
  if (query_id == 0) {
    return "";
  }
  std::string out = "[";
  bool first = true;
  for (const tg_util::TraceEvent& e : tg_util::TraceBuffer::Instance().Events()) {
    if (e.query_id != query_id) {
      continue;
    }
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"kind\":\"" + std::string(tg_util::TraceKindName(e.kind)) +
           "\",\"span\":" + std::to_string(e.span_id) +
           ",\"parent\":" + std::to_string(e.parent_span) +
           ",\"start_ns\":" + std::to_string(e.start_ns) +
           ",\"duration_ns\":" + std::to_string(e.duration_ns) +
           ",\"arg0\":" + std::to_string(e.arg0) + ",\"arg1\":" + std::to_string(e.arg1) +
           "}";
  }
  out += "]";
  return out;
}

// The MAX argument of check_secure and channels: a positive decimal cap,
// 8 when absent.  Returns 0 for anything else: the audit API reads 0 as
// "no cap", so a malformed MAX must never reach it as one.
size_t ListingCap(const std::vector<std::string_view>& tok) {
  if (tok.size() < 2) {
    return 8;
  }
  const long long parsed = tg_util::ParseNonNegativeInt(tok[1]);
  return parsed > 0 ? static_cast<size_t>(parsed) : 0;
}

// Builds and records one SlowQueryLog entry for a request that blew the
// threshold.  The explainable predicates re-derive their provenance
// record here — the query was already slow, so the extra explain cost is
// paid only on the capture path.
void CaptureSlowQuery(const tg::ProtectionGraph& g, tg_analysis::AnalysisCache* cache,
                      std::string_view line, uint64_t query_id, uint64_t elapsed_ns,
                      uint64_t epoch) {
  tg_util::SlowQueryLog::Entry entry;
  entry.query_id = query_id;
  entry.elapsed_ns = elapsed_ns;
  entry.epoch = epoch;
  entry.request = std::string(tg_util::StripWhitespace(line));
  std::vector<std::string_view> tok = tg_util::SplitWhitespace(line);
  entry.verb = tok.empty() ? "" : std::string(tok[0]);
  entry.spans_json = HarvestSpansJson(query_id);
  if (tok.size() == 3 && (tok[0] == "can_know" || tok[0] == "can_knowf")) {
    tg::VertexId x = g.FindVertex(tok[1]);
    tg::VertexId y = g.FindVertex(tok[2]);
    if (x != tg::kInvalidVertex && y != tg::kInvalidVertex) {
      tg_analysis::QueryProvenance record = tok[0] == "can_know"
                                                ? tg_analysis::ExplainCanKnow(g, x, y, cache)
                                                : tg_analysis::ExplainCanKnowF(g, x, y);
      entry.provenance_json = record.ToJson();
    }
  } else if (tok.size() == 4 && tok[0] == "can_share" && tok[1].size() == 1) {
    std::optional<tg::Right> right = tg::RightFromChar(tok[1][0]);
    tg::VertexId x = g.FindVertex(tok[2]);
    tg::VertexId y = g.FindVertex(tok[3]);
    if (right.has_value() && x != tg::kInvalidVertex && y != tg::kInvalidVertex) {
      entry.provenance_json = tg_analysis::ExplainCanShare(g, *right, x, y).ToJson();
    }
  }
  tg_util::SlowQueryLog::Instance().Record(std::move(entry));
}

}  // namespace

PolicyEngine::PolicyEngine(tg::ProtectionGraph graph, tg_hier::LevelAssignment levels,
                           Options options)
    : gate_(tg_hier::AdmissionGate::Create(std::move(graph), std::move(levels),
                                           options.gate)),
      pool_(options.threads) {
  slot_caches_.reserve(pool_.thread_count());
  for (size_t i = 0; i < pool_.thread_count(); ++i) {
    slot_caches_.push_back(std::make_unique<tg_analysis::AnalysisCache>(options.cache_entries));
  }
  PublishIfAdvanced();  // published_ is null, so this always publishes epoch 0
}

std::shared_ptr<const EpochState> PolicyEngine::pinned() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return published_;
}

bool PolicyEngine::PublishIfAdvanced() {
  const tg::ProtectionGraph& g = gate_->graph();
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    if (published_ != nullptr && published_->epoch == g.epoch()) {
      return false;
    }
  }
  auto state = std::make_shared<EpochState>();
  state->graph = g;            // deep copy, carries epoch + journal
  state->levels = gate_->levels();
  state->epoch = g.epoch();
  {
    std::lock_guard<std::mutex> lock(publish_mu_);
    published_ = std::move(state);
  }
  Metrics().epochs_published.Add();
  return true;
}

std::vector<std::string> PolicyEngine::ExecuteReadBatch(
    const std::shared_ptr<const EpochState>& state, const std::vector<std::string>& lines) {
  std::vector<std::string> responses(lines.size());
  if (lines.empty()) {
    return responses;
  }
  const size_t chunks = std::min(pool_.thread_count(), lines.size());
  const size_t per = lines.size() / chunks;
  const size_t extra = lines.size() % chunks;
  pool_.ParallelFor(chunks, [&](size_t c) {
    size_t begin = c * per + std::min(c, extra);
    size_t end = begin + per + (c < extra ? 1 : 0);
    tg_analysis::AnalysisCache& cache = *slot_caches_[c];
    for (size_t i = begin; i < end; ++i) {
      responses[i] = ExecuteReadLine(*state, cache, lines[i]);
    }
  });
  Metrics().queries.Add(lines.size());
  return responses;
}

std::string PolicyEngine::ExecuteRead(const EpochState& state, const std::string& line) {
  Metrics().queries.Add();
  return ExecuteReadLine(state, *slot_caches_[0], line);
}

std::string PolicyEngine::ExecuteReadLine(const EpochState& state,
                                          tg_analysis::AnalysisCache& cache,
                                          std::string_view line) {
  const uint64_t threshold = tg_util::SlowQueryThresholdNs();
  if (threshold == 0) {
    return ExecuteReadLineImpl(state, cache, line);
  }
  const uint64_t t0 = tg_util::TraceBuffer::NowNs();
  uint64_t query_id = 0;
  std::string response;
  {
    tg_util::QueryScope scope(tg_util::QueryKind::kServerRequest);
    query_id = scope.query_id();
    response = ExecuteReadLineImpl(state, cache, line);
  }
  const uint64_t elapsed = tg_util::TraceBuffer::NowNs() - t0;
  if (elapsed >= threshold) {
    CaptureSlowQuery(state.graph, &cache, line, query_id, elapsed, state.epoch);
  }
  return response;
}

std::string PolicyEngine::ExecuteReadLineImpl(const EpochState& state,
                                              tg_analysis::AnalysisCache& cache,
                                              std::string_view line) {
  const tg::ProtectionGraph& g = state.graph;
  std::vector<std::string_view> tok = tg_util::SplitWhitespace(line);
  if (tok.empty()) {
    return ErrorResponse("empty request");
  }
  const std::string_view verb = tok[0];
  std::ostringstream body;
  auto with_epoch = [&]() {
    body << ",\"epoch\":" << state.epoch;
    return OkResponse(body.str());
  };

  if (verb == "ping") {
    body << "\"verb\":\"ping\"";
    return with_epoch();
  }
  if (verb == "epoch") {
    body << "\"vertices\":" << g.VertexCount() << ",\"subjects\":" << g.SubjectCount()
         << ",\"edges\":" << g.ExplicitEdgeCount();
    return with_epoch();
  }
  if (verb == "can_know" || verb == "can_knowf") {
    if (tok.size() != 3) {
      return ErrorResponse("'" + std::string(verb) + "' expects X Y");
    }
    auto x = ResolveName(g, tok[1]);
    auto y = ResolveName(g, tok[2]);
    if (!x.ok()) return ErrorResponse(x.status().message());
    if (!y.ok()) return ErrorResponse(y.status().message());
    const bool yes = verb == "can_know" ? cache.CanKnow(g, *x, *y)
                                        : tg_analysis::CanKnowF(g, *x, *y);
    body << "\"verb\":" << Quoted(verb) << ",\"x\":" << Quoted(tok[1])
         << ",\"y\":" << Quoted(tok[2]) << ",\"verdict\":" << (yes ? "true" : "false");
    return with_epoch();
  }
  if (verb == "can_share") {
    if (tok.size() != 4) {
      return ErrorResponse("'can_share' expects RIGHT X Y");
    }
    std::optional<tg::Right> right;
    if (tok[1].size() == 1) {
      right = tg::RightFromChar(tok[1][0]);
    }
    if (!right.has_value()) {
      return ErrorResponse("bad right '" + std::string(tok[1]) + "'");
    }
    auto x = ResolveName(g, tok[2]);
    auto y = ResolveName(g, tok[3]);
    if (!x.ok()) return ErrorResponse(x.status().message());
    if (!y.ok()) return ErrorResponse(y.status().message());
    const bool yes = tg_analysis::CanShare(g, *right, *x, *y);
    body << "\"verb\":\"can_share\",\"right\":" << Quoted(tok[1]) << ",\"x\":" << Quoted(tok[2])
         << ",\"y\":" << Quoted(tok[3]) << ",\"verdict\":" << (yes ? "true" : "false");
    return with_epoch();
  }
  if (verb == "knowable") {
    if (tok.size() != 2) {
      return ErrorResponse("'knowable' expects X");
    }
    auto x = ResolveName(g, tok[1]);
    if (!x.ok()) return ErrorResponse(x.status().message());
    const std::vector<bool>& row = cache.Knowable(g, *x);
    const size_t count = static_cast<size_t>(std::count(row.begin(), row.end(), true));
    body << "\"verb\":\"knowable\",\"x\":" << Quoted(tok[1]) << ",\"count\":" << count;
    return with_epoch();
  }
  if (verb == "levels") {
    if (tok.size() != 1) {
      return ErrorResponse("'levels' expects no arguments");
    }
    tg_hier::LevelAssignment levels = tg_hier::ComputeRwtgLevels(g, cache);
    tg_hier::AssignObjectLevels(g, levels);
    auto members = levels.Members();
    body << "\"verb\":\"levels\",\"level_count\":" << members.size() << ",\"levels\":[";
    const bool with_names = g.VertexCount() <= 256;
    for (size_t l = 0; l < members.size(); ++l) {
      if (l != 0) {
        body << ",";
      }
      body << "{\"name\":" << Quoted(levels.LevelName(static_cast<tg_hier::LevelId>(l)))
           << ",\"size\":" << members[l].size();
      if (with_names) {
        body << ",\"members\":[";
        for (size_t m = 0; m < members[l].size(); ++m) {
          body << (m == 0 ? "" : ",") << Quoted(g.NameOf(members[l][m]));
        }
        body << "]";
      }
      body << "}";
    }
    body << "]";
    return with_epoch();
  }
  if (verb == "check_secure") {
    if (tok.size() > 2) {
      return ErrorResponse("'check_secure' expects at most one argument (MAX)");
    }
    const size_t max_violations = ListingCap(tok);
    if (max_violations == 0) {
      return ErrorResponse("'check_secure' MAX must be a positive integer");
    }
    tg_hier::SecurityReport report =
        tg_hier::CheckSecure(g, state.levels, cache, max_violations);
    body << "\"verb\":\"check_secure\",\"secure\":" << (report.secure ? "true" : "false")
         << ",\"violations\":" << report.violations.size() << ",\"sample\":[";
    const size_t sample = std::min<size_t>(report.violations.size(), 8);
    for (size_t i = 0; i < sample; ++i) {
      const tg_hier::SecurityViolation& v = report.violations[i];
      body << (i == 0 ? "" : ",") << "{\"lower\":" << Quoted(g.NameOf(v.lower))
           << ",\"higher\":" << Quoted(g.NameOf(v.higher)) << "}";
    }
    body << "]";
    return with_epoch();
  }
  if (verb == "channels") {
    if (tok.size() > 2) {
      return ErrorResponse("'channels' expects at most one argument (MAX)");
    }
    const size_t max_channels = ListingCap(tok);
    if (max_channels == 0) {
      return ErrorResponse("'channels' MAX must be a positive integer");
    }
    const std::vector<tg_hier::TypedCrossLevelChannel> channels =
        tg_hier::FindTypedCrossLevelChannels(g, state.levels, cache, max_channels);
    body << "\"verb\":\"channels\",\"count\":" << channels.size() << ",\"channels\":[";
    for (size_t i = 0; i < channels.size(); ++i) {
      const tg_analysis::TypedChannel& c = channels[i].channel;
      body << (i == 0 ? "" : ",") << "{\"from\":" << Quoted(g.NameOf(c.from))
           << ",\"to\":" << Quoted(g.NameOf(c.to))
           << ",\"word\":" << Quoted(tg_analysis::ChannelWordTypeName(c.word_type))
           << ",\"bridge\":" << (tg_analysis::IsBridgeWordType(c.word_type) ? "true" : "false")
           << ",\"from_level\":" << Quoted(state.levels.LevelName(channels[i].from_level))
           << ",\"to_level\":" << Quoted(state.levels.LevelName(channels[i].to_level))
           << ",\"witness\":" << Quoted(c.path.ToString(g))
           << ",\"verified\":" << (c.replay_verified ? "true" : "false") << "}";
    }
    body << "]";
    return with_epoch();
  }
  if (verb == "explain_channel") {
    if (tok.size() != 3) {
      return ErrorResponse("'explain_channel' expects U V");
    }
    auto u = ResolveName(g, tok[1]);
    auto v = ResolveName(g, tok[2]);
    if (!u.ok()) return ErrorResponse(u.status().message());
    if (!v.ok()) return ErrorResponse(v.status().message());
    tg_analysis::QueryProvenance record = tg_analysis::ExplainChannel(g, *u, *v, &cache);
    tg_analysis::RecordProvenance(record);
    body << "\"verb\":\"explain_channel\",\"record\":" << record.ToJson();
    return with_epoch();
  }
  return ErrorResponse("unknown verb '" + std::string(verb) + "'");
}

std::string PolicyEngine::ExecuteWrite(const std::string& line, uint64_t conn_token) {
  const uint64_t threshold = tg_util::SlowQueryThresholdNs();
  if (threshold == 0) {
    return ExecuteWriteImpl(line, conn_token);
  }
  const uint64_t t0 = tg_util::TraceBuffer::NowNs();
  uint64_t query_id = 0;
  std::string response;
  {
    tg_util::QueryScope scope(tg_util::QueryKind::kServerRequest);
    query_id = scope.query_id();
    response = ExecuteWriteImpl(line, conn_token);
  }
  const uint64_t elapsed = tg_util::TraceBuffer::NowNs() - t0;
  if (elapsed >= threshold) {
    CaptureSlowQuery(gate_->graph(), nullptr, line, query_id, elapsed,
                     authoritative_epoch());
  }
  return response;
}

std::string PolicyEngine::ExecuteWriteImpl(const std::string& line, uint64_t conn_token) {
  std::vector<std::string_view> tok = tg_util::SplitWhitespace(line);
  if (tok.empty()) {
    return ErrorResponse("empty request");
  }
  Metrics().mutations.Add();
  if (tok[0] == "admit") {
    return ExecuteAdmit(std::vector<std::string_view>(tok.begin() + 1, tok.end()),
                        conn_token);
  }
  if (tok[0] == "txn") {
    return ExecuteTxn(std::vector<std::string_view>(tok.begin() + 1, tok.end()), conn_token);
  }
  return ErrorResponse("unknown verb '" + std::string(tok[0]) + "'");
}

std::string PolicyEngine::ExecuteAdmit(const std::vector<std::string_view>& tokens,
                                       uint64_t conn_token) {
  if (gate_->in_txn() && txn_owner_ != conn_token) {
    return ErrorResponse("transaction " + std::to_string(gate_->txn_id()) +
                         " held by another connection");
  }
  auto rule = ParseRuleClause(tokens, gate_->graph());
  if (!rule.ok()) {
    return ErrorResponse(rule.status().message());
  }
  const bool in_txn = gate_->in_txn();
  tg_hier::AdmissionDecision d =
      in_txn ? gate_->Submit(std::move(rule).value()) : gate_->Admit(std::move(rule).value());
  std::ostringstream body;
  body << "\"verb\":\"admit\",\"decision\":" << d.ToJson();
  // A vetoed/rejected Submit may have aborted the whole batch
  // (abort_txn_on_veto); surface that so clients need not poll txn status.
  if (in_txn && !gate_->in_txn()) {
    body << ",\"txn_aborted\":true";
    txn_owner_ = 0;
  }
  body << ",\"epoch\":" << authoritative_epoch();
  return OkResponse(body.str());
}

std::string PolicyEngine::ExecuteTxn(const std::vector<std::string_view>& tokens,
                                     uint64_t conn_token) {
  if (tokens.size() != 1) {
    return ErrorResponse("txn begin|commit|abort|status");
  }
  const std::string_view op = tokens[0];
  std::ostringstream body;
  if (op == "status") {
    if (gate_->in_txn()) {
      body << "\"txn\":" << gate_->txn_id() << ",\"staged\":" << gate_->staged_count()
           << ",\"owned\":" << (txn_owner_ == conn_token ? "true" : "false");
    } else {
      body << "\"txn\":0";
    }
    body << ",\"epoch\":" << authoritative_epoch();
    return OkResponse(body.str());
  }
  if (op == "begin") {
    if (gate_->in_txn()) {
      return ErrorResponse("transaction " + std::to_string(gate_->txn_id()) +
                           " already open");
    }
    uint64_t id = gate_->Begin();
    txn_owner_ = conn_token;
    body << "\"txn\":" << id << ",\"epoch\":" << authoritative_epoch();
    return OkResponse(body.str());
  }
  if (!gate_->in_txn()) {
    return ErrorResponse("no open transaction");
  }
  if (txn_owner_ != conn_token) {
    return ErrorResponse("transaction " + std::to_string(gate_->txn_id()) +
                         " held by another connection");
  }
  if (op == "commit") {
    auto result = gate_->Commit();
    if (!result.ok()) {
      txn_owner_ = 0;
      return ErrorResponse(result.status().ToString());
    }
    txn_owner_ = 0;
    body << "\"txn\":" << result->txn
         << ",\"committed\":" << (result->committed ? "true" : "false")
         << ",\"applied\":" << result->applied << ",\"first_epoch\":" << result->first_epoch
         << ",\"last_epoch\":" << result->last_epoch;
    if (!result->reason.empty()) {
      body << ",\"reason\":" << Quoted(result->reason);
    }
    body << ",\"epoch\":" << authoritative_epoch();
    return OkResponse(body.str());
  }
  if (op == "abort") {
    tg_hier::TxnResult r = gate_->Abort("client abort");
    txn_owner_ = 0;
    body << "\"txn\":" << r.txn << ",\"committed\":false,\"reason\":" << Quoted(r.reason)
         << ",\"epoch\":" << authoritative_epoch();
    return OkResponse(body.str());
  }
  return ErrorResponse("txn begin|commit|abort|status");
}

bool PolicyEngine::AbortTxnIfOwner(uint64_t conn_token) {
  if (!gate_->in_txn() || txn_owner_ != conn_token) {
    return false;
  }
  gate_->Abort("connection closed");
  txn_owner_ = 0;
  return true;
}

}  // namespace tg_server

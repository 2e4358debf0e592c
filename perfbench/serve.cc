// serve_read and serve_write: closed-loop wire load on an in-process
// PolicyServer over a unix-domain socket.
//
// One generator thread (the caller's) drives every connection through the
// public frame codec.  Each reader connection keeps one 64-line frame of
// the Zipfian can_know / can_knowf / can_share / knowable mix outstanding.
// serve_write adds one writer connection carrying single-line admit and
// txn requests, paced at one write per nine read lines answered, from a
// seeded write block that undoes every rule it admits, so the graph the
// reads run on stays the same size for the whole run.

#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "perfbench/bench.h"
#include "src/analysis/bridge_enum.h"
#include "src/analysis/cache.h"
#include "src/analysis/can_know.h"
#include "src/analysis/can_share.h"
#include "src/hierarchy/admission.h"
#include "src/server/engine.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/sim/generator.h"
#include "src/util/metrics.h"
#include "src/util/prng.h"
#include "src/util/strings.h"

namespace perfbench {
namespace {

constexpr size_t kFrameLines = 64;
constexpr size_t kReaders = 2;
constexpr uint64_t kReadsPerWrite = 9;
constexpr int kSetupReps = 15;
constexpr uint64_t kSampleOneIn = 32;  // read lines re-answered in process
constexpr size_t kMaxSamples = 3000;
constexpr size_t kMaxCodecFrames = 2000;

struct ServeShape {
  size_t levels, clusters, subjects, objects;
};

ServeShape Shape(const Config& config) {
  // bench_server's n = 176 hierarchy; the smoke size keeps its structure.
  return config.smoke ? ServeShape{2, 2, 4, 2} : ServeShape{4, 4, 8, 3};
}

tg_sim::GeneratedHierarchy MakeServeGraph(const Config& config) {
  const ServeShape shape = Shape(config);
  tg_sim::HierarchicalGraphOptions options;
  options.levels = shape.levels;
  options.clusters_per_level = shape.clusters;
  options.subjects_per_cluster = shape.subjects;
  options.objects_per_cluster = shape.objects;
  options.planted_channels = 0;
  tg_util::Prng prng(config.seed);
  return tg_sim::HierarchicalGraph(options, prng);
}

// Zipf(s=1) over [0, n): vertex 0 is the hot key (bench_server's sampler).
class Zipf {
 public:
  Zipf(size_t n, uint64_t seed) : prng_(seed), cdf_(n) {
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      sum += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = sum;
    }
    total_ = sum;
  }

  size_t Next() {
    const double u = static_cast<double>(prng_.NextBelow(1u << 30)) /
                     static_cast<double>(1u << 30) * total_;
    return static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                               cdf_.begin());
  }
  tg_util::Prng& prng() { return prng_; }

 private:
  tg_util::Prng prng_;
  std::vector<double> cdf_;
  double total_ = 0.0;
};

// bench_server's read mix: a quarter each of can_know, can_knowf,
// can_share r and knowable, endpoints drawn from the Zipf.
std::string MakeReadLine(Zipf& zipf, const std::vector<std::string>& names) {
  const std::string& a = names[zipf.Next()];
  const std::string& b = names[zipf.Next()];
  switch (zipf.prng().NextBelow(4)) {
    case 0:
      return "can_know " + a + " " + b;
    case 1:
      return "can_knowf " + a + " " + b;
    case 2:
      return "can_share r " + a + " " + b;
    default:
      return "knowable " + a;
  }
}

uint64_t ReaderSeed(uint64_t seed, size_t reader) {
  return seed * 0x9E3779B97F4A7C15ull + 17 + reader;
}

std::vector<std::string> NextReadFrame(Zipf& zipf, const std::vector<std::string>& names) {
  std::vector<std::string> lines;
  lines.reserve(kFrameLines);
  for (size_t i = 0; i < kFrameLines; ++i) {
    lines.push_back(MakeReadLine(zipf, names));
  }
  return lines;
}

uint64_t Fnv(uint64_t h, std::string_view s) {
  for (char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  }
  return (h ^ '\n') * 0x100000001b3ull;
}

// Applies one write line to a gate the way PolicyEngine::ExecuteWrite
// does, returning the same outcome string WireOutcome extracts.
std::string GateOutcome(tg_hier::AdmissionGate& gate, const std::string& line,
                        double* decide_us = nullptr, double* commit_us = nullptr) {
  if (line == "txn begin") {
    gate.Begin();
    return "begin";
  }
  if (line == "txn commit") {
    const int64_t t0 = NowNs();
    auto result = gate.Commit();
    if (commit_us != nullptr) {
      *commit_us = static_cast<double>(NowNs() - t0) / 1e3;
    }
    return result.ok() && result->committed ? "commit:" + std::to_string(result->applied)
                                            : "commit-refused";
  }
  std::vector<std::string_view> tok = tg_util::SplitWhitespace(line);
  auto rule = tg_server::ParseRuleClause(
      std::vector<std::string_view>(tok.begin() + 1, tok.end()), gate.graph());
  if (!rule.ok()) {
    return "error";
  }
  const int64_t t0 = NowNs();
  tg_hier::AdmissionDecision d = gate.in_txn() ? gate.Submit(std::move(rule).value())
                                               : gate.Admit(std::move(rule).value());
  if (decide_us != nullptr) {
    *decide_us = static_cast<double>(NowNs() - t0) / 1e3;
  }
  return tg_hier::AdmissionOutcomeName(d.outcome);
}

// ---------------------------------------------------------------------------
// The write block: a seeded sequence of admit / txn lines that leaves the
// graph exactly as it found it, so it can repeat for as long as a run lasts.

struct WriteBlock {
  std::vector<std::string> lines;
  uint64_t accepted = 0, rejected = 0, vetoed = 0, txns = 0, t_moves = 0;
};

class BlockComposer {
 public:
  BlockComposer(const tg_sim::GeneratedHierarchy& h, const ServeShape& shape, uint64_t seed)
      : gate_(tg_hier::AdmissionGate::Create(h.graph, h.levels)),
        prng_(seed),
        cluster_size_(shape.subjects + shape.objects),
        clusters_(shape.levels * shape.clusters),
        subjects_(shape.subjects) {}

  tg_hier::AdmissionGate& gate() { return *gate_; }

  // Builds a block of about `target` lines.  Every accepted take/grant is
  // intra-cluster and adds one right the edge lacked; its matching remove
  // comes later in the block.  About a third of the adds move a t right,
  // whose removal forces the gate's full exposure-state rebuild.
  WriteBlock Build(size_t target) {
    WriteBlock block;
    std::vector<Add> pending;
    while (block.lines.size() < target) {
      const double u = prng_.NextDouble();
      if (!pending.empty() && (pending.size() >= 12 || u < 0.33)) {
        const size_t i = prng_.NextBelow(pending.size());
        Apply(block, pending[i].undo);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      } else if (u < 0.43) {
        if (std::optional<std::string> line = ProposeRejection()) {
          Apply(block, *line);
        }
      } else if (u < 0.50) {
        // A wire transaction of 2..32 rules: fresh adds, or the undos of
        // pending ones — never both, so no rule depends on another's effect.
        const size_t k = 2 + prng_.NextBelow(31);
        std::vector<std::string> rules;
        if (pending.size() >= 2 && prng_.NextBool(0.5)) {
          while (rules.size() < k && !pending.empty()) {
            rules.push_back(pending.back().undo);
            pending.pop_back();
          }
        } else {
          std::set<std::tuple<tg::VertexId, tg::VertexId, int>> targets;
          for (size_t i = 0; i < k; ++i) {
            if (std::optional<Add> add = ProposeAdd(&targets)) {
              rules.push_back(add->line);
              block.t_moves += add->t_move ? 1 : 0;
              pending.push_back(*add);
            }
          }
        }
        Txn(block, rules);
      } else if (std::optional<Add> add = ProposeAdd(nullptr)) {
        Apply(block, add->line);
        block.t_moves += add->t_move ? 1 : 0;
        pending.push_back(*add);
      }
    }
    while (pending.size() >= 2) {
      std::vector<std::string> rules;
      while (rules.size() < 32 && !pending.empty()) {
        rules.push_back(pending.back().undo);
        pending.pop_back();
      }
      Txn(block, rules);
    }
    if (!pending.empty()) {
      Apply(block, pending.back().undo);
    }
    return block;
  }

  bool failed() const { return failed_; }

 private:
  struct Add {
    std::string line;
    std::string undo;
    bool t_move = false;
  };

  const tg::ProtectionGraph& g() const { return gate_->graph(); }

  tg::VertexId Pick(size_t cluster, bool subject_only) {
    const size_t span = subject_only ? subjects_ : cluster_size_;
    return static_cast<tg::VertexId>(cluster * cluster_size_ + prng_.NextBelow(span));
  }

  // An intra-cluster take or grant adding one right its target edge lacks.
  // `targets` (inside a transaction) keeps each (edge, right) added once.
  std::optional<Add> ProposeAdd(std::set<std::tuple<tg::VertexId, tg::VertexId, int>>* targets) {
    const bool want_t = prng_.NextBool(0.33);
    for (int attempt = 0; attempt < 64; ++attempt) {
      const size_t cluster = prng_.NextBelow(clusters_);
      const tg::VertexId x = Pick(cluster, true);
      const bool take = prng_.NextBool(0.5);
      const tg::Right via = take ? tg::Right::kTake : tg::Right::kGrant;
      std::vector<tg::VertexId> ys;
      for (size_t i = 0; i < (take ? cluster_size_ : subjects_); ++i) {
        const tg::VertexId y = static_cast<tg::VertexId>(cluster * cluster_size_ + i);
        if (y != x && g().HasExplicit(x, y, via)) {
          ys.push_back(y);
        }
      }
      if (ys.empty()) {
        continue;
      }
      const tg::VertexId y = prng_.Choose(ys);
      // take: x gains y's right over z.  grant: y gains x's right over z.
      const tg::VertexId holder = take ? y : x;
      const tg::VertexId gainer = take ? x : y;
      std::vector<std::pair<tg::VertexId, tg::Right>> options;
      for (size_t i = 0; i < cluster_size_; ++i) {
        const tg::VertexId z = static_cast<tg::VertexId>(cluster * cluster_size_ + i);
        if (z == x || z == y) {
          continue;
        }
        const tg::RightSet avail =
            g().ExplicitRights(holder, z).Minus(g().ExplicitRights(gainer, z));
        for (tg::Right r : {tg::Right::kRead, tg::Right::kWrite, tg::Right::kTake,
                            tg::Right::kGrant}) {
          if (avail.Has(r) && (targets == nullptr ||
                               !targets->count({gainer, z, static_cast<int>(r)}))) {
            options.emplace_back(z, r);
          }
        }
      }
      std::vector<std::pair<tg::VertexId, tg::Right>> t_options;
      for (const auto& o : options) {
        if (o.second == tg::Right::kTake) {
          t_options.push_back(o);
        }
      }
      if (want_t && !t_options.empty()) {
        options = t_options;
      }
      if (options.empty()) {
        continue;
      }
      const auto [z, right] = prng_.Choose(options);
      if (targets != nullptr) {
        targets->insert({gainer, z, static_cast<int>(right)});
      }
      const std::string rc(1, tg::RightChar(right));
      Add add;
      add.line = std::string("admit ") + (take ? "take " : "grant ") + g().NameOf(x) + " " +
                 g().NameOf(y) + " " + g().NameOf(z) + " " + rc;
      add.undo = "admit remove " + g().NameOf(gainer) + " " + g().NameOf(z) + " " + rc;
      add.t_move = right == tg::Right::kTake;
      return add;
    }
    return std::nullopt;
  }

  // A take whose taker holds no t over the intermediary: a precondition
  // rejection, which leaves the graph and the epoch alone.
  std::optional<std::string> ProposeRejection() {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const size_t cluster = prng_.NextBelow(clusters_);
      const tg::VertexId x = Pick(cluster, true);
      const tg::VertexId y = Pick(cluster, false);
      const tg::VertexId z = Pick(cluster, false);
      if (x != y && y != z && x != z && !g().HasExplicit(x, y, tg::Right::kTake)) {
        return "admit take " + g().NameOf(x) + " " + g().NameOf(y) + " " + g().NameOf(z) +
               " r";
      }
    }
    return std::nullopt;
  }

  // Appends a write line to the block and applies it to the composer's gate.
  std::string Apply(WriteBlock& block, const std::string& line) {
    block.lines.push_back(line);
    const std::string outcome = GateOutcome(*gate_, line);
    block.accepted += outcome == "ACCEPTED" ? 1 : 0;
    block.rejected += outcome == "REJECTED" ? 1 : 0;
    block.vetoed += outcome == "VETOED" ? 1 : 0;
    failed_ = failed_ || outcome == "error";
    return outcome;
  }

  // Every rule of a transaction must be accepted and the commit must apply
  // them all; the stream's later removes depend on it.
  void Txn(WriteBlock& block, const std::vector<std::string>& rules) {
    if (rules.empty()) {
      return;
    }
    Apply(block, "txn begin");
    for (const std::string& rule : rules) {
      failed_ = failed_ || Apply(block, rule) != "ACCEPTED";
    }
    failed_ = failed_ || Apply(block, "txn commit") != "commit:" + std::to_string(rules.size());
    ++block.txns;
  }

  std::unique_ptr<tg_hier::AdmissionGate> gate_;
  tg_util::Prng prng_;
  size_t cluster_size_, clusters_, subjects_;
  bool failed_ = false;
};

// The decision a write response reports, in a form the shadow gate's
// replay reproduces: the admit outcome, "begin", or "commit:<applied>".
std::string WireOutcome(const std::string& line, const std::string& response) {
  if (tg_server::ExtractJsonField(response, "ok") != "true") {
    return "error";
  }
  if (line == "txn begin") {
    return "begin";
  }
  if (line == "txn commit") {
    return tg_server::ExtractJsonField(response, "committed") == "true"
               ? "commit:" + tg_server::ExtractJsonField(response, "applied")
               : "commit-refused";
  }
  const std::string key = "\"outcome\":\"";
  const size_t at = response.find(key);
  if (at == std::string::npos) {
    return "error";
  }
  const size_t begin = at + key.size();
  return response.substr(begin, response.find('"', begin) - begin);
}

// The verdict the server reports for a read line, computed in process.
std::string AnswerInProcess(const tg::ProtectionGraph& g, tg_analysis::AnalysisCache& cache,
                            const std::string& line) {
  std::vector<std::string_view> tok = tg_util::SplitWhitespace(line);
  const bool share = tok[0] == "can_share";
  const tg::VertexId x = g.FindVertex(tok[share ? 2 : 1]);
  if (tok[0] == "knowable") {
    const std::vector<bool>& row = cache.Knowable(g, x);
    return std::to_string(std::count(row.begin(), row.end(), true));
  }
  const tg::VertexId y = g.FindVertex(tok[share ? 3 : 2]);
  bool yes = false;
  if (tok[0] == "can_know") {
    yes = cache.CanKnow(g, x, y);
  } else if (tok[0] == "can_knowf") {
    yes = tg_analysis::CanKnowF(g, x, y);
  } else {
    yes = tg_analysis::CanShare(g, tg::Right::kRead, x, y);
  }
  return yes ? "true" : "false";
}

std::string WireVerdict(const std::string& line, const std::string& response) {
  return tg_server::ExtractJsonField(response, line.rfind("knowable", 0) == 0 ? "count"
                                                                              : "verdict");
}

// ---------------------------------------------------------------------------
// Wire plumbing: one blocking unix-domain connection per lane, multiplexed
// by poll() on the generator thread, framed with the public codec.

class WireConn {
 public:
  WireConn() = default;
  ~WireConn() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  bool Connect(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (fd_ < 0 || path.size() >= sizeof(addr.sun_path)) {
      return false;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  bool Send(const std::vector<std::string>& lines) {
    const std::string frame = tg_server::EncodeFrame(tg_util::Join(lines, "\n"));
    size_t at = 0;
    while (at < frame.size()) {
      const ssize_t n = ::write(fd_, frame.data() + at, frame.size() - at);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return false;
      }
      at += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads what the socket holds.  Returns 1 when a response frame
  // completed (into *payload), 0 when more bytes are needed, -1 on error.
  int Pump(std::string* payload) {
    if (decoder_.Next(payload) == tg_server::FrameDecoder::Result::kFrame) {
      return 1;
    }
    char buf[1 << 16];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) {
      return 0;
    }
    if (n <= 0) {
      return -1;
    }
    decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
    switch (decoder_.Next(payload)) {
      case tg_server::FrameDecoder::Result::kFrame:
        return 1;
      case tg_server::FrameDecoder::Result::kNeedMore:
        return 0;
      case tg_server::FrameDecoder::Result::kError:
        break;
    }
    return -1;
  }

  // One blocking round trip (set-up, warm-up, probes and drain).
  std::optional<std::vector<std::string>> RoundTrip(const std::vector<std::string>& lines) {
    if (!Send(lines)) {
      return std::nullopt;
    }
    std::string payload;
    for (;;) {
      const int r = Pump(&payload);
      if (r < 0) {
        return std::nullopt;
      }
      if (r == 1) {
        std::vector<std::string> out;
        for (std::string_view s : tg_server::SplitRequestLines(payload)) {
          out.emplace_back(s);
        }
        return out;
      }
    }
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  tg_server::FrameDecoder decoder_;
};

struct Lane {
  WireConn conn;
  bool writer = false;
  bool busy = false;
  int64_t sent_ns = 0;
  uint64_t frame_id = 0;
  std::vector<std::string> lines;
  std::unique_ptr<Zipf> zipf;  // readers only
  uint64_t frames_sent = 0;
  uint64_t stream_hash = 0xcbf29ce484222325ull;
};

struct ReadSample {
  uint64_t epoch = 0;
  std::string line;
  std::string verdict;
};

// What the load loop observed.
struct Load {
  std::vector<double> read_ms, write_ms;
  uint64_t window_lines = 0, window_read_lines = 0, window_write_lines = 0;
  double wall_s = 0.0, cpu_s = 0.0;
  uint64_t batches = 0;
  std::vector<ReadSample> samples;
  // Write line i sent is block line i % block size (the log always starts
  // at the block's first line); write_outcomes[i] is the wire's answer.
  std::vector<std::string> write_outcomes;
  uint64_t lines_answered = 0;              // window and drain
  uint64_t error_lines = 0;
  std::vector<std::pair<std::string, std::string>> payloads;  // traced runs
};

// One running server with its lanes connected and caches warmed.
struct Served {
  tg_sim::GeneratedHierarchy h;
  std::vector<std::string> names;
  std::unique_ptr<tg_server::PolicyServer> server;
  std::vector<std::unique_ptr<Lane>> lanes;
};

uint64_t BatchesDispatched() {
  return tg_util::MetricsRegistry::Instance().CounterValue("server.batches_dispatched");
}

// One knowable line per (worker slot, vertex) in one frame: the engine
// hands contiguous chunks to slots, so every slot's cache gets every row.
std::vector<std::string> WarmupSweep(const std::vector<std::string>& names, size_t workers) {
  std::vector<std::string> lines;
  for (size_t w = 0; w < workers; ++w) {
    for (const std::string& name : names) {
      lines.push_back("knowable " + name);
    }
  }
  return lines;
}

// What building the write block showed; checked once the set-up is done.
struct BlockChecks {
  bool restores = false;  // well formed, and the graph after it equals the graph before
  bool rebuilds = false;  // t removals forced exposure-state rebuilds
};

// Builds the seed's write block, then ages the graph by running the block
// through a gate until the mutation journal has been trimmed once and is
// again within 4096 records of its retention cap.  The run then starts at
// the journal's steady state: every publish copies a journal of
// 32768..65536 records, and the peak resident set includes a full one,
// instead of a journal that grows through the run and makes publishes
// (and memory) costlier the longer, or the faster, the run goes.
WriteBlock PrepareWrites(const Config& config, Served& s, BlockChecks* checks) {
  BlockComposer composer(s.h, Shape(config), config.seed ^ 0xb10cull);
  WriteBlock block = composer.Build(config.smoke ? 60 : 400);
  const std::vector<tg::Edge> before = s.h.graph.Edges();
  const std::vector<tg::Edge> after = composer.gate().graph().Edges();
  bool restored = before.size() == after.size();
  for (size_t i = 0; restored && i < before.size(); ++i) {
    restored = before[i].src == after[i].src && before[i].dst == after[i].dst &&
               before[i].explicit_rights == after[i].explicit_rights;
  }
  checks->restores = !composer.failed() && restored;
  checks->rebuilds = block.t_moves > 0 && composer.gate().state_rebuilds() > 0;
  tg_hier::AdmissionGate& gate = composer.gate();
  const tg::MutationJournal& journal = gate.graph().journal();
  while (checks->restores &&
         (journal.base_epoch() == 0 || journal.size() + 4096 < tg::MutationJournal::kMaxRetained)) {
    for (const std::string& line : block.lines) {
      GateOutcome(gate, line);
    }
  }
  s.h.graph = gate.graph();
  return block;
}

// What one set-up cost: the process CPU time, which setup_s reports, and
// the wall time, which the report prints beside it.  On a shared host the
// wall time of work that fans out over the CPUs drifts with other tenants'
// load by up to 2x within minutes; the CPU time it burns does not.
struct SetupCost {
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

// Generates the graph, prepares the write stream when `with_writer`,
// starts the server and runs the warm-up pass.  `cost` is the process CPU
// time and the wall time taken by all of it but the write preparation.
bool SetUp(const Config& config, const std::string& socket_path, bool with_writer,
           Served& s, WriteBlock* block, BlockChecks* checks, SetupCost* cost,
           std::string* error) {
  const double c0 = ProcessCpuSeconds();
  const int64_t t0 = NowNs();
  s.h = MakeServeGraph(config);
  const int64_t t1 = NowNs();
  const double c1 = ProcessCpuSeconds();
  if (with_writer) {
    *block = PrepareWrites(config, s, checks);
  }
  const double c2 = ProcessCpuSeconds();
  const int64_t t2 = NowNs();
  for (tg::VertexId v = 0; v < static_cast<tg::VertexId>(s.h.graph.VertexCount()); ++v) {
    s.names.push_back(s.h.graph.NameOf(v));
  }
  tg_server::PolicyServer::Options options;
  options.unix_path = socket_path;
  s.server = std::make_unique<tg_server::PolicyServer>(s.h.graph, s.h.levels, options);
  if (tg_util::Status st = s.server->Start(); !st.ok()) {
    *error = st.ToString();
    return false;
  }
  for (size_t i = 0; i < kReaders + (with_writer ? 1 : 0); ++i) {
    auto lane = std::make_unique<Lane>();
    lane->writer = i == kReaders;
    if (!lane->writer) {
      lane->zipf = std::make_unique<Zipf>(s.names.size(), ReaderSeed(config.seed, i));
    }
    if (!lane->conn.Connect(socket_path)) {
      *error = "connect " + socket_path + ": " + std::strerror(errno);
      return false;
    }
    s.lanes.push_back(std::move(lane));
  }
  // Warm-up pass: every slot cache gets every knowable row, then a few
  // frames of the read mix (from a stream the timed run never uses).
  const size_t workers = s.server->engine().worker_threads();
  if (!s.lanes[0]->conn.RoundTrip(WarmupSweep(s.names, workers))) {
    *error = "warm-up sweep failed";
    return false;
  }
  Zipf warm(s.names.size(), ~config.seed);
  for (int i = 0; i < 8; ++i) {
    if (!s.lanes[i % kReaders]->conn.RoundTrip(NextReadFrame(warm, s.names))) {
      *error = "warm-up frame failed";
      return false;
    }
  }
  cost->wall_s = static_cast<double>((t1 - t0) + (NowNs() - t2)) / 1e9;
  cost->cpu_s = (c1 - c0) + (ProcessCpuSeconds() - c2);
  return true;
}

// The timed closed loop, then (serve_write) the drain that finishes the
// current write block so the graph ends where it started.
bool RunLoad(const Config& config, Served& s, const WriteBlock& block, SpanLog* spans,
             Load& load, std::string* error) {
  const bool writes = !block.lines.empty();
  tg_util::Prng sampler(config.seed ^ 0x5eedull);
  uint64_t reads_sent = 0, reads_answered = 0, writes_sent = 0, writes_answered = 0;
  size_t block_pos = 0;
  uint64_t next_frame_id = 1;

  auto send = [&](Lane& lane, std::vector<std::string> lines) {
    lane.lines = std::move(lines);
    lane.frame_id = next_frame_id++;
    lane.sent_ns = NowNs();
    lane.busy = true;
    ++lane.frames_sent;
    for (const std::string& line : lane.lines) {
      lane.stream_hash = Fnv(lane.stream_hash, line);
    }
    return lane.conn.Send(lane.lines);
  };
  auto on_response = [&](Lane& lane, const std::string& payload, bool in_window) {
    const int64_t end = NowNs();
    lane.busy = false;
    std::vector<std::string_view> responses = tg_server::SplitRequestLines(payload);
    if (responses.size() != lane.lines.size()) {
      *error = "response frame has " + std::to_string(responses.size()) + " lines for " +
               std::to_string(lane.lines.size()) + " requests";
      return false;
    }
    const double ms = static_cast<double>(end - lane.sent_ns) / 1e6;
    load.lines_answered += lane.lines.size();
    if (spans != nullptr) {
      spans->Add(lane.writer ? "client.write_frame" : "client.read_frame", lane.frame_id, 0,
                 lane.sent_ns, end, lane.lines.size());
      if (load.payloads.size() < kMaxCodecFrames) {
        load.payloads.emplace_back(tg_util::Join(lane.lines, "\n"), payload);
      }
    }
    for (size_t i = 0; i < responses.size(); ++i) {
      const std::string response(responses[i]);
      if (lane.writer) {
        load.write_outcomes.push_back(WireOutcome(lane.lines[i], response));
        continue;
      }
      if (tg_server::ExtractJsonField(response, "ok") != "true") {
        ++load.error_lines;
        continue;
      }
      if (sampler.NextBelow(kSampleOneIn) == 0 && load.samples.size() < kMaxSamples) {
        load.samples.push_back(
            {static_cast<uint64_t>(
                 std::atoll(tg_server::ExtractJsonField(response, "epoch").c_str())),
             lane.lines[i], WireVerdict(lane.lines[i], response)});
      }
    }
    if (!in_window) {
      return true;
    }
    load.window_lines += lane.lines.size();
    if (lane.writer) {
      load.write_ms.push_back(ms);
      ++writes_answered;
      load.window_write_lines += lane.lines.size();
    } else {
      load.read_ms.push_back(ms);
      reads_answered += lane.lines.size();
      load.window_read_lines += lane.lines.size();
    }
    return true;
  };

  std::vector<pollfd> fds(s.lanes.size());
  const uint64_t batches0 = BatchesDispatched();
  const double cpu0 = ProcessCpuSeconds();
  const double gen_cpu0 = ThreadCpuSeconds();
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(config.seconds * 1e9);
  for (;;) {
    const bool open = NowNs() < deadline;
    size_t busy = 0;
    for (auto& lane_ptr : s.lanes) {
      Lane& lane = *lane_ptr;
      if (open && !lane.busy) {
        // Pacing: a write per nine read lines answered; readers wait when
        // the writer falls more than two frames behind that share.
        if (lane.writer && writes_sent * kReadsPerWrite < reads_answered + 8 * kReadsPerWrite) {
          const std::string& line = block.lines[block_pos];
          block_pos = (block_pos + 1) % block.lines.size();
          ++writes_sent;
          if (!send(lane, {line})) {
            *error = "send failed";
            return false;
          }
        } else if (!lane.writer &&
                   (!writes || reads_sent <= kReadsPerWrite * writes_answered + 2 * kFrameLines)) {
          reads_sent += kFrameLines;
          if (!send(lane, NextReadFrame(*lane.zipf, s.names))) {
            *error = "send failed";
            return false;
          }
        }
      }
      busy += lane.busy ? 1 : 0;
    }
    if (busy == 0) {
      if (!open) {
        break;
      }
      continue;
    }
    for (size_t i = 0; i < s.lanes.size(); ++i) {
      fds[i] = pollfd{s.lanes[i]->conn.fd(), s.lanes[i]->busy ? short{POLLIN} : short{0}, 0};
    }
    if (::poll(fds.data(), fds.size(), 1000) < 0 && errno != EINTR) {
      *error = std::string("poll: ") + std::strerror(errno);
      return false;
    }
    for (size_t i = 0; i < s.lanes.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      std::string payload;
      const int r = s.lanes[i]->conn.Pump(&payload);
      if (r < 0) {
        *error = "connection failed while reading a response";
        return false;
      }
      if (r == 1 && !on_response(*s.lanes[i], payload, true)) {
        return false;
      }
    }
  }
  const int64_t t_close = NowNs();
  load.cpu_s = (ProcessCpuSeconds() - cpu0) - (ThreadCpuSeconds() - gen_cpu0);
  load.wall_s = static_cast<double>(t_close - t0) / 1e9;
  load.batches = BatchesDispatched() - batches0;

  // Drain: finish the write block (untimed) so every admitted rule is
  // undone before the end-state check.
  if (writes) {
    Lane& writer = *s.lanes[kReaders];
    while (block_pos != 0) {
      const std::string& line = block.lines[block_pos];
      block_pos = (block_pos + 1) % block.lines.size();
      std::string payload;
      int r = send(writer, {line}) ? 0 : -1;
      while (r == 0) {
        r = writer.conn.Pump(&payload);
      }
      if (r < 0 || !on_response(writer, payload, false)) {
        *error = error->empty() ? "drain failed" : *error;
        return false;
      }
    }
  }
  return true;
}

// The shadow gate replays the exact write log: it must reproduce every
// wire decision and the final epoch.  Along the way each sampled read is
// re-answered on the shadow graph at the epoch its response reported.
void CheckAgainstShadow(const Served& s, const WriteBlock& block, Load& load,
                        uint64_t wire_epoch, Result& result) {
  auto shadow = tg_hier::AdmissionGate::Create(s.h.graph, s.h.levels);
  tg_analysis::AnalysisCache cache;
  std::stable_sort(load.samples.begin(), load.samples.end(),
                   [](const ReadSample& a, const ReadSample& b) { return a.epoch < b.epoch; });
  size_t next = 0;
  uint64_t verdict_mismatches = 0, decision_mismatches = 0;
  auto answer_due = [&] {
    const uint64_t epoch = shadow->graph().epoch();
    for (; next < load.samples.size() && load.samples[next].epoch <= epoch; ++next) {
      const ReadSample& sample = load.samples[next];
      if (sample.epoch != epoch ||
          AnswerInProcess(shadow->graph(), cache, sample.line) != sample.verdict) {
        ++verdict_mismatches;
      }
    }
  };
  answer_due();
  for (size_t i = 0; i < load.write_outcomes.size(); ++i) {
    if (GateOutcome(*shadow, block.lines[i % block.lines.size()]) != load.write_outcomes[i]) {
      ++decision_mismatches;
    }
    answer_due();
  }
  verdict_mismatches += load.samples.size() - next;  // epochs the shadow never reached
  result.failed += verdict_mismatches + decision_mismatches;
  result.Check("sampled read verdicts match in-process answers at their epoch",
               verdict_mismatches == 0,
               std::to_string(verdict_mismatches) + " of " +
                   std::to_string(load.samples.size()));
  result.Rec("read_samples_checked", load.samples.size());
  if (!load.write_outcomes.empty()) {
    result.Check("shadow gate reproduces every write decision", decision_mismatches == 0,
                 std::to_string(decision_mismatches) + " of " +
                     std::to_string(load.write_outcomes.size()));
    result.Check("shadow gate reaches the server's final epoch",
                 shadow->graph().epoch() == wire_epoch,
                 "shadow " + std::to_string(shadow->graph().epoch()) + " vs wire " +
                     std::to_string(wire_epoch));
  }
}

// ---------------------------------------------------------------------------
// Traced replay of the request stream through a standalone PolicyEngine.

struct ReplayFrame {
  bool write = false;
  std::vector<std::string> lines;
};

// The seed's request stream, merged in the pacing schedule's order: the
// two readers alternate, and after each read frame come the writes due at
// one per nine read lines.  Being a pure function of the seed, its counts
// (publishes, admission outcomes) are exact for a seed.
std::vector<ReplayFrame> ReplayStream(const Config& config, const Served& s,
                                      const WriteBlock& block, size_t read_frames) {
  std::vector<Zipf> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back(s.names.size(), ReaderSeed(config.seed, r));
  }
  std::vector<ReplayFrame> frames;
  uint64_t reads = 0, writes = 0;
  for (size_t i = 0; i < read_frames; ++i) {
    frames.push_back({false, NextReadFrame(readers[i % kReaders], s.names)});
    reads += kFrameLines;
    while (!block.lines.empty() && (writes + 1) * kReadsPerWrite <= reads) {
      frames.push_back({true, {block.lines[writes % block.lines.size()]}});
      ++writes;
    }
  }
  return frames;
}

// Runs one replay frame through `engine` as the server drives it:
// PublishIfAdvanced, pinned and ExecuteReadBatch for a read frame,
// ExecuteWrite for a write.  With a span log, one span per engine call.
void EngineFrame(tg_server::PolicyEngine& engine, const ReplayFrame& frame, uint64_t request,
                 SpanLog* spans) {
  constexpr uint64_t kConn = 1;
  if (frame.write) {
    const int64_t a = NowNs();
    engine.ExecuteWrite(frame.lines[0], kConn);
    if (spans != nullptr) {
      spans->Add("engine.write", request, 0, a, NowNs());
    }
    return;
  }
  const int64_t a = NowNs();
  const bool published = engine.PublishIfAdvanced();
  const int64_t b = NowNs();
  std::shared_ptr<const tg_server::EpochState> state = engine.pinned();
  const int64_t c = NowNs();
  engine.ExecuteReadBatch(state, frame.lines);
  if (spans != nullptr) {
    const int64_t d = NowNs();
    spans->Add("engine.publish", request, 0, a, b, published ? 1 : 0);
    spans->Add("engine.pinned", request, 0, b, c);
    spans->Add("engine.read_batch", request, 0, c, d, frame.lines.size());
  }
}

void ReplayLayers(const Config& config, const Served& s, const WriteBlock& block,
                  Result& result) {
  const std::vector<ReplayFrame> frames =
      ReplayStream(config, s, block, 240);
  const bool writes = !block.lines.empty();
  const uint64_t kConn = 1;

  // Pass 1: the engine calls alone.  Frame by frame, the stream goes
  // through two fresh engines in turn: one untraced, timed a whole frame
  // at a time, and one with a span per engine call.  Each frame's spans
  // must add up to its untraced time: work they miss (releasing a pinned
  // state, say) or the cost of tracing opens a gap.  Alternating frames
  // keeps the host's drift out of the comparison, and the median frame of
  // each kind keeps out the scheduling stalls that hit single frames of
  // either engine.
  SpanLog spans;
  std::vector<double> untraced_us(frames.size()), covered_us(frames.size(), 0.0);
  {
    tg_server::PolicyEngine plain(s.h.graph, s.h.levels, {});
    tg_server::PolicyEngine traced(s.h.graph, s.h.levels, {});
    for (tg_server::PolicyEngine* engine : {&plain, &traced}) {
      engine->ExecuteReadBatch(engine->pinned(),
                               WarmupSweep(s.names, engine->worker_threads()));
    }
    for (size_t f = 0; f < frames.size(); ++f) {
      // Which engine goes first alternates, so neither always finds the
      // frame's data warm in the CPU caches.
      for (int turn = 0; turn < 2; ++turn) {
        if ((turn == 0) == (f % 2 == 0)) {
          const int64_t t0 = NowNs();
          EngineFrame(plain, frames[f], f + 1, nullptr);
          untraced_us[f] = static_cast<double>(NowNs() - t0) / 1e3;
        } else {
          EngineFrame(traced, frames[f], f + 1, &spans);
        }
      }
    }
  }
  for (const Span& span : spans.spans()) {
    covered_us[span.request - 1] += span.us();
  }
  // Read and write frames are checked apart: serve_write's write frames
  // outnumber its read frames, so one median over both would not see the
  // read frames.
  std::vector<double> read_ratio, write_ratio;
  for (size_t f = 0; f < frames.size(); ++f) {
    (frames[f].write ? write_ratio : read_ratio).push_back(covered_us[f] / untraced_us[f]);
  }
  double gap = 0.0;
  for (const std::vector<double>* ratio : {&read_ratio, &write_ratio}) {
    if (!ratio->empty()) {
      gap = std::max(gap, std::fabs(1.0 - Median(*ratio)));
    }
  }
  result.Row("trace.replay_engine_gap", gap, "ratio");
  result.Check("replay engine spans add up to the untraced frame time within 15%",
               gap <= 0.15, "gap " + std::to_string(gap));

  // The engine-layer metrics, from the spans.
  std::vector<double> publish_us, write_us;
  double batch_us = 0.0;
  uint64_t read_lines = 0, lines = 0, publishes = 0;
  for (const Span& span : spans.spans()) {
    const std::string name = span.name;
    if (name == "engine.write") {
      write_us.push_back(span.us());
      ++lines;
    } else if (name == "engine.publish" && span.arg == 1) {
      publish_us.push_back(span.us());
      ++publishes;
    } else if (name == "engine.read_batch") {
      batch_us += span.us();
      read_lines += span.arg;
      lines += span.arg;
    }
  }
  result.Row("engine.read_batch_us_per_line", batch_us / static_cast<double>(read_lines),
             "us");
  result.Row("engine.publishes", 1000.0 * static_cast<double>(publishes) /
                                     static_cast<double>(lines),
             "per_1000_req");
  result.Rec("replay_frames", frames.size());
  result.Rec("replay_publishes", publishes);
  if (writes) {
    result.Row("engine.publish_us", Median(publish_us), "us");
    result.Row("engine.write_us", Median(write_us), "us");
  } else {
    result.Absent("engine.publish_us", "no epoch advances", "us");
    result.Absent("engine.write_us", "no writes", "us");
  }

  // Pass 2: the direct library calls on the same pinned states, with one
  // AnalysisCache per worker slot routed the way the engine chunks a batch,
  // and a benchmark-owned gate fed the same writes.
  tg_server::PolicyEngine engine(s.h.graph, s.h.levels, {});
  auto gate = tg_hier::AdmissionGate::Create(s.h.graph, s.h.levels);
  const size_t workers = engine.worker_threads();
  std::vector<std::unique_ptr<tg_analysis::AnalysisCache>> caches;
  constexpr uint64_t kNever = ~uint64_t{0};
  std::vector<std::vector<uint64_t>> row_epoch(workers,
                                               std::vector<uint64_t>(s.names.size(), kNever));
  {
    std::shared_ptr<const tg_server::EpochState> state = engine.pinned();
    engine.ExecuteReadBatch(state, WarmupSweep(s.names, workers));
    for (size_t w = 0; w < workers; ++w) {
      caches.push_back(std::make_unique<tg_analysis::AnalysisCache>());
      for (tg::VertexId x = 0; x < s.names.size(); ++x) {
        caches[w]->Knowable(state->graph, x);
        row_epoch[w][x] = state->epoch;
      }
    }
  }
  size_t hits0 = 0, misses0 = 0;
  for (const auto& cache : caches) {
    hits0 += cache->hits();
    misses0 += cache->misses();
  }
  std::vector<double> can_know, knowable, cold, can_knowf, can_share, copy_us, decide, commit;
  double batch2_us = 0.0, single_us = 0.0;
  uint64_t accepted = 0, rejected = 0, vetoed = 0;
  for (const ReplayFrame& frame : frames) {
    if (frame.write) {
      engine.ExecuteWrite(frame.lines[0], kConn);
      double decide_us = -1.0, commit_us = -1.0;
      const std::string outcome = GateOutcome(*gate, frame.lines[0], &decide_us, &commit_us);
      accepted += outcome == "ACCEPTED";
      rejected += outcome == "REJECTED";
      vetoed += outcome == "VETOED";
      if (decide_us >= 0) {
        decide.push_back(decide_us);
      }
      if (commit_us >= 0) {
        commit.push_back(commit_us);
      }
      continue;
    }
    engine.PublishIfAdvanced();
    std::shared_ptr<const tg_server::EpochState> state = engine.pinned();
    const tg::ProtectionGraph& g = state->graph;
    int64_t a = NowNs();
    {
      tg::ProtectionGraph copy = g;
    }
    copy_us.push_back(static_cast<double>(NowNs() - a) / 1e3);
    a = NowNs();
    engine.ExecuteReadBatch(state, frame.lines);
    batch2_us += static_cast<double>(NowNs() - a) / 1e3;
    a = NowNs();
    for (const std::string& line : frame.lines) {
      engine.ExecuteRead(*state, line);
    }
    single_us += static_cast<double>(NowNs() - a) / 1e3;

    const size_t n = frame.lines.size();
    const size_t chunks = std::min(workers, n);
    for (size_t c = 0; c < chunks; ++c) {
      const size_t begin = c * (n / chunks) + std::min(c, n % chunks);
      const size_t end = begin + n / chunks + (c < n % chunks ? 1 : 0);
      tg_analysis::AnalysisCache& cache = *caches[c];
      for (size_t i = begin; i < end; ++i) {
        std::vector<std::string_view> tok = tg_util::SplitWhitespace(frame.lines[i]);
        const bool share = tok[0] == "can_share";
        const tg::VertexId x = g.FindVertex(tok[share ? 2 : 1]);
        const tg::VertexId y = tok[0] == "knowable" ? x : g.FindVertex(tok[share ? 3 : 2]);
        const bool row_user = tok[0] == "can_know" || tok[0] == "knowable";
        const bool first_after_advance =
            row_user && row_epoch[c][x] != state->epoch && row_epoch[c][x] != kNever;
        const int64_t t0 = NowNs();
        if (tok[0] == "can_know") {
          cache.CanKnow(g, x, y);
        } else if (tok[0] == "knowable") {
          cache.Knowable(g, x);
        } else if (tok[0] == "can_knowf") {
          tg_analysis::CanKnowF(g, x, y);
        } else {
          tg_analysis::CanShare(g, tg::Right::kRead, x, y);
        }
        const double us = static_cast<double>(NowNs() - t0) / 1e3;
        if (row_user) {
          row_epoch[c][x] = state->epoch;
        }
        if (first_after_advance) {
          cold.push_back(us);
        } else if (tok[0] == "can_know") {
          can_know.push_back(us);
        } else if (tok[0] == "knowable") {
          knowable.push_back(us);
        } else if (tok[0] == "can_knowf") {
          can_knowf.push_back(us);
        } else {
          can_share.push_back(us);
        }
      }
    }
  }
  size_t hits = 0, misses = 0;
  for (const auto& cache : caches) {
    hits += cache->hits();
    misses += cache->misses();
  }
  result.Row("engine.read_speedup", single_us / batch2_us, "x");
  result.Row("analysis.can_know_us", Median(can_know), "us");
  result.Row("analysis.knowable_us", Median(knowable), "us");
  result.Row("analysis.can_knowf_us", Median(can_knowf), "us");
  result.Row("analysis.can_share_us", Median(can_share), "us");
  if (cold.empty()) {
    result.Absent("analysis.knowable_cold_us", "no epoch advances", "us");
  } else {
    result.Row("analysis.knowable_cold_us", Median(cold), "us");
  }
  result.Row("analysis.cache_hit_rate",
             static_cast<double>(hits - hits0) /
                 static_cast<double>(hits - hits0 + misses - misses0),
             "ratio");
  result.Layer("tg.graph_copy_us", Median(copy_us), "us");
  if (writes) {
    result.Row("admission.decide_us", Median(decide), "us");
    result.Row("admission.commit_us", Median(commit), "us");
    result.Row("admission.accepted", static_cast<double>(accepted), "count");
    result.Row("admission.rejected", static_cast<double>(rejected), "count");
    result.Rec("replay_accepted", accepted);
    result.Rec("replay_rejected", rejected);
    result.Rec("replay_vetoed", vetoed);
  } else {
    for (const char* name : {"admission.decide_us", "admission.commit_us",
                             "admission.accepted", "admission.rejected"}) {
      result.Absent(name, "no writes", "");
    }
  }
  if (!spans.WriteJsonl(config.work_dir + "/spans-" + config.workload + "-replay.jsonl")) {
    result.notes.push_back("could not write the replay span file");
  }
}

}  // namespace

int RunServe(const Config& config, Result& result) {
  const bool with_writer = config.workload == "serve_write";
  const size_t connections = kReaders + (with_writer ? 1 : 0);
  const size_t nproc = std::thread::hardware_concurrency();
  if (connections > nproc) {
    result.notes.push_back("refusing to run " + std::to_string(connections) +
                           " connections on " + std::to_string(nproc) + " cores");
    return 2;
  }
  const std::string socket_path =
      config.work_dir + "/pb-" + std::to_string(::getpid()) + ".sock";

  // Set-up: graph generation, server start and the warm-up pass, measured
  // kSetupReps times; the last server stays up for the run.  serve_write's
  // write block and journal aging are the benchmark's own input, built
  // unmeasured and only for the last repetition.
  std::vector<double> setup_cpu, setup_wall;
  Served s;
  WriteBlock block;
  BlockChecks block_checks;
  const int reps = config.smoke ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    if (s.server != nullptr) {
      s.lanes.clear();
      s.server->Stop();
      s = Served();
    }
    std::string error;
    SetupCost cost;
    if (!SetUp(config, socket_path, with_writer && rep == reps - 1, s, &block,
               &block_checks, &cost, &error)) {
      result.notes.push_back("set-up failed: " + error);
      return 1;
    }
    setup_cpu.push_back(cost.cpu_s);
    setup_wall.push_back(cost.wall_s);
  }
  const tg::ProtectionGraph& g0 = s.h.graph;
  const size_t workers = s.server->engine().worker_threads();
  result.Rec("vertices", g0.VertexCount());
  result.Rec("edges", g0.ExplicitEdgeCount());
  result.Rec("engine_workers", workers);
  result.Rec("generator_threads", 1);
  result.Rec("connections", connections);
  result.Rec("journal_records_start", g0.journal().size());
  result.Rec("audit_engine",
             AuditEngineName(tg_hier::ResolveAuditEngine(g0, s.h.levels)));

  if (with_writer) {
    result.Check("write block is well formed and restores the graph exactly",
                 block_checks.restores);
    result.Check("write block moves t rights, whose removal rebuilds exposure state",
                 block_checks.rebuilds);
    result.Rec("block_lines", block.lines.size());
    result.Rec("block_accepted", block.accepted);
    result.Rec("block_rejected", block.rejected);
    result.Rec("block_vetoed", block.vetoed);
    result.Rec("block_txns", block.txns);
    result.Rec("block_t_moves", block.t_moves);
  }
  {
    Zipf fingerprint(s.names.size(), ReaderSeed(config.seed, 0));
    uint64_t h = 0xcbf29ce484222325ull;
    for (const std::string& line : NextReadFrame(fingerprint, s.names)) {
      h = Fnv(h, line);
    }
    for (const std::string& line : block.lines) {
      h = Fnv(h, line);
    }
    result.Rec("stream_fingerprint", std::to_string(h));
  }

  // The same full capped audit the audit workloads run, on the served
  // graph, before the load; below 2048 vertices kAuto resolves to the dense
  // engine.  It runs on a one-thread pool, which runs it inline on this
  // thread: at n = 176 waking the shared pool costs more than the audit,
  // and that wake-up swung the figure by 30-80% between runs of one seed.
  tg_util::ThreadPool inline_pool(1);
  SpanLog audit_spans;
  std::vector<double> audit_s;
  const AuditCounters counters0 = AuditCounters::Read();
  AuditOutput audit;
  // Audits repeat for two seconds (a fifth of that in smoke runs) and the
  // fastest is reported, as on the audit workloads.  On a shared host one
  // CPU can run ~1.5x slower than the others for seconds at a time, so the
  // two seconds are split evenly over the CPUs of the affinity mask, this
  // thread pinned to each in turn.  In 20 alternating pairs of two-second
  // phases the fastest audit spread 0.064 (worst +47%) unpinned and 0.040
  // (worst +11%) split over the CPUs.
  {
    tg_util::ThreadPool::Shared();  // started unpinned, never from a pinned thread
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
          cpus.push_back(cpu);
        }
      }
    }
    if (cpus.empty()) {
      cpus.push_back(-1);  // mask unknown: one unpinned share
    }
    const int64_t total_ns = config.smoke ? 200000000 : 2000000000;
    const int64_t share_ns = total_ns / static_cast<int64_t>(cpus.size());
    for (int cpu : cpus) {
      if (cpu >= 0) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        sched_setaffinity(0, sizeof(one), &one);
      }
      const int64_t share_end = NowNs() + share_ns;
      for (int rep = 0; rep < 2 || NowNs() < share_end; ++rep) {
        const bool traced = TraceAudit(config, audit_s.size());
        audit_s.push_back(TimedAudit(g0, s.h.levels, false, &inline_pool,
                                     traced ? &audit_spans : nullptr, audit_s.size() + 1,
                                     &audit));
      }
    }
    if (cpus.front() >= 0) {
      sched_setaffinity(0, sizeof(allowed), &allowed);
    }
  }
  const AuditCounters counters1 = AuditCounters::Read();
  result.Check("served graph audits secure with zero channels",
               audit.report.secure && audit.channels.empty());
  result.Rec("violations", audit.report.violations.size());
  result.Rec("channels", audit.channels.size());

  std::vector<double> ping_us;
  if (config.trace) {
    for (int i = 0; i < (config.smoke ? 50 : 500); ++i) {
      const int64_t t0 = NowNs();
      if (!s.lanes[0]->conn.RoundTrip({"ping"})) {
        result.notes.push_back("ping failed");
        return 1;
      }
      ping_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
  }

  SpanLog spans;
  Load load;
  std::string error;
  if (!RunLoad(config, s, block, config.trace ? &spans : nullptr, load, &error)) {
    result.notes.push_back("load failed: " + error);
    s.server->Stop();
    return 1;
  }
  result.attempted = load.lines_answered;
  result.failed += load.error_lines;
  result.Check("every read line answered ok", load.error_lines == 0);
  // The pacing lets reads run at most two frames plus a frame in flight
  // ahead of nine per write, and writes at most nine lines ahead of that
  // share, so the write share is 10% up to that constant slack whatever the
  // machine's speed.
  const int64_t read_surplus = static_cast<int64_t>(load.window_read_lines) -
                               static_cast<int64_t>(kReadsPerWrite * load.window_write_lines);
  result.Check("read lines stay within the pacing slack of nine per write",
               !with_writer || (read_surplus >= -static_cast<int64_t>(9 * kReadsPerWrite) &&
                                read_surplus <= static_cast<int64_t>(3 * kFrameLines)),
               std::to_string(load.window_write_lines) + " writes, " +
                   std::to_string(load.window_read_lines) + " reads");
  result.Rec("write_share_permille",
             1000 * load.window_write_lines / std::max<uint64_t>(1, load.window_lines));
  bool streams_pure = true;
  for (size_t r = 0; r < kReaders; ++r) {
    Zipf again(s.names.size(), ReaderSeed(config.seed, r));
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint64_t f = 0; f < s.lanes[r]->frames_sent; ++f) {
      for (const std::string& line : NextReadFrame(again, s.names)) {
        h = Fnv(h, line);
      }
    }
    streams_pure = streams_pure && h == s.lanes[r]->stream_hash;
  }
  result.Check("each reader's request stream is a pure function of the seed", streams_pure);

  // End state over the wire, then the shadow replay.
  auto end_state = s.lanes[0]->conn.RoundTrip({"epoch"});
  uint64_t wire_epoch = 0;
  if (!end_state) {
    result.Check("end-state probe answered", false);
  } else {
    const std::string& r = (*end_state)[0];
    wire_epoch =
        static_cast<uint64_t>(std::atoll(tg_server::ExtractJsonField(r, "epoch").c_str()));
    const uint64_t vertices = static_cast<uint64_t>(
        std::atoll(tg_server::ExtractJsonField(r, "vertices").c_str()));
    const uint64_t edges =
        static_cast<uint64_t>(std::atoll(tg_server::ExtractJsonField(r, "edges").c_str()));
    result.Check("vertex and edge counts at the end equal the start",
                 vertices == g0.VertexCount() && edges == g0.ExplicitEdgeCount(),
                 std::to_string(vertices) + "/" + std::to_string(edges));
    result.Rec("final_epoch", wire_epoch);
  }
  CheckAgainstShadow(s, block, load, wire_epoch, result);
  s.lanes.clear();
  s.server->Stop();
  const uint64_t journal_end = s.server->engine().gate().graph().journal().size();
  result.Rec("journal_records_end", journal_end);
  result.Rec("write_lines", load.write_outcomes.size());
  {
    const auto& gate = s.server->engine().gate();
    result.Rec("accepted", gate.accepted_count());
    result.Rec("rejected", gate.rejected_count());
    result.Rec("vetoed", gate.vetoed_count());
    result.Rec("txns_committed", gate.txns_committed());
  }

  const double lines = static_cast<double>(load.window_lines);
  // Whole-window figures: a stall anywhere in the window (a slow publish,
  // a lock wait) lowers qps, and any CPU it burns raises cpu_us_per_req.
  result.Extra("qps", lines / load.wall_s, "1/s");
  result.E2E("cpu_us_per_req", load.cpu_s / lines * 1e6, "us");
  result.Extra("read_p50_ms", Median(load.read_ms), "ms");
  if (load.read_ms.size() >= 1000) {
    result.Extra("read_p99_ms", Quantile(load.read_ms, 0.99), "ms");
  } else {
    result.ExtraAbsent("read_p99_ms",
                       std::to_string(load.read_ms.size()) + " read frames, p99 needs 1000", "ms");
  }
  result.E2E("audit_s", *std::min_element(audit_s.begin(), audit_s.end()), "s");
  result.E2E("setup_s", Median(setup_cpu), "s");
  result.Extra("setup_wall_s", Median(setup_wall), "s");
  result.E2E("peak_rss_mb", PeakRssMb(), "MB");
  result.Rec("read_frames", load.read_ms.size());
  result.Rec("write_frames", load.write_ms.size());
  if (with_writer) {
    result.Extra("write_p50_ms", Median(load.write_ms), "ms");
    result.Extra("write_p99_ms", Quantile(load.write_ms, 0.99), "ms");
  } else {
    result.ExtraAbsent("write_p50_ms", "no writes", "ms");
    result.ExtraAbsent("write_p99_ms", "no writes", "ms");
  }
  if (!config.trace) {
    return 0;
  }

  result.Row("server.ping_rtt_us", Median(ping_us), "us");
  result.Row("server.lines_per_batch",
             static_cast<double>(load.window_read_lines) / static_cast<double>(load.batches),
             "lines");
  {
    std::vector<double> codec_us;
    tg_server::FrameDecoder decoder;
    std::string out;
    for (const auto& [request, response] : load.payloads) {
      const int64_t t0 = NowNs();
      decoder.Feed(tg_server::EncodeFrame(request));
      decoder.Next(&out);
      decoder.Feed(tg_server::EncodeFrame(response));
      decoder.Next(&out);
      codec_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    result.Row("server.frame_codec_us", Median(codec_us), "us");
  }
  ReplayLayers(config, s, block, result);
  result.Layer("tg.journal_records", static_cast<double>(journal_end), "count");
  AuditStageLayers(audit_spans, false, audit_s, result);
  AuditCounterLayers(counters0, counters1, static_cast<double>(audit_s.size()), result);
  {
    tg_analysis::AnalysisCache cache;
    const tg::AnalysisSnapshot& snap = cache.Snapshot(g0);
    std::vector<double> index_ms;
    for (int rep = 0; rep < 20; ++rep) {
      const int64_t t0 = NowNs();
      tg_analysis::BridgeEnumIndex index(snap);
      index_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    }
    result.Layer("audit.bridge_index_ms", Median(index_ms), "ms");
  }
  if (!spans.WriteJsonl(config.work_dir + "/spans-" + config.workload + ".jsonl")) {
    result.notes.push_back("could not write the span file");
  }
  return 0;
}

}  // namespace perfbench

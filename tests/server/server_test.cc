// In-process PolicyServer round-trips: the wire verbs end to end, the
// admission/txn ownership rules, and the protocol-robustness paths the
// ISSUE calls out — oversized frame, truncated frame, unknown verb,
// mid-request disconnect, slow-reader backpressure.  Everything runs
// against a loopback unix socket (plus one TCP case) with real sockets,
// so these also exercise the epoll loop, the dispatcher handoff, and the
// zombie-reaping connection lifetime under sanitizers.

#include "src/server/server.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/util/flight_recorder.h"
#include "src/util/metrics.h"
#include "src/util/trace.h"

namespace tg_server {
namespace {

std::string UniqueSocketPath(const char* tag) {
  static int counter = 0;
  return "/tmp/tg_server_test_" + std::to_string(::getpid()) + "_" + tag + "_" +
         std::to_string(counter++) + ".sock";
}

// A five-vertex office: alice can *take* from bob (who reads doc), but has
// no information path of her own until an admitted take gives her one.
//
//   alice -t-> bob    bob -r-> doc    carol -w-> memo    alice -g-> carol
//
// Everything sits in one level, so the admission gate accepts same-level
// rules and the tests can drive writes without tripping the veto paths.
struct OfficeFixture {
  tg::ProtectionGraph graph;
  tg_hier::LevelAssignment levels;

  OfficeFixture() {
    tg::VertexId alice = graph.AddSubject("alice");
    tg::VertexId bob = graph.AddSubject("bob");
    tg::VertexId carol = graph.AddSubject("carol");
    tg::VertexId doc = graph.AddObject("doc");
    tg::VertexId memo = graph.AddObject("memo");
    EXPECT_TRUE(graph.AddExplicit(alice, bob, tg::RightSet(tg::Right::kTake)).ok());
    EXPECT_TRUE(graph.AddExplicit(bob, doc, tg::RightSet(tg::Right::kRead)).ok());
    EXPECT_TRUE(graph.AddExplicit(carol, memo, tg::RightSet(tg::Right::kWrite)).ok());
    EXPECT_TRUE(graph.AddExplicit(alice, carol, tg::RightSet(tg::Right::kGrant)).ok());
    levels = tg_hier::LevelAssignment(graph.VertexCount(), 1);
    for (tg::VertexId v = 0; v < static_cast<tg::VertexId>(graph.VertexCount()); ++v) {
      levels.Assign(v, 0);
    }
    EXPECT_TRUE(levels.Finalize());
  }
};

// Starts a server over the fixture on a fresh unix socket and connects one
// client.  Additional clients/raw sockets connect to server->unix_path().
struct ServerHarness {
  explicit ServerHarness(const char* tag, PolicyServer::Options options = {}) {
    OfficeFixture office;
    options.unix_path = UniqueSocketPath(tag);
    server = std::make_unique<PolicyServer>(std::move(office.graph),
                                            std::move(office.levels), options);
    auto started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    auto connected = client.ConnectUnix(server->unix_path());
    EXPECT_TRUE(connected.ok()) << connected.ToString();
  }

  std::string Call(const std::string& request) {
    auto response = client.Call(request);
    EXPECT_TRUE(response.ok()) << request << ": " << response.status().ToString();
    return response.ok() ? *response : "";
  }

  std::unique_ptr<PolicyServer> server;
  PolicyClient client;
};

// Raw byte-level access for the malformed-input tests (PolicyClient only
// speaks well-formed frames).
struct RawClient {
  int fd = -1;
  FrameDecoder decoder;

  ~RawClient() { Close(); }

  bool Connect(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      return false;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }

  bool Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) {
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads until one frame decodes ("payload") or EOF ("<eof>") or a decode
  // error ("<decode-error>").
  std::string ReadFrameOrEof() {
    std::string payload;
    char buf[4096];
    while (true) {
      switch (decoder.Next(&payload)) {
        case FrameDecoder::Result::kFrame:
          return payload;
        case FrameDecoder::Result::kError:
          return "<decode-error>";
        case FrameDecoder::Result::kNeedMore:
          break;
      }
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        return "<eof>";
      }
      decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

  // Drains to EOF; returns how many complete frames arrived on the way.
  size_t DrainToEof() {
    size_t frames = 0;
    std::string payload;
    char buf[4096];
    while (true) {
      while (decoder.Next(&payload) == FrameDecoder::Result::kFrame) {
        ++frames;
      }
      ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        return frames;
      }
      decoder.Feed(std::string_view(buf, static_cast<size_t>(n)));
    }
  }

  void Close() {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
};

uint64_t EpochOf(const std::string& response) {
  const std::string field = ExtractJsonField(response, "epoch");
  EXPECT_FALSE(field.empty()) << response;
  return field.empty() ? 0 : std::stoull(field);
}

bool IsOk(const std::string& response) {
  return ExtractJsonField(response, "ok") == "true";
}

// ---- Read verbs ----

TEST(PolicyServerTest, AnswersReadVerbsOverUnixSocket) {
  ServerHarness h("reads");

  EXPECT_EQ(ExtractJsonField(h.Call("ping"), "verb"), "\"ping\"");

  const std::string epoch = h.Call("epoch");
  EXPECT_TRUE(IsOk(epoch)) << epoch;
  EXPECT_EQ(ExtractJsonField(epoch, "vertices"), "5");
  EXPECT_EQ(ExtractJsonField(epoch, "subjects"), "3");

  // De jure: alice -t-> bob -r-> doc is a take path.
  const std::string know = h.Call("can_know alice doc");
  EXPECT_EQ(ExtractJsonField(know, "verdict"), "true") << know;
  // De facto: alice holds no information rights at all yet.
  const std::string knowf = h.Call("can_knowf alice doc");
  EXPECT_EQ(ExtractJsonField(knowf, "verdict"), "false") << knowf;
  // But bob reads doc directly.
  EXPECT_EQ(ExtractJsonField(h.Call("can_knowf bob doc"), "verdict"), "true");

  const std::string share = h.Call("can_share r alice doc");
  EXPECT_EQ(ExtractJsonField(share, "verdict"), "true") << share;

  const std::string knowable = h.Call("knowable bob");
  EXPECT_TRUE(IsOk(knowable)) << knowable;
  EXPECT_FALSE(ExtractJsonField(knowable, "count").empty());

  const std::string levels = h.Call("levels");
  EXPECT_TRUE(IsOk(levels)) << levels;
  EXPECT_FALSE(ExtractJsonField(levels, "level_count").empty());

  const std::string secure = h.Call("check_secure");
  EXPECT_TRUE(IsOk(secure)) << secure;
  EXPECT_FALSE(ExtractJsonField(secure, "secure").empty());

  const std::string stats = h.Call("stats");
  EXPECT_TRUE(IsOk(stats)) << stats;
  EXPECT_EQ(ExtractJsonField(stats, "connections"), "1");
  EXPECT_FALSE(ExtractJsonField(stats, "worker_threads").empty());
  EXPECT_FALSE(ExtractJsonField(stats, "published_epoch").empty());
}

TEST(PolicyServerTest, ChannelsAndExplainChannelVerbs) {
  ServerHarness h("channels");

  // The fixture assigns every vertex to one level, so the typed channel
  // scan answers cleanly with zero channels.
  const std::string channels = h.Call("channels");
  EXPECT_TRUE(IsOk(channels)) << channels;
  EXPECT_EQ(ExtractJsonField(channels, "count"), "0") << channels;

  // alice -t-> bob is a t>* bridge: the explain verb must type it, carry
  // the word in the embedded provenance record, and report a verified
  // witness replay.
  const std::string explain = h.Call("explain_channel alice bob");
  EXPECT_TRUE(IsOk(explain)) << explain;
  EXPECT_NE(explain.find("\"verdict\":true"), std::string::npos) << explain;
  EXPECT_NE(explain.find("\"word\":\"t>*\""), std::string::npos) << explain;
  EXPECT_NE(explain.find("\"verified\":true"), std::string::npos) << explain;

  // No bridge or connection word links bob to carol (their only relation
  // routes through alice's grant, which needs alice as an endpoint).
  const std::string none = h.Call("explain_channel bob carol");
  EXPECT_TRUE(IsOk(none)) << none;
  EXPECT_NE(none.find("\"verdict\":false"), std::string::npos) << none;

  // Unknown names are errors, and the connection stays usable.
  const std::string bad = h.Call("explain_channel alice nobody");
  EXPECT_FALSE(IsOk(bad)) << bad;
  EXPECT_EQ(ExtractJsonField(h.Call("ping"), "verb"), "\"ping\"");
}

TEST(PolicyServerTest, AnswersOverTcpLoopback) {
  OfficeFixture office;
  PolicyServer::Options options;
  options.tcp_port = 0;  // ephemeral
  PolicyServer server(std::move(office.graph), std::move(office.levels), options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.tcp_port(), 0);

  PolicyClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
  auto response = client.Call("can_know alice doc");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(ExtractJsonField(*response, "verdict"), "true");
}

TEST(PolicyServerTest, ErrorResponsesKeepConnectionUsable) {
  ServerHarness h("errors");
  // Unknown verb, bad arity, unknown vertex: all answer ok:false without
  // dropping the connection (only *framing* errors close it).
  EXPECT_FALSE(IsOk(h.Call("frobnicate")));
  EXPECT_FALSE(IsOk(h.Call("can_know alice")));
  EXPECT_FALSE(IsOk(h.Call("can_know alice nobody")));
  EXPECT_FALSE(IsOk(h.Call("can_share rw alice doc")));  // one right, not a set
  // The capped listings take MAX as a positive decimal.  The audit API reads
  // a cap of 0 as "no cap", so a malformed or zero MAX must be an error, not
  // a full scan.
  for (const std::string verb : {"check_secure", "channels"}) {
    for (const std::string max : {"abc", "-1", "0", "3x", "99999999999999999999999"}) {
      const std::string response = h.Call(verb + " " + max);
      EXPECT_FALSE(IsOk(response)) << verb << " " << max << ": " << response;
      EXPECT_NE(response.find("MAX must be a positive integer"), std::string::npos)
          << verb << " " << max << ": " << response;
    }
    EXPECT_TRUE(IsOk(h.Call(verb + " 2"))) << verb;
  }
  EXPECT_TRUE(IsOk(h.Call("ping")));
}

TEST(PolicyServerTest, PipelinedBatchAnswersInOrderAgainstOneEpoch) {
  ServerHarness h("pipeline");
  std::vector<std::string> requests = {"ping", "can_know alice doc", "can_knowf alice doc",
                                       "epoch", "knowable bob"};
  auto responses = h.client.CallBatch(requests);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), requests.size());
  EXPECT_EQ(ExtractJsonField((*responses)[0], "verb"), "\"ping\"");
  EXPECT_EQ(ExtractJsonField((*responses)[1], "verdict"), "true");
  EXPECT_EQ(ExtractJsonField((*responses)[2], "verdict"), "false");
  const uint64_t epoch = EpochOf((*responses)[0]);
  for (const std::string& r : *responses) {
    EXPECT_TRUE(IsOk(r)) << r;
    EXPECT_EQ(EpochOf(r), epoch) << "one frame must answer against one epoch: " << r;
  }
}

// ---- Admission over the wire ----

TEST(PolicyServerTest, AdmitAppliesRuleAndGivesReadYourWrites) {
  ServerHarness h("admit");
  const uint64_t before = EpochOf(h.Call("epoch"));
  EXPECT_EQ(ExtractJsonField(h.Call("can_knowf alice doc"), "verdict"), "false");

  const std::string admit = h.Call("admit take alice bob doc r");
  ASSERT_TRUE(IsOk(admit)) << admit;
  EXPECT_FALSE(ExtractJsonField(admit, "decision").empty()) << admit;
  EXPECT_EQ(EpochOf(admit), before + 1) << admit;

  // Same connection, next request: must see its own write.
  const std::string after = h.Call("can_knowf alice doc");
  EXPECT_EQ(ExtractJsonField(after, "verdict"), "true") << after;
  EXPECT_GE(EpochOf(after), before + 1);
}

TEST(PolicyServerTest, ReadWriteReadInOneFrameOrdersAroundTheWrite) {
  ServerHarness h("rwr");
  auto responses = h.client.CallBatch({"can_knowf alice doc", "admit take alice bob doc r",
                                       "can_knowf alice doc"});
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), 3u);
  EXPECT_EQ(ExtractJsonField((*responses)[0], "verdict"), "false") << (*responses)[0];
  EXPECT_TRUE(IsOk((*responses)[1])) << (*responses)[1];
  EXPECT_EQ(ExtractJsonField((*responses)[2], "verdict"), "true") << (*responses)[2];
  EXPECT_LT(EpochOf((*responses)[0]), EpochOf((*responses)[2]));
}

TEST(PolicyServerTest, AdmitRejectsMalformedAndUnknownRules) {
  ServerHarness h("badadmit");
  EXPECT_FALSE(IsOk(h.Call("admit steal alice bob doc r")));
  EXPECT_FALSE(IsOk(h.Call("admit take alice bob nobody r")));
  EXPECT_FALSE(IsOk(h.Call("admit")));
  // The graph is untouched by the failures.
  EXPECT_EQ(ExtractJsonField(h.Call("can_knowf alice doc"), "verdict"), "false");
}

// ---- Transactions and ownership ----

TEST(PolicyServerTest, TxnIsExclusiveToItsConnection) {
  ServerHarness h("txnown");
  PolicyClient other;
  ASSERT_TRUE(other.ConnectUnix(h.server->unix_path()).ok());

  const std::string begin = h.Call("txn begin");
  ASSERT_TRUE(IsOk(begin)) << begin;
  EXPECT_NE(ExtractJsonField(begin, "txn"), "0");

  // The other connection can neither write nor open its own transaction.
  auto blocked = other.Call("admit take alice bob doc r");
  ASSERT_TRUE(blocked.ok());
  EXPECT_FALSE(IsOk(*blocked));
  EXPECT_NE(blocked->find("held by another connection"), std::string::npos) << *blocked;
  auto begin2 = other.Call("txn begin");
  ASSERT_TRUE(begin2.ok());
  EXPECT_FALSE(IsOk(*begin2));
  auto status = other.Call("txn status");
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(ExtractJsonField(*status, "owned"), "false") << *status;
  // Reads stay unaffected while the transaction is open.
  auto read = other.Call("can_know alice doc");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(ExtractJsonField(*read, "verdict"), "true");

  // Owner stages and commits; the staged rule lands exactly at commit.
  const std::string staged = h.Call("admit take alice bob doc r");
  ASSERT_TRUE(IsOk(staged)) << staged;
  auto mid = other.Call("can_knowf alice doc");
  ASSERT_TRUE(mid.ok());
  EXPECT_EQ(ExtractJsonField(*mid, "verdict"), "false") << "staged rule visible before commit";
  const std::string commit = h.Call("txn commit");
  ASSERT_TRUE(IsOk(commit)) << commit;
  EXPECT_EQ(ExtractJsonField(commit, "committed"), "true");
  EXPECT_EQ(ExtractJsonField(commit, "applied"), "1");

  // Ownership released: the other connection can now transact.
  auto begin3 = other.Call("txn begin");
  ASSERT_TRUE(begin3.ok());
  EXPECT_TRUE(IsOk(*begin3)) << *begin3;
  auto abort = other.Call("txn abort");
  ASSERT_TRUE(abort.ok());
  EXPECT_EQ(ExtractJsonField(*abort, "committed"), "false");
}

TEST(PolicyServerTest, DisconnectAbortsOpenTxn) {
  ServerHarness h("txndrop");
  ASSERT_TRUE(IsOk(h.Call("txn begin")));
  h.client.Close();

  PolicyClient other;
  ASSERT_TRUE(other.ConnectUnix(h.server->unix_path()).ok());
  // The loop thread aborts the orphaned transaction when it notices the
  // EOF; poll briefly rather than assuming we lost the race.
  bool released = false;
  for (int i = 0; i < 500 && !released; ++i) {
    auto status = other.Call("txn status");
    ASSERT_TRUE(status.ok());
    released = ExtractJsonField(*status, "txn") == "0";
    if (!released) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(released) << "orphaned transaction never aborted";
  auto begin = other.Call("txn begin");
  ASSERT_TRUE(begin.ok());
  EXPECT_TRUE(IsOk(*begin)) << *begin;
}

// ---- Protocol robustness ----

TEST(PolicyServerTest, MalformedLengthLineGetsFramedErrorThenClose) {
  ServerHarness h("badlen");
  RawClient raw;
  ASSERT_TRUE(raw.Connect(h.server->unix_path()));
  ASSERT_TRUE(raw.Send("notanumber\n"));
  const std::string error = raw.ReadFrameOrEof();
  EXPECT_FALSE(IsOk(error)) << error;
  EXPECT_EQ(raw.ReadFrameOrEof(), "<eof>");
}

TEST(PolicyServerTest, OversizedFrameGetsFramedErrorThenClose) {
  ServerHarness h("oversize");
  RawClient raw;
  ASSERT_TRUE(raw.Connect(h.server->unix_path()));
  ASSERT_TRUE(raw.Send(std::to_string(kMaxFrameBytes + 1) + "\n"));
  const std::string error = raw.ReadFrameOrEof();
  EXPECT_FALSE(IsOk(error)) << error;
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
  EXPECT_EQ(raw.ReadFrameOrEof(), "<eof>");
}

TEST(PolicyServerTest, PayloadMissingTrailingNewlineClosesConnection) {
  ServerHarness h("badterm");
  RawClient raw;
  ASSERT_TRUE(raw.Connect(h.server->unix_path()));
  ASSERT_TRUE(raw.Send("4\npingX"));
  const std::string error = raw.ReadFrameOrEof();
  EXPECT_FALSE(IsOk(error)) << error;
  EXPECT_EQ(raw.ReadFrameOrEof(), "<eof>");
}

TEST(PolicyServerTest, MidFrameDisconnectLeavesServerServing) {
  ServerHarness h("middrop");
  {
    RawClient raw;
    ASSERT_TRUE(raw.Connect(h.server->unix_path()));
    ASSERT_TRUE(raw.Send("100\nonly part of the promised payload"));
  }  // destructor closes mid-frame
  {
    // Disconnect with responses still in flight: the batch results for a
    // closed connection are dropped, not delivered to freed memory.
    RawClient raw;
    ASSERT_TRUE(raw.Connect(h.server->unix_path()));
    std::string payload;
    for (int i = 0; i < 256; ++i) {
      if (i != 0) {
        payload += '\n';
      }
      payload += "can_know alice doc";
    }
    ASSERT_TRUE(raw.Send(EncodeFrame(payload)));
  }  // close without reading anything
  EXPECT_TRUE(IsOk(h.Call("ping")));
}

TEST(PolicyServerTest, EmptyFrameAnswersEmptyFrame) {
  ServerHarness h("empty");
  RawClient raw;
  ASSERT_TRUE(raw.Connect(h.server->unix_path()));
  ASSERT_TRUE(raw.Send(EncodeFrame("") + EncodeFrame("ping")));
  EXPECT_EQ(raw.ReadFrameOrEof(), "");  // zero requests, zero responses, kept paired
  const std::string pong = raw.ReadFrameOrEof();
  EXPECT_TRUE(IsOk(pong)) << pong;
}

TEST(PolicyServerTest, SlowReaderIsClosedNotBufferedForever) {
  PolicyServer::Options options;
  options.max_output_bytes = 1 << 10;  // close once >1 KiB is stuck unsent
  options.max_pending_lines = 1 << 16;
  ServerHarness h("slowreader", options);

  // One frame whose joined responses (~1.4 MB of `levels` JSON) dwarf both
  // the kernel socket buffers and the output cap — and never read a byte.
  RawClient raw;
  ASSERT_TRUE(raw.Connect(h.server->unix_path()));
  std::string payload;
  for (int i = 0; i < 8000; ++i) {
    if (i != 0) {
      payload += '\n';
    }
    payload += "levels";
  }
  ASSERT_TRUE(raw.Send(EncodeFrame(payload)));
  // The server must give up on us: EOF arrives without the response frame
  // ever completing, and the control connection still answers.
  EXPECT_EQ(raw.DrainToEof(), 0u);
  EXPECT_TRUE(IsOk(h.Call("ping")));
}

TEST(PolicyServerTest, BackpressurePausesAndRecovers) {
  PolicyServer::Options options;
  options.max_pending_lines = 8;  // force the pause/resume path
  ServerHarness h("pause", options);
  std::vector<std::string> requests(100, "can_know alice doc");
  for (int round = 0; round < 3; ++round) {
    auto responses = h.client.CallBatch(requests);
    ASSERT_TRUE(responses.ok()) << responses.status().ToString();
    ASSERT_EQ(responses->size(), requests.size());
    for (const std::string& r : *responses) {
      EXPECT_EQ(ExtractJsonField(r, "verdict"), "true") << r;
    }
  }
}

// ---- Lifecycle ----

TEST(PolicyServerTest, StartTwiceFailsStopIsIdempotent) {
  ServerHarness h("lifecycle");
  EXPECT_FALSE(h.server->Start().ok());
  ASSERT_TRUE(IsOk(h.Call("ping")));
  h.server->Stop();
  h.server->Stop();
  EXPECT_GT(h.server->connections_accepted(), 0u);  // exact after Stop()
  // The unix socket is unlinked on shutdown.
  EXPECT_NE(::access(h.server->unix_path().c_str(), F_OK), 0);
}

TEST(PolicyServerTest, StopWithConnectedClientsDoesNotHang) {
  ServerHarness h("stopbusy");
  PolicyClient extra;
  ASSERT_TRUE(extra.ConnectUnix(h.server->unix_path()).ok());
  ASSERT_TRUE(IsOk(h.Call("ping")));
  h.server->Stop();  // clients still connected; must return promptly
}

// ---- Telemetry surface ----

// Forces metrics on and full-fidelity tracing for the body of a telemetry
// test, restoring both (and the slow-query machinery) afterwards so this
// suite's global knobs cannot leak into other tests.  Server Start() sets
// a 1-in-64 sample period, so the period must be re-zeroed after the
// harness exists.
class TelemetryGuard {
 public:
  TelemetryGuard()
      : was_enabled_(tg_util::MetricsEnabled()),
        threshold_(tg_util::SlowQueryThresholdNs()) {
    tg_util::SetMetricsEnabled(true);
  }
  ~TelemetryGuard() {
    tg_util::SetSlowQueryThresholdNs(threshold_);
    tg_util::SetQuerySamplePeriod(0);
    tg_util::SlowQueryLog::Instance().Clear();
    tg_util::SetMetricsEnabled(was_enabled_);
  }

 private:
  bool was_enabled_;
  uint64_t threshold_;
};

TEST(PolicyServerTest, StatsEmbedsTheFullMetricsRegistry) {
  TelemetryGuard guard;
  ServerHarness h("statsreg");
  tg_util::SetQuerySamplePeriod(0);  // record every query's trace events
  ASSERT_TRUE(IsOk(h.Call("can_know alice doc")));
  const std::string stats = h.Call("stats");
  ASSERT_TRUE(IsOk(stats));
  // The hand-picked summary fields are still present...
  EXPECT_FALSE(ExtractJsonField(stats, "connections").empty()) << stats;
  EXPECT_FALSE(ExtractJsonField(stats, "requests").empty()) << stats;
  // ...and the full registry JSON rides along: a superset holding every
  // registered instrument, including the trace-ring loss gauge.
  EXPECT_NE(stats.find("\"metrics\":{"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"trace.dropped\":"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"server.frames_received\":"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"server.request_ns.count\":"), std::string::npos) << stats;
}

TEST(PolicyServerTest, MetricsVerbReturnsPrometheusExposition) {
  TelemetryGuard guard;
  ServerHarness h("promverb");
  ASSERT_TRUE(IsOk(h.Call("ping")));
  const std::string response = h.Call("metrics");
  ASSERT_TRUE(IsOk(response));
  EXPECT_NE(response.find("\"format\":\"prometheus_0_0_4\""), std::string::npos)
      << response.substr(0, 200);
  // The exposition body is JSON-escaped into one field; spot-check that
  // the server families made it through with TYPE headers.
  EXPECT_NE(response.find("# TYPE tg_server_request_ns histogram"), std::string::npos);
  EXPECT_NE(response.find("tg_server_request_ns_bucket{le="), std::string::npos);
  EXPECT_NE(response.find("# TYPE tg_server_requests_rate gauge"), std::string::npos);
  EXPECT_NE(response.find("window=\\\"10s\\\""), std::string::npos);
}

TEST(PolicyServerTest, SlowlogCapturesQueriesPastTheThreshold) {
  TelemetryGuard guard;
  tg_util::SetSlowQueryThresholdNs(1);  // every read is "slow"
  tg_util::SlowQueryLog::Instance().Clear();
  ServerHarness h("slowlog");
  ASSERT_TRUE(IsOk(h.Call("can_know alice doc")));
  ASSERT_TRUE(IsOk(h.Call("can_share r bob doc")));
  const std::string response = h.Call("slowlog 2");
  ASSERT_TRUE(IsOk(response));
  EXPECT_EQ(ExtractJsonField(response, "verb"), "\"slowlog\"") << response;
  EXPECT_EQ(ExtractJsonField(response, "threshold_ns"), "1") << response;
  EXPECT_NE(ExtractJsonField(response, "captured"), "0") << response;
  // Entries carry the request line, a span tree, and (for explainable
  // predicates) the provenance record.
  EXPECT_NE(response.find("\"request\":\"can_share r bob doc\""), std::string::npos)
      << response;
  EXPECT_NE(response.find("\"spans\":["), std::string::npos) << response;
  EXPECT_NE(response.find("\"provenance\":{"), std::string::npos) << response;
}

// Raw HTTP over the server's TCP listener: the first byte not looking
// like a length line flips the connection into HTTP mode.
std::string HttpGet(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  const std::string request = "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(PolicyServerTest, HttpGetMetricsServesAPrometheusScrape) {
  TelemetryGuard guard;
  OfficeFixture office;
  PolicyServer::Options options;
  options.tcp_port = 0;  // ephemeral
  PolicyServer server(std::move(office.graph), std::move(office.levels), options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.tcp_port(), 0);

  const std::string response = HttpGet(server.tcp_port(), "/metrics");
  EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u) << response.substr(0, 120);
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"), std::string::npos);
  // The body is a real exposition and Content-Length covers it exactly
  // (the server closes after one response, so the recv loop read it all).
  const size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const std::string body = response.substr(body_at + 4);
  const std::string length_key = "Content-Length: ";
  const size_t length_at = response.find(length_key);
  ASSERT_NE(length_at, std::string::npos);
  EXPECT_EQ(std::stoull(response.substr(length_at + length_key.size())), body.size());
  EXPECT_EQ(body.rfind("# TYPE ", 0), 0u) << body.substr(0, 120);
  EXPECT_NE(body.find("\ntg_server_http_requests "), std::string::npos);

  // A wire client still speaks the framed protocol on the same listener.
  PolicyClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
  auto framed = client.Call("ping");
  ASSERT_TRUE(framed.ok());
  EXPECT_TRUE(IsOk(*framed));
}

TEST(PolicyServerTest, HttpUnknownTargetGets404AndCloses) {
  TelemetryGuard guard;
  OfficeFixture office;
  PolicyServer::Options options;
  options.tcp_port = 0;
  PolicyServer server(std::move(office.graph), std::move(office.levels), options);
  ASSERT_TRUE(server.Start().ok());

  const std::string response = HttpGet(server.tcp_port(), "/nope");
  EXPECT_EQ(response.rfind("HTTP/1.0 404 Not Found", 0), 0u) << response.substr(0, 120);
  // The server stays healthy for framed clients afterwards.
  PolicyClient client;
  ASSERT_TRUE(client.ConnectTcp("127.0.0.1", server.tcp_port()).ok());
  auto framed = client.Call("ping");
  ASSERT_TRUE(framed.ok());
  EXPECT_TRUE(IsOk(*framed));
}

}  // namespace
}  // namespace tg_server

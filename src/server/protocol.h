// Wire protocol for the always-on policy server.
//
// Newline-delimited, length-framed.  One frame is
//
//   frame    := length "\n" payload "\n"
//   length   := 1..7 ASCII decimal digits, the byte count of `payload`
//   payload  := line ("\n" line)*          (at most kMaxFrameBytes bytes)
//
// A client frame carries one or more *request* lines (verb + whitespace-
// separated arguments); the matching server frame carries exactly one
// single-line JSON *response* object per request line, in order.  Putting
// several requests in one frame pipelines them: the server executes every
// read line of a frame against the same pinned epoch and answers with one
// write() worth of responses, which is what lets the load driver amortize
// syscalls at high QPS.  The trailing newline after the payload doubles as
// a cheap frame check — a frame whose length points at anything other than
// a '\n' is a protocol error and the connection is closed.
//
// Request verbs (see DESIGN.md §14 for the full grammar and semantics):
//
//   reads:   ping | epoch | can_know X Y | can_knowf X Y | can_share R X Y |
//            knowable X | levels | check_secure [MAX] | channels [MAX] |
//            explain_channel U V | stats
//   MAX   := a positive decimal cap on the listing (default 8)
//   writes:  admit RULE | txn begin | txn commit | txn abort | txn status
//   RULE  := take X Y Z RIGHTS | grant X Y Z RIGHTS |
//            create X subject|object RIGHTS [NAME] | remove X Y RIGHTS |
//            post X Y Z | pass X Y Z | spy X Y Z | find X Y Z
//
// Responses always carry "ok" (bool) and, for reads, "epoch" — the epoch
// of the immutable snapshot the answer was computed against.

#ifndef SRC_SERVER_PROTOCOL_H_
#define SRC_SERVER_PROTOCOL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/tg/graph.h"
#include "src/tg/rules.h"
#include "src/util/status.h"

namespace tg_server {

// Hard cap on one payload.  Anything larger is a protocol error: the
// server answers with a framed error and closes, never buffers unbounded
// input.
inline constexpr size_t kMaxFrameBytes = 1 << 20;

// Encodes one payload as a frame ("<len>\npayload\n").
std::string EncodeFrame(std::string_view payload);

// Incremental frame decoder: feed bytes as they arrive, pop payloads as
// they complete.  After an error the decoder is poisoned (every further
// Next() returns kError); the connection must be closed.
class FrameDecoder {
 public:
  enum class Result {
    kNeedMore,  // no complete frame buffered yet
    kFrame,     // *payload was filled with the next frame's payload
    kError,     // malformed input; error() describes it
  };

  void Feed(std::string_view bytes);
  Result Next(std::string* payload);

  const std::string& error() const { return error_; }
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  Result Fail(std::string message);

  std::string buffer_;
  size_t consumed_ = 0;  // bytes of buffer_ already handed out
  std::string error_;
  bool poisoned_ = false;
};

// Splits a payload into request lines (empty lines are preserved — they
// parse as errors downstream, keeping the line/response pairing intact).
std::vector<std::string_view> SplitRequestLines(std::string_view payload);

// True when the request line's verb mutates the graph (admit / txn) and
// must therefore run serially through the admission gate rather than on
// the read worker pool.  Unknown verbs are classified as reads (they fail
// uniformly with an error response).
bool IsWriteRequest(std::string_view line);

// Parses an `admit` rule clause ("take X Y Z rw", "create X object r doc",
// ...) against g's vertex names.  `tokens` excludes the leading "admit".
tg_util::StatusOr<tg::RuleApplication> ParseRuleClause(
    const std::vector<std::string_view>& tokens, const tg::ProtectionGraph& g);

// Builders for the uniform single-line JSON responses.
std::string ErrorResponse(std::string_view message);
std::string OkResponse(std::string_view body_fields);  // "{"ok":true,<fields>}"

// Extracts the raw value of a top-level key from one of *our* flat JSON
// response lines ("true", "42", "\"text\"" — quotes included for strings).
// Empty when the key is absent.  This is a protocol-shape helper for the
// client, tests, and bench — not a general JSON parser.
std::string ExtractJsonField(std::string_view json, std::string_view key);

}  // namespace tg_server

#endif  // SRC_SERVER_PROTOCOL_H_

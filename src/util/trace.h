// Structured tracing: a bounded in-memory ring of timed spans with causal
// (query / parent) identity.
//
// A span is one timed phase of engine work — a snapshot build, one
// product-BFS drain, a de facto saturation, one rule application — with
// two kind-specific payload words (see the per-kind comments below).  On
// top of the flat ring, every span carries three identity words:
//
//   * query_id  — the top-level predicate call (can_know, CheckSecure,
//     monitor Submit, ...) this work belongs to; 0 = background work.
//   * span_id   — this span's own id (process-unique, from 1).
//   * parent_span — the id of the enclosing span (0 = root of its query).
//
// Identity propagates through a thread-local TraceContext: TraceSpan and
// QueryScope install themselves as the ambient parent for their scope, and
// ThreadPool::ParallelFor forwards the caller's context to its workers, so
// spans recorded inside pool tasks still land under the query that
// scheduled them.  The per-query span set therefore forms a single rooted
// tree, which the provenance layer (src/analysis/provenance.h) and the
// Perfetto exporter (src/util/trace_export.h) both consume.
//
// The ring keeps the most recent `capacity` spans; older spans are
// overwritten (total_recorded() and dropped() tell you how many, and the
// trace.dropped gauge mirrors the loss into the metrics registry so
// RenderText/RenderJson exporters cannot silently under-report).
// Recording is lock-free: a writer claims a sequence number with one
// relaxed fetch_add, then fills its slot under a per-slot seqlock.  The
// event's words are relaxed atomics; the writer claims the slot's stamp
// (one CAS), fences, stores the words, and publishes by storing seq + 1
// (release).  Readers accept a copy only when the stamp reads seq + 1 on
// both sides of it (the second read after an acquire fence), so an event
// being overwritten mid-read is skipped rather than returned torn.  A
// writer that finds its slot claimed by another writer, a full ring
// apart, drops its event instead of waiting.  The policy server's
// per-request query spans record from every pool worker at once, and a
// recording mutex would serialize exactly the path the server fans out.
// Each Record also feeds a per-kind duration histogram (span.<kind>_ns)
// backing the `tgsh profile` percentile view.
//
// Tracing shares the observability toggle with the metrics registry
// (TG_METRICS env / compile-time flag; see src/util/metrics.h).  When
// disabled, TraceSpan/QueryScope never read the clock, never touch the
// thread-local context, and record nothing.

#ifndef SRC_UTIL_TRACE_H_
#define SRC_UTIL_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/metrics.h"

namespace tg_util {

enum class TraceKind : uint8_t {
  kSnapshotBuild,    // arg0 = vertex count, arg1 = adjacency records
  kProductBfs,       // arg0 = nodes visited, arg1 = adjacency records scanned
  kDeFactoSaturate,  // arg0 = rounds, arg1 = rules applied
  kRuleApply,        // arg0 = rule kind, arg1 = 1 applied / 0 refused
  kMonitorDecision,  // arg0 = audit outcome, arg1 = audit sequence number
  kCacheRebuild,     // arg0 = graph epoch, arg1 = entries dropped
  kBitReach,         // arg0 = source lanes in the slice, arg1 = word OR relaxations
  kOverlayPatch,     // arg0 = journal records replayed, arg1 = vertices patched
  kCondense,         // arg0 = components, arg1 = deduped quotient edges
  kShardAudit,       // arg0 = level shards processed, arg1 = dirty shards
  kAdmission,        // arg0 = admission event (0 accepted, 1 vetoed,
                     //        2 rejected, 3 txn commit, 4 txn abort),
                     // arg1 = decision sequence / transaction id
  kServer,           // arg0 = requests in the dispatched batch (0 = one
                     //        serially executed write), arg1 = the epoch
                     //        the batch was pinned to
  kBridgeEnum,       // arg0 = take components, arg1 = pivot edges found
  kQuery,            // arg0 = QueryKind, arg1 = verdict / result count
};

// One past the last TraceKind value; sized for per-kind aggregate arrays.
inline constexpr size_t kTraceKindCount = static_cast<size_t>(TraceKind::kQuery) + 1;

const char* TraceKindName(TraceKind kind);

// What a kQuery root span answered (its arg0).  Query scopes are opened by
// the top-level predicate entry points; nested scopes (e.g. the knowable
// closure inside CheckSecure) join the enclosing query instead of starting
// a new one, so one user-visible call maps to exactly one query id.
enum class QueryKind : uint8_t {
  kCanShare,
  kCanKnowF,
  kCanKnow,
  kKnowable,           // one KnowableFrom row
  kRwtgLevels,
  kCheckSecure,
  kCrossLevelChannels,
  kMonitorSubmit,      // one mediated rule application
  kAdmission,          // one admission-gate decision or group commit
  kServerRequest,      // one wire request line executed by the policy
                       // server (read verb or write), wrapped so slow
                       // requests can be harvested by query id
};

inline constexpr size_t kQueryKindCount = static_cast<size_t>(QueryKind::kServerRequest) + 1;

const char* QueryKindName(QueryKind kind);

// The ambient causal identity of the current thread.  query_id == 0 means
// no query is active (background work); parent_span == 0 means spans
// recorded now are roots.
struct TraceContext {
  uint64_t query_id = 0;
  uint64_t parent_span = 0;
};

namespace internal {
// TLS ambient context; inline here so CurrentTraceContext compiles to a
// TLS load on the hot paths that gate per-operation detail on it.
inline thread_local TraceContext g_trace_context;
}  // namespace internal

inline TraceContext CurrentTraceContext() { return internal::g_trace_context; }
inline void SetCurrentTraceContext(TraceContext context) {
  internal::g_trace_context = context;
}

// Sampling for high-rate query spans.  SetQuerySamplePeriod(p) rounds p
// down to a power of two and keeps roughly 1 of every p *sampleable*
// query scopes per thread (period 0 or 1 = keep all; the default).  Only
// scopes opened with QueryScope::kSampleable participate — provenance
// extraction, admission auditing, and the policy server's slow-query root
// always record.  The policy server turns sampling on for the per-request
// predicate scopes (TG_TRACE_SAMPLE, default 16): under serving load the
// per-verb latency histograms already carry the aggregate story, and a
// full-fidelity kQuery event per request is measurable tax.
//
// Per-operation detail (BFS runs, quotient builds, snapshot spans, ...)
// does not tick its own counter: it records exactly when the enclosing
// query was sampled in (TraceDetailArmed), so a kept query carries its
// complete span tree and a skipped query costs nothing but the exact
// aggregate counters.
namespace internal {
// 0 = record every sampleable scope (the default); otherwise a
// power-of-two-minus-one mask applied to a per-thread tick counter.
// Inline so the fast path is a single relaxed load, not a cross-TU call.
inline std::atomic<uint64_t> g_query_sample_mask{0};
}  // namespace internal

inline uint64_t QuerySampleMask() {
  return internal::g_query_sample_mask.load(std::memory_order_relaxed);
}
void SetQuerySamplePeriod(uint64_t period);

inline bool QuerySampleTick() {
  const uint64_t mask = QuerySampleMask();
  if (mask == 0) {
    return true;
  }
  // A query joining an already-recorded query inherits its fate rather
  // than re-rolling, so nested sampleable scopes stay in one span tree.
  if (internal::g_trace_context.query_id != 0) {
    return true;
  }
  thread_local uint64_t counter = 0;
  return (++counter & mask) == 0;
}

// Whether per-operation trace detail should record right now: sampling is
// off entirely, or this thread is inside a query that was sampled in.
inline bool TraceDetailArmed() {
  return QuerySampleMask() == 0 || internal::g_trace_context.query_id != 0;
}

// Installs `context` for the current scope and restores the previous
// context on exit.  ThreadPool workers use this to adopt the ParallelFor
// caller's context for the duration of a batch slice.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(TraceContext context) : previous_(CurrentTraceContext()) {
    SetCurrentTraceContext(context);
  }
  ~ScopedTraceContext() { SetCurrentTraceContext(previous_); }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  TraceContext previous_;
};

struct TraceEvent {
  TraceKind kind = TraceKind::kSnapshotBuild;
  uint64_t seq = 0;          // global sequence number, from 0
  uint64_t start_ns = 0;     // monotonic, relative to the process trace epoch
  uint64_t duration_ns = 0;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
  uint64_t query_id = 0;     // owning query (0 = background)
  uint64_t span_id = 0;      // this span (process-unique, from 1)
  uint64_t parent_span = 0;  // enclosing span (0 = root)
};

class TraceBuffer {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  explicit TraceBuffer(size_t capacity = kDefaultCapacity);

  // The process-wide ring used by TraceSpan.
  static TraceBuffer& Instance();

  // Monotonic nanoseconds since the process trace epoch (first use).
  static uint64_t NowNs();

  // Fresh span / query ids (process-wide, from 1).
  static uint64_t NextSpanId();
  static uint64_t NextQueryId();

  // Records a span stamped with the calling thread's current TraceContext
  // and a freshly allocated span id (returned).  Leaf instrumentation
  // sites (BFS drains, bit-reach slices) use this directly.
  uint64_t Record(TraceKind kind, uint64_t start_ns, uint64_t duration_ns, uint64_t arg0 = 0,
                  uint64_t arg1 = 0);

  // Records a fully formed event; only seq is assigned here.  TraceSpan /
  // QueryScope use this because their identity words were fixed at
  // construction, before the ambient context was restored.
  void RecordEvent(TraceEvent event);

  // The retained events, strictly by seq, oldest first.  Slots whose
  // writer has claimed a seq but not yet published, and slots overwritten
  // while being copied, are omitted (never returned torn).
  std::vector<TraceEvent> Events() const;

  // Events ever recorded, including ones the ring has since overwritten.
  uint64_t total_recorded() const;

  // How many recorded events the ring has overwritten (total - retained).
  uint64_t dropped() const;

  size_t capacity() const { return capacity_; }

  void Clear();

  // "seq kind start_us dur_us ..." lines for the most recent `limit`
  // events (0 = all retained), strictly by seq, oldest first; ends with a
  // "# dropped N ..." line when the ring has overwritten spans.
  std::string RenderText(size_t limit = 0) const;

 private:
  // One ring slot.  `ready` holds seq + 1 once the event for `seq` is
  // fully written, 0 while empty, and kWriting | (seq + 1) while the
  // writer of `seq` owns it.  `words` holds the TraceEvent fields.
  static constexpr uint64_t kWriting = uint64_t{1} << 63;
  static constexpr size_t kEventWords = 9;
  struct Slot {
    std::atomic<uint64_t> ready{0};
    std::atomic<uint64_t> words[kEventWords];
  };

  static void StoreWords(Slot& slot, const TraceEvent& event);
  static TraceEvent LoadWords(const Slot& slot);

  const size_t capacity_;
  std::vector<Slot> ring_;  // slot = seq % capacity_
  std::atomic<uint64_t> next_seq_{0};
};

// Per-kind duration aggregates (span.<kind>_ns histograms), fed by every
// TraceBuffer record on the process-wide instance.  RenderSpanProfileText
// backs `tgsh profile`: one line per kind that has samples, with
// count/mean/p50/p95/p99.  ResetSpanProfile zeroes the histograms only
// (the trace ring is untouched).
Histogram& SpanHistogram(TraceKind kind);
std::string RenderSpanProfileText();
void ResetSpanProfile();

// RAII span recorder into TraceBuffer::Instance().  Payload args may be
// set at construction or updated before scope exit (e.g. counts known
// only after the work ran).  While alive, the span is the ambient parent
// for anything recorded on this thread (and, through ParallelFor, on pool
// workers serving this thread's batches).
class TraceSpan {
 public:
  // kSampleable spans are per-operation detail: they record exactly when
  // the enclosing query was sampled in (or sampling is off entirely), so
  // kept queries carry complete span trees.  Everything else records
  // unconditionally.
  enum Sampling : uint8_t { kAlways, kSampleable };

  explicit TraceSpan(TraceKind kind, uint64_t arg0 = 0, uint64_t arg1 = 0,
                     Sampling sampling = kAlways)
      : kind_(kind),
        arg0_(arg0),
        arg1_(arg1),
        armed_(MetricsEnabled() && (sampling == kAlways || TraceDetailArmed())) {
    if (armed_) {
      context_ = CurrentTraceContext();
      span_id_ = TraceBuffer::NextSpanId();
      SetCurrentTraceContext(TraceContext{context_.query_id, span_id_});
      start_ns_ = TraceBuffer::NowNs();
    }
  }

  ~TraceSpan() {
    if (armed_) {
      SetCurrentTraceContext(context_);
      TraceEvent event;
      event.kind = kind_;
      event.start_ns = start_ns_;
      event.duration_ns = TraceBuffer::NowNs() - start_ns_;
      event.arg0 = arg0_;
      event.arg1 = arg1_;
      event.query_id = context_.query_id;
      event.span_id = span_id_;
      event.parent_span = context_.parent_span;
      TraceBuffer::Instance().RecordEvent(event);
    }
  }

  void set_args(uint64_t arg0, uint64_t arg1) {
    arg0_ = arg0;
    arg1_ = arg1;
  }

  // Whether this span is recording; callers gate sibling per-op detail
  // (timers, per-op histograms) on it so one sampling decision covers all.
  bool armed() const { return armed_; }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceKind kind_;
  uint64_t arg0_;
  uint64_t arg1_;
  bool armed_;
  uint64_t start_ns_ = 0;
  uint64_t span_id_ = 0;
  TraceContext context_;  // the context this span was opened under
};

// RAII root for one top-level predicate call.  Allocates a fresh query id
// when none is active (the root case) and joins the enclosing query
// otherwise, so composed analyses (CheckSecure -> knowable matrix -> batch
// rows) trace as one tree.  Records a kQuery span either way, with
// arg0 = QueryKind and arg1 = the verdict (set_verdict / set_result).
class QueryScope {
 public:
  // Whether this scope participates in query-span sampling (see
  // SetQuerySamplePeriod).  Hot per-request predicate entry points pass
  // kSampleable; everything else records unconditionally.
  enum Sampling : uint8_t { kAlways, kSampleable };

  explicit QueryScope(QueryKind what, uint64_t result = 0, Sampling sampling = kAlways)
      : what_(what),
        result_(result),
        armed_(MetricsEnabled() && (sampling == kAlways || QuerySampleTick())) {
    if (armed_) {
      context_ = CurrentTraceContext();
      query_id_ = context_.query_id != 0 ? context_.query_id : TraceBuffer::NextQueryId();
      span_id_ = TraceBuffer::NextSpanId();
      SetCurrentTraceContext(TraceContext{query_id_, span_id_});
      start_ns_ = TraceBuffer::NowNs();
    }
  }

  ~QueryScope() {
    if (armed_) {
      SetCurrentTraceContext(context_);
      TraceEvent event;
      event.kind = TraceKind::kQuery;
      event.start_ns = start_ns_;
      event.duration_ns = TraceBuffer::NowNs() - start_ns_;
      event.arg0 = static_cast<uint64_t>(what_);
      event.arg1 = result_;
      event.query_id = query_id_;
      event.span_id = span_id_;
      event.parent_span = context_.parent_span;
      TraceBuffer::Instance().RecordEvent(event);
    }
  }

  void set_verdict(bool verdict) { result_ = verdict ? 1 : 0; }
  void set_result(uint64_t result) { result_ = result; }

  // 0 when tracing is disabled or the scope is not armed.
  uint64_t query_id() const { return armed_ ? query_id_ : 0; }
  // True when this scope allocated the query id (top of the tree).
  bool is_root() const { return armed_ && context_.query_id == 0; }

  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

 private:
  QueryKind what_;
  uint64_t result_;
  bool armed_;
  uint64_t query_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t start_ns_ = 0;
  TraceContext context_;
};

}  // namespace tg_util

#endif  // SRC_UTIL_TRACE_H_

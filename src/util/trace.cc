#include "src/util/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace tg_util {

namespace {

std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint64_t> g_next_query_id{1};

}  // namespace

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSnapshotBuild:
      return "snapshot_build";
    case TraceKind::kProductBfs:
      return "product_bfs";
    case TraceKind::kDeFactoSaturate:
      return "defacto_saturate";
    case TraceKind::kRuleApply:
      return "rule_apply";
    case TraceKind::kMonitorDecision:
      return "monitor_decision";
    case TraceKind::kCacheRebuild:
      return "cache_rebuild";
    case TraceKind::kBitReach:
      return "bit_reach";
    case TraceKind::kOverlayPatch:
      return "overlay";
    case TraceKind::kCondense:
      return "condense";
    case TraceKind::kShardAudit:
      return "shard_audit";
    case TraceKind::kAdmission:
      return "admission";
    case TraceKind::kServer:
      return "server";
    case TraceKind::kBridgeEnum:
      return "bridge_enum";
    case TraceKind::kQuery:
      return "query";
  }
  return "unknown";
}

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kCanShare:
      return "can_share";
    case QueryKind::kCanKnowF:
      return "can_know_f";
    case QueryKind::kCanKnow:
      return "can_know";
    case QueryKind::kKnowable:
      return "knowable";
    case QueryKind::kRwtgLevels:
      return "rwtg_levels";
    case QueryKind::kCheckSecure:
      return "check_secure";
    case QueryKind::kCrossLevelChannels:
      return "cross_level_channels";
    case QueryKind::kMonitorSubmit:
      return "monitor_submit";
    case QueryKind::kAdmission:
      return "admission";
    case QueryKind::kServerRequest:
      return "server_request";
  }
  return "unknown";
}

void SetQuerySamplePeriod(uint64_t period) {
  uint64_t mask = 0;
  if (period > 1) {
    uint64_t pow2 = 1;
    while (pow2 * 2 != 0 && pow2 * 2 <= period) {
      pow2 *= 2;
    }
    mask = pow2 - 1;
  }
  internal::g_query_sample_mask.store(mask, std::memory_order_relaxed);
}

TraceBuffer::TraceBuffer(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), ring_(capacity_) {}

TraceBuffer& TraceBuffer::Instance() {
  static TraceBuffer* buffer = new TraceBuffer();
  return *buffer;
}

uint64_t TraceBuffer::NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count());
}

uint64_t TraceBuffer::NextSpanId() {
  return g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t TraceBuffer::NextQueryId() {
  return g_next_query_id.fetch_add(1, std::memory_order_relaxed);
}

uint64_t TraceBuffer::Record(TraceKind kind, uint64_t start_ns, uint64_t duration_ns,
                             uint64_t arg0, uint64_t arg1) {
  TraceEvent event;
  event.kind = kind;
  event.start_ns = start_ns;
  event.duration_ns = duration_ns;
  event.arg0 = arg0;
  event.arg1 = arg1;
  const TraceContext context = CurrentTraceContext();
  event.query_id = context.query_id;
  event.span_id = NextSpanId();
  event.parent_span = context.parent_span;
  RecordEvent(event);
  return event.span_id;
}

void TraceBuffer::StoreWords(Slot& slot, const TraceEvent& event) {
  const uint64_t words[kEventWords] = {
      static_cast<uint64_t>(event.kind), event.seq,     event.start_ns,
      event.duration_ns,                 event.arg0,    event.arg1,
      event.query_id,                    event.span_id, event.parent_span};
  for (size_t i = 0; i < kEventWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
}

TraceEvent TraceBuffer::LoadWords(const Slot& slot) {
  uint64_t words[kEventWords];
  for (size_t i = 0; i < kEventWords; ++i) {
    words[i] = slot.words[i].load(std::memory_order_relaxed);
  }
  TraceEvent event;
  event.kind = static_cast<TraceKind>(words[0]);
  event.seq = words[1];
  event.start_ns = words[2];
  event.duration_ns = words[3];
  event.arg0 = words[4];
  event.arg1 = words[5];
  event.query_id = words[6];
  event.span_id = words[7];
  event.parent_span = words[8];
  return event;
}

void TraceBuffer::RecordEvent(TraceEvent event) {
  const uint64_t seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  event.seq = seq;
  Slot& slot = ring_[seq % capacity_];
  // Claim the slot unless another writer owns it or a newer event already
  // holds it; either way this event is lost, never torn.  Two writers meet
  // on one slot only when they are a full ring apart in seq.
  uint64_t stamp = slot.ready.load(std::memory_order_relaxed);
  bool claimed = false;
  while ((stamp & kWriting) == 0 && stamp <= seq && !claimed) {
    claimed = slot.ready.compare_exchange_weak(stamp, kWriting | (seq + 1),
                                               std::memory_order_relaxed);
  }
  if (claimed) {
    // Seqlock write: the release fence orders the claim before the words,
    // so a reader that copies any of them sees a changed stamp afterwards.
    std::atomic_thread_fence(std::memory_order_release);
    StoreWords(slot, event);
    slot.ready.store(seq + 1, std::memory_order_release);
  }
  if (this == &Instance()) {
    static Gauge& lost = GetGauge("trace.dropped");
    const uint64_t recorded = seq + 1;
    lost.Set(recorded > capacity_ ? static_cast<int64_t>(recorded - capacity_) : 0);
    SpanHistogram(event.kind).Observe(event.duration_ns);
  }
}

std::vector<TraceEvent> TraceBuffer::Events() const {
  const uint64_t next = next_seq_.load(std::memory_order_acquire);
  const uint64_t retained = next < capacity_ ? next : capacity_;
  std::vector<TraceEvent> out;
  out.reserve(retained);
  // Walk seq order directly rather than slot order, so the result is
  // strictly oldest-first even mid-wraparound.  The ready stamp is checked
  // on both sides of the copy: a slot overwritten mid-copy fails the
  // second check and is dropped instead of surfacing torn.
  for (uint64_t seq = next - retained; seq < next; ++seq) {
    const Slot& slot = ring_[seq % capacity_];
    if (slot.ready.load(std::memory_order_acquire) != seq + 1) {
      continue;  // claimed but unpublished, or already overwritten
    }
    TraceEvent copy = LoadWords(slot);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.ready.load(std::memory_order_relaxed) != seq + 1) {
      continue;
    }
    out.push_back(copy);
  }
  return out;
}

uint64_t TraceBuffer::total_recorded() const {
  return next_seq_.load(std::memory_order_relaxed);
}

uint64_t TraceBuffer::dropped() const {
  const uint64_t next = next_seq_.load(std::memory_order_relaxed);
  return next > capacity_ ? next - capacity_ : 0;
}

void TraceBuffer::Clear() {
  // Quiescent-state reset (tests, tool startup); not meant to race live
  // writers, which would re-publish into the cleared ring.
  for (Slot& slot : ring_) {
    slot.ready.store(0, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    StoreWords(slot, TraceEvent{});
  }
  next_seq_.store(0, std::memory_order_release);
  if (this == &Instance()) {
    GetGauge("trace.dropped").Set(0);
  }
}

std::string TraceBuffer::RenderText(size_t limit) const {
  std::vector<TraceEvent> events = Events();
  const uint64_t total = total_recorded();
  const uint64_t lost = total > events.size() ? total - events.size() : 0;
  size_t start = 0;
  if (limit != 0 && events.size() > limit) {
    start = events.size() - limit;
  }
  std::string out;
  char buf[256];
  for (size_t i = start; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::snprintf(buf, sizeof(buf),
                  "%llu %-16s start_us=%llu dur_us=%llu arg0=%llu arg1=%llu qid=%llu span=%llu "
                  "parent=%llu\n",
                  static_cast<unsigned long long>(e.seq), TraceKindName(e.kind),
                  static_cast<unsigned long long>(e.start_ns / 1000),
                  static_cast<unsigned long long>(e.duration_ns / 1000),
                  static_cast<unsigned long long>(e.arg0),
                  static_cast<unsigned long long>(e.arg1),
                  static_cast<unsigned long long>(e.query_id),
                  static_cast<unsigned long long>(e.span_id),
                  static_cast<unsigned long long>(e.parent_span));
    out += buf;
  }
  if (lost > 0) {
    std::snprintf(buf, sizeof(buf), "# dropped %llu of %llu recorded spans (ring capacity %zu)\n",
                  static_cast<unsigned long long>(lost), static_cast<unsigned long long>(total),
                  capacity_);
    out += buf;
  }
  return out;
}

Histogram& SpanHistogram(TraceKind kind) {
  // One registry histogram per kind; pointers are stable, so cache them.
  static Histogram* histograms[kTraceKindCount] = {};
  static std::once_flag once;
  std::call_once(once, [] {
    for (size_t i = 0; i < kTraceKindCount; ++i) {
      std::string name = std::string("span.") + TraceKindName(static_cast<TraceKind>(i)) + "_ns";
      histograms[i] = &GetHistogram(name);
    }
  });
  return *histograms[static_cast<size_t>(kind)];
}

std::string RenderSpanProfileText() {
  std::string out;
  char buf[256];
  for (size_t i = 0; i < kTraceKindCount; ++i) {
    Histogram& h = SpanHistogram(static_cast<TraceKind>(i));
    const uint64_t count = h.count();
    if (count == 0) {
      continue;
    }
    std::snprintf(buf, sizeof(buf),
                  "%-16s count=%llu mean_us=%.1f p50_us<=%.1f p95_us<=%.1f p99_us<=%.1f\n",
                  TraceKindName(static_cast<TraceKind>(i)),
                  static_cast<unsigned long long>(count), h.mean() / 1000.0,
                  static_cast<double>(h.P50()) / 1000.0, static_cast<double>(h.P95()) / 1000.0,
                  static_cast<double>(h.P99()) / 1000.0);
    out += buf;
  }
  if (out.empty()) {
    out = "(no spans recorded)\n";
  }
  return out;
}

void ResetSpanProfile() {
  for (size_t i = 0; i < kTraceKindCount; ++i) {
    SpanHistogram(static_cast<TraceKind>(i)).Reset();
  }
}

}  // namespace tg_util

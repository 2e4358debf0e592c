// A low-overhead, thread-safe metrics registry for the analysis engine.
//
// Five instrument kinds, all safe to touch from ThreadPool workers:
//  * Counter   — monotonic uint64 (relaxed atomic add)
//  * Gauge     — last-written int64 (atomic store)
//  * Histogram — fixed power-of-two buckets with atomic slots, for
//                latencies in nanoseconds and other size-like samples
//  * WindowedCounter / WindowedHistogram — the same counts/buckets kept in
//                a lock-light ring of per-second slabs, so an operator can
//                ask for *rolling* 1 s / 10 s / 60 s rates and percentile
//                views instead of cumulative-since-start numbers.  A slab
//                is claimed for the current second by a relaxed CAS on its
//                interval stamp; readers sum only the slabs whose stamp
//                falls inside the requested window.  Observations racing a
//                slab rotation at an interval edge may be dropped — a
//                benign, bounded loss the windowed views tolerate (the
//                cumulative twin instrument never loses samples).
//
// Instrumentation sites look up their instrument once and cache the
// reference in a function-local static:
//
//   static tg_util::Counter& hits = tg_util::GetCounter("cache.hits");
//   hits.Add();
//
// so the steady-state cost of a counter bump is one relaxed atomic load
// (the enabled flag) plus one relaxed fetch_add on the calling thread's
// shard.  Instruments are never destroyed before process exit; references
// stay valid forever.
//
// Disabling.  Two layers, both spelled TG_METRICS:
//  * Compile time: build with -DTG_METRICS=0 and every instrument method
//    becomes an empty inline function — zero code in the hot paths.
//  * Run time: the TG_METRICS environment variable ("0" / "off" / "false"
//    / "no" disables; unset or anything else enables).  Disabled mode
//    skips the atomic writes *and* the clock reads (ScopedTimer arms
//    itself only when enabled), so the residual cost per site is a
//    relaxed load and a predictable branch.
// The same flag gates the trace ring buffer (src/util/trace.h); it is the
// single observability toggle.

#ifndef SRC_UTIL_METRICS_H_
#define SRC_UTIL_METRICS_H_

#ifndef TG_METRICS
#define TG_METRICS 1
#endif

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tg_util {

// Runtime observability toggle (see file comment).  Initialized from the
// TG_METRICS environment variable at first use; SetMetricsEnabled
// overrides it (tests, embedding applications).
bool MetricsEnabled();
void SetMetricsEnabled(bool enabled);

namespace internal {
// Threads take consecutive shard numbers on their first counter bump.
inline std::atomic<size_t> g_next_counter_shard{0};

inline size_t CounterShard() {
  thread_local const size_t shard =
      g_next_counter_shard.fetch_add(1, std::memory_order_relaxed);
  return shard;
}
}  // namespace internal

// The serving pool bumps the same per-query counters from every worker, so
// a single shared atomic would bounce its cache line between cores on each
// request.  Each thread instead adds into one of kShards cache-line-sized
// slots, and reads sum the slots.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
#if TG_METRICS
    if (MetricsEnabled()) {
      shards_[internal::CounterShard() % kShards].value.fetch_add(
          delta, std::memory_order_relaxed);
    }
#else
    (void)delta;
#endif
  }

  uint64_t value() const {
    uint64_t sum = 0;
    for (const Shard& shard : shards_) {
      sum += shard.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kShards];
};

class Gauge {
 public:
  void Set(int64_t value) {
#if TG_METRICS
    if (MetricsEnabled()) {
      value_.store(value, std::memory_order_relaxed);
    }
#else
    (void)value;
#endif
  }

  void Add(int64_t delta) {
#if TG_METRICS
    if (MetricsEnabled()) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
#else
    (void)delta;
#endif
  }

  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Power-of-two histogram: bucket 0 holds the sample 0, bucket b >= 1 holds
// samples in [2^(b-1), 2^b).  40 buckets cover every nanosecond duration
// up to ~9 minutes; larger samples clamp into the last bucket.
class Histogram {
 public:
  static constexpr size_t kBuckets = 40;

  void Observe(uint64_t sample) { ObserveN(sample, 1); }

  // Records `n` observations of the same sample with one bucket lookup and
  // three atomic adds — the batch path for sites where many events share a
  // measurement (e.g. every line of a pipelined frame has one latency).
  void ObserveN(uint64_t sample, uint64_t n) {
#if TG_METRICS
    if (!MetricsEnabled() || n == 0) {
      return;
    }
    size_t b = BucketOf(sample);
    buckets_[b].fetch_add(n, std::memory_order_relaxed);
    count_.fetch_add(n, std::memory_order_relaxed);
    sum_.fetch_add(sample * n, std::memory_order_relaxed);
#else
    (void)sample;
    (void)n;
#endif
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t b) const {
    return b < kBuckets ? buckets_[b].load(std::memory_order_relaxed) : 0;
  }
  double mean() const {
    uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

  // Upper bound of the bucket containing the p-th percentile sample
  // (p in [0, 100]); 0 when empty.  Bucket resolution, not exact.
  uint64_t PercentileUpperBound(double p) const;

  // Conventional percentile shorthands (bucket upper bounds, like
  // PercentileUpperBound).  Shared by the registry renders, `tgsh
  // profile`, and the bench metrics delta.
  uint64_t P50() const { return PercentileUpperBound(50.0); }
  uint64_t P95() const { return PercentileUpperBound(95.0); }
  uint64_t P99() const { return PercentileUpperBound(99.0); }

  void Reset();

  static size_t BucketOf(uint64_t sample) {
    size_t b = 0;
    while (sample != 0) {
      sample >>= 1;
      ++b;
    }
    return b < kBuckets ? b : kBuckets - 1;
  }

  // Exclusive upper bound of bucket b (2^b; UINT64_MAX for the last).
  static uint64_t BucketUpperBound(size_t b);

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

// Monotonic nanoseconds since the first windowed-instrument use; the
// shared clock behind WindowedCounter::Add / WindowedHistogram::Observe.
// Exposed so callers that already read the clock can pass it through the
// *At variants instead of reading it twice.
uint64_t WindowClockNs();

// Rolling-window counter: a ring of per-second event-count slabs.  Add()
// lands in the slab of the current second; WindowAt() sums the slabs
// covering the trailing `window_ns` and derives an events-per-second rate.
// All slots are relaxed atomics — safe from any thread, no locks.
class WindowedCounter {
 public:
  static constexpr uint64_t kSlabNs = 1000000000;  // one slab per second
  static constexpr size_t kSlabs = 64;             // > 60 s of history

  struct Snapshot {
    uint64_t count = 0;        // events inside the window
    uint64_t window_ns = 0;
    double rate_per_sec = 0.0; // count / window seconds
  };

  void Add(uint64_t delta = 1) {
#if TG_METRICS
    if (MetricsEnabled()) {
      AddAt(delta, WindowClockNs());
    }
#else
    (void)delta;
#endif
  }

  // Explicit-clock variant (tests, replay).  Still gated on MetricsEnabled.
  void AddAt(uint64_t delta, uint64_t now_ns);

  Snapshot Window(uint64_t window_ns) const { return WindowAt(window_ns, WindowClockNs()); }
  Snapshot WindowAt(uint64_t window_ns, uint64_t now_ns) const;

  void Reset();

 private:
  struct Slab {
    std::atomic<uint64_t> stamp{UINT64_MAX};  // interval index; UINT64_MAX = empty
    std::atomic<uint64_t> count{0};
  };
  Slab slabs_[kSlabs];
};

// Rolling-window histogram: the cumulative Histogram's power-of-two bucket
// layout, kept in a ring of per-second slabs like WindowedCounter.
// WindowAt() merges the in-window slabs into one bucket array and reports
// count / sum / rate plus bucket-resolution P50/P95/P99 — the live view
// behind `tgtop` and the Prometheus windowed gauges.
class WindowedHistogram {
 public:
  static constexpr uint64_t kSlabNs = WindowedCounter::kSlabNs;
  static constexpr size_t kSlabs = WindowedCounter::kSlabs;

  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t window_ns = 0;
    double rate_per_sec = 0.0;
    uint64_t p50 = 0, p95 = 0, p99 = 0;  // bucket upper bounds, like Histogram
  };

  void Observe(uint64_t sample) {
#if TG_METRICS
    if (MetricsEnabled()) {
      ObserveAt(sample, WindowClockNs());
    }
#else
    (void)sample;
#endif
  }

  // Explicit-clock variant (tests, replay).  Still gated on MetricsEnabled.
  void ObserveAt(uint64_t sample, uint64_t now_ns) { ObserveAtN(sample, now_ns, 1); }

  // Batch variant: `n` observations of the same sample into one slab —
  // one stamp check however large the frame (see Histogram::ObserveN).
  void ObserveAtN(uint64_t sample, uint64_t now_ns, uint64_t n);

  Snapshot Window(uint64_t window_ns) const { return WindowAt(window_ns, WindowClockNs()); }
  Snapshot WindowAt(uint64_t window_ns, uint64_t now_ns) const;

  void Reset();

 private:
  struct Slab {
    std::atomic<uint64_t> stamp{UINT64_MAX};
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint32_t> buckets[Histogram::kBuckets] = {};
  };
  Slab slabs_[kSlabs];
};

// RAII nanosecond timer.  Arms only when metrics are enabled, so disabled
// mode pays no clock reads.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram) {
#if TG_METRICS
    if (MetricsEnabled()) {
      histogram_ = &histogram;
      start_ = std::chrono::steady_clock::now();
    }
#else
    (void)histogram;
#endif
  }

  ~ScopedTimer() {
    if (histogram_ != nullptr) {
      auto elapsed = std::chrono::steady_clock::now() - start_;
      histogram_->Observe(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

// Process-wide registry.  Lookup is mutex-guarded (call sites cache the
// returned reference); instruments live until process exit.
class MetricsRegistry {
 public:
  static MetricsRegistry& Instance();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);
  WindowedCounter& windowed_counter(std::string_view name);
  WindowedHistogram& windowed_histogram(std::string_view name);

  // Value of a counter by name; 0 when it was never registered.  For
  // exporters and tests, so they need not create instruments as a side
  // effect of reading.
  uint64_t CounterValue(std::string_view name) const;

  // "name value" lines (counters, then gauges, then histograms with
  // count/sum/mean/p50/p99), sorted by name within each kind.
  std::string RenderText() const;

  // One flat JSON object: counters and gauges as integers, histograms
  // expanded to <name>.count / .sum / .p50 / .p99 keys, windowed
  // instruments to <name>.w10s_rate (plus percentile keys for windowed
  // histograms) over the trailing 10 s.
  std::string RenderJson() const;

  // Prometheus text exposition (format 0.0.4) of every instrument, ready
  // for `GET /metrics`.  Registry names map to metric families as
  // `tg_` + the name with every non-[a-zA-Z0-9_:] byte replaced by `_`;
  // a name may carry a `{key=value,...}` suffix whose pairs become labels
  // (values are escaped per the exposition rules).  Cumulative histograms
  // render as native histogram families (cumulative `_bucket{le=...}`,
  // `_sum`, `_count`); windowed instruments render as gauge families
  // suffixed `_rate` / `_p50` / `_p95` / `_p99` with a `window` label for
  // each of the 1 s / 10 s / 60 s trailing views.
  std::string RenderPrometheus() const;

  // Zeroes every instrument (instruments stay registered; cached
  // references stay valid).
  void ResetAll();

 private:
  MetricsRegistry() = default;

  struct Impl;
  Impl& impl() const;
};

// Shorthands for instrumentation sites.
inline Counter& GetCounter(std::string_view name) {
  return MetricsRegistry::Instance().counter(name);
}
inline Gauge& GetGauge(std::string_view name) {
  return MetricsRegistry::Instance().gauge(name);
}
inline Histogram& GetHistogram(std::string_view name) {
  return MetricsRegistry::Instance().histogram(name);
}
inline WindowedCounter& GetWindowedCounter(std::string_view name) {
  return MetricsRegistry::Instance().windowed_counter(name);
}
inline WindowedHistogram& GetWindowedHistogram(std::string_view name) {
  return MetricsRegistry::Instance().windowed_histogram(name);
}

}  // namespace tg_util

#endif  // SRC_UTIL_METRICS_H_

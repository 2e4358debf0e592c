// Shared plumbing for the outside-in benchmark: the run
// configuration, the result a workload fills in, statistics helpers and
// the in-memory span log of a traced run.
//
// The benchmark only calls the library's public headers; every time it
// reports is taken by its own clock reads around those calls.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "src/hierarchy/secure.h"
#include "src/util/thread_pool.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
inline double ProcessCpuSeconds() { return CpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }
inline double ThreadCpuSeconds() { return CpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

inline double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; NaN
// when the sample is empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return std::nan("");
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(const std::vector<double>& values) { return Quantile(values, 0.5); }

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".";  // relative directory for the socket and the span file
};

// One traced interval.  Spans of one client frame or replayed frame share
// `request`; `parent` is the index + 1 of the enclosing span (0 = root).
struct Span {
  const char* name = "";
  uint64_t request = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t arg = 0;  // lines in a frame, 1 when a publish published, ...

  double us() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

// Spans stay in memory while the workload runs and are written once, as
// JSON lines, when it ends.
class SpanLog {
 public:
  // Returns the span's id (index + 1), usable as a child's parent.
  uint64_t Add(const char* name, uint64_t request, uint64_t parent, int64_t start_ns,
               int64_t end_ns, uint64_t arg = 0) {
    spans_.push_back(Span{name, request, parent, start_ns, end_ns, arg});
    return spans_.size();
  }
  const std::vector<Span>& spans() const { return spans_; }
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// A workload's outcome.  `end_to_end` and `layers` hold the metrics every
// workload measures (the latter in traced runs only); they make up the
// result line.  `extra` and `table` are the printed end-to-end and
// per-layer rows, which also name metrics only some workloads exercise.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TableRow {
  std::string name;
  std::string value;  // formatted, or "n/a (...)" when the layer is bypassed
  std::string unit;
};

struct Result {
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<TableRow> extra;
  std::vector<TableRow> table;
  std::vector<std::pair<std::string, std::string>> record;  // key -> JSON value
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::string> notes;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void E2E(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
    Row(name, value, unit);
  }
  void Row(const std::string& name, double value, const std::string& unit) {
    table.push_back({name, Format(value), unit});
  }
  void Absent(const std::string& name, const std::string& why, const std::string& unit) {
    table.push_back({name, "n/a (" + why + ")", unit});
  }
  void Extra(const std::string& name, double value, const std::string& unit) {
    extra.push_back({name, Format(value), unit});
  }
  void ExtraAbsent(const std::string& name, const std::string& why, const std::string& unit) {
    extra.push_back({name, "n/a (" + why + ")", unit});
  }
  static std::string Format(double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return buf;
  }
  void Rec(const std::string& key, uint64_t value) {
    record.emplace_back(key, std::to_string(value));
  }
  void Rec(const std::string& key, const std::string& value) {
    record.emplace_back(key, "\"" + value + "\"");
  }
  // Records a correctness check; a failed check also counts as a failed
  // operation, so it shows in fail_rate.
  bool Check(const std::string& name, bool ok, const std::string& detail = "") {
    checks.emplace_back(name, ok);
    if (!ok) {
      ++failed;
      notes.push_back("check failed: " + name + (detail.empty() ? "" : ": " + detail));
    }
    return ok;
  }
  bool ok() const {
    for (const auto& c : checks) {
      if (!c.second) {
        return false;
      }
    }
    return failed == 0 && attempted > 0;
  }
};

// The three outputs of one full capped audit.
struct AuditOutput {
  tg_hier::SecurityReport report;
  std::vector<tg_hier::CrossLevelChannel> channels;
  std::vector<tg_hier::TypedCrossLevelChannel> typed;
};

// Runs one full capped audit from a fresh AnalysisCache: Snapshot,
// CheckSecure, FindCrossLevelChannels and, when `typed`,
// FindTypedCrossLevelChannels, on `pool` (nullptr = the shared pool).
// Returns its wall time in seconds; with a span log it also records one
// span per stage under an "audit" span.
double TimedAudit(const tg::ProtectionGraph& g, const tg_hier::LevelAssignment& levels,
                  bool typed, tg_util::ThreadPool* pool, SpanLog* spans, uint64_t request,
                  AuditOutput* out);

// A traced run alternates untraced audits (the first, third, ...) with
// audits that record stage spans, so that the spans can be checked against
// untraced audits of the same run: runs in separate processes differ by
// the host's drift, which reached 43% between two one-second runs.
inline bool TraceAudit(const Config& config, size_t audits_done) {
  return config.trace && audits_done % 2 == 1;
}

// Per-layer audit metrics from a traced run's spans, given the wall time of
// every audit of the run in order: the median of each stage over the traced
// audits, and the check that a traced audit's stage spans add up to the
// time of the untraced audits beside it (the median ratio within 25%).
void AuditStageLayers(const SpanLog& spans, bool typed, const std::vector<double>& audit_s,
                      Result& result);

const char* AuditEngineName(tg_hier::AuditEngine engine);

// The registry work counters the audit layers keep (the ones
// exp::MetricsDelta reads), sampled before and after a run's audits.
struct AuditCounters {
  uint64_t condense_stage_visits = 0;
  uint64_t row_sparse_hits = 0;
  uint64_t bfs_node_visits = 0;

  static AuditCounters Read();
};

// Per-audit deltas of the counters as per-layer rows; row_sparse_hits is
// the one every workload's audit moves, so it also goes in the result line.
void AuditCounterLayers(const AuditCounters& before, const AuditCounters& after,
                        double audits, Result& result);

int RunServe(const Config& config, Result& result);
int RunAudit(const Config& config, Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

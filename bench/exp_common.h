// Shared reporting for the experiment binaries: each experiment prints one
// row per paper claim, "claim vs measured", and the binary exits non-zero
// if any claim fails to reproduce.  JsonObject/JsonlWriter add a
// machine-readable companion format (one JSON object per line) for
// benchmarks whose numbers downstream tooling consumes.

#ifndef BENCH_EXP_COMMON_H_
#define BENCH_EXP_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "src/util/metrics.h"
#include "src/util/thread_pool.h"

namespace exp {

class Reporter {
 public:
  explicit Reporter(const char* title) {
    std::printf("=== %s ===\n", title);
    std::printf("%-10s %-58s %-10s %s\n", "exp", "claim", "measured", "status");
  }

  // A boolean claim: the paper asserts `claim`, we measured `measured`.
  void Check(const std::string& id, const std::string& claim, bool expected, bool measured) {
    bool ok = expected == measured;
    std::printf("%-10s %-58s %-10s %s\n", id.c_str(), claim.c_str(),
                measured ? "true" : "false", ok ? "PASS" : "FAIL");
    if (!ok) {
      ++failures_;
    }
  }

  // Free-form data row (no pass/fail semantics).
  void Note(const std::string& id, const std::string& text) {
    std::printf("%-10s %s\n", id.c_str(), text.c_str());
  }

  // Exit code for main().
  int Finish() const {
    std::printf("--- %d failure(s)\n\n", failures_);
    return failures_ == 0 ? 0 : 1;
  }

 private:
  int failures_ = 0;
};

// One flat JSON object, built key by key.  Insertion order is preserved;
// keys are not deduplicated (don't Set the same key twice).
class JsonObject {
 public:
  JsonObject& Set(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + Escape(value) + "\"");
  }
  JsonObject& Set(const std::string& key, const char* value) {
    return Set(key, std::string(value));
  }
  JsonObject& Set(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return Raw(key, buf);
  }
  JsonObject& Set(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Set(const std::string& key, int value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Set(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }

  std::string ToString() const { return "{" + body_ + "}"; }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
      }
      out += c;
    }
    return out;
  }

  JsonObject& Raw(const std::string& key, const std::string& rendered) {
    if (!body_.empty()) {
      body_ += ",";
    }
    body_ += "\"" + Escape(key) + "\":" + rendered;
    return *this;
  }

  std::string body_;
};

// Writes JSON objects one per line (JSON Lines).  Benchmarks emit a
// BENCH_<name>.json next to the binary; scripts/run_all.sh collects them.
class JsonlWriter {
 public:
  explicit JsonlWriter(const std::string& path) : out_(std::fopen(path.c_str(), "w")) {}
  ~JsonlWriter() {
    if (out_ != nullptr) {
      std::fclose(out_);
    }
  }
  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  bool ok() const { return out_ != nullptr; }

  void Write(const JsonObject& object) {
    if (out_ != nullptr) {
      std::fprintf(out_, "%s\n", object.ToString().c_str());
    }
  }

 private:
  std::FILE* out_;
};

// Appends the machine/thread context every benchmark env record must
// carry: the real hardware_concurrency, the effective pool size, and the
// raw TG_THREADS override (empty when unset) — so downstream tooling (and
// scripts/check.sh) can flag artifacts produced by a single-core run.
inline JsonObject& AppendEnvInfo(JsonObject& row) {
  const char* tg_threads = std::getenv("TG_THREADS");
  return row
      .Set("hardware_concurrency", static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .Set("threads", static_cast<uint64_t>(tg_util::ThreadPool::DefaultThreadCount()))
      .Set("tg_threads_env", tg_threads != nullptr ? tg_threads : "");
}

// Snapshot of the engine-internal metric counters, taken at construction.
// AppendTo() folds the deltas since then into a JSONL row, so every timing
// record carries the cache hit rate, snapshot rebuilds, and BFS work that
// produced it.  Counters are process-global; construct one MetricsDelta
// immediately before the phase it should attribute work to.
class MetricsDelta {
 public:
  MetricsDelta() { Snapshot(baseline_); }

  // Re-baselines, so one object can bracket consecutive phases.
  void Reset() { Snapshot(baseline_); }

  JsonObject& AppendTo(JsonObject& row) const {
    Values now;
    Snapshot(now);
    const uint64_t hits = now.cache_hits - baseline_.cache_hits;
    const uint64_t misses = now.cache_misses - baseline_.cache_misses;
    const uint64_t lookups = hits + misses;
    row.Set("cache_hits", hits)
        .Set("cache_misses", misses)
        .Set("cache_hit_rate", lookups > 0 ? static_cast<double>(hits) / lookups : 0.0)
        .Set("snapshot_builds", now.snapshot_builds - baseline_.snapshot_builds)
        .Set("bfs_runs", now.bfs_runs - baseline_.bfs_runs)
        .Set("bfs_node_visits", now.bfs_node_visits - baseline_.bfs_node_visits)
        .Set("bitreach_slices", now.bitreach_slices - baseline_.bitreach_slices)
        .Set("bitreach_waves", now.bitreach_waves - baseline_.bitreach_waves)
        .Set("bitreach_word_ops", now.bitreach_word_ops - baseline_.bitreach_word_ops)
        .Set("bitreach_lane_visits", now.bitreach_lane_visits - baseline_.bitreach_lane_visits)
        .Set("pool_tasks", now.pool_tasks - baseline_.pool_tasks)
        .Set("journal_records", now.journal_records - baseline_.journal_records)
        .Set("overlay_patches", now.overlay_patches - baseline_.overlay_patches)
        .Set("compactions", now.compactions - baseline_.compactions)
        .Set("rows_reused", now.rows_reused - baseline_.rows_reused)
        .Set("condense_components", now.condense_components - baseline_.condense_components)
        .Set("condense_quotient_edges",
             now.condense_quotient_edges - baseline_.condense_quotient_edges)
        .Set("condense_closure_rows", now.condense_closure_rows - baseline_.condense_closure_rows)
        .Set("condense_shards", now.condense_shards - baseline_.condense_shards)
        .Set("condense_shards_dirty", now.condense_shards_dirty - baseline_.condense_shards_dirty)
        .Set("condense_stage_visits", now.condense_stage_visits - baseline_.condense_stage_visits)
        .Set("condense_stage_edge_scans",
             now.condense_stage_edge_scans - baseline_.condense_stage_edge_scans)
        .Set("condense_closure_rounds",
             now.condense_closure_rounds - baseline_.condense_closure_rounds)
        .Set("row_sparse_hits", now.row_sparse_hits - baseline_.row_sparse_hits)
        .Set("row_dense_hits", now.row_dense_hits - baseline_.row_dense_hits);
    // Latency percentiles are cumulative over the process (histogram
    // buckets cannot be diffed), so they summarize the whole run so far.
    tg_util::Histogram& bfs_ns = tg_util::GetHistogram("bfs.run_ns");
    row.Set("bfs_run_ns_p50", bfs_ns.P50())
        .Set("bfs_run_ns_p95", bfs_ns.P95())
        .Set("bfs_run_ns_p99", bfs_ns.P99());
    return row;
  }

 private:
  struct Values {
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t snapshot_builds = 0;
    uint64_t bfs_runs = 0;
    uint64_t bfs_node_visits = 0;
    uint64_t bitreach_slices = 0;
    uint64_t bitreach_waves = 0;
    uint64_t bitreach_word_ops = 0;
    uint64_t bitreach_lane_visits = 0;
    uint64_t pool_tasks = 0;
    uint64_t journal_records = 0;
    uint64_t overlay_patches = 0;
    uint64_t compactions = 0;
    uint64_t rows_reused = 0;
    uint64_t condense_components = 0;
    uint64_t condense_quotient_edges = 0;
    uint64_t condense_closure_rows = 0;
    uint64_t condense_shards = 0;
    uint64_t condense_shards_dirty = 0;
    uint64_t condense_stage_visits = 0;
    uint64_t condense_stage_edge_scans = 0;
    uint64_t condense_closure_rounds = 0;
    uint64_t row_sparse_hits = 0;
    uint64_t row_dense_hits = 0;
  };

  static void Snapshot(Values& v) {
    tg_util::MetricsRegistry& registry = tg_util::MetricsRegistry::Instance();
    v.cache_hits = registry.CounterValue("cache.hits");
    v.cache_misses = registry.CounterValue("cache.misses");
    v.snapshot_builds = registry.CounterValue("snapshot.builds");
    v.bfs_runs = registry.CounterValue("bfs.runs");
    v.bfs_node_visits = registry.CounterValue("bfs.node_visits");
    v.bitreach_slices = registry.CounterValue("bitreach.slices");
    v.bitreach_waves = registry.CounterValue("bitreach.waves");
    v.bitreach_word_ops = registry.CounterValue("bitreach.word_ops");
    v.bitreach_lane_visits = registry.CounterValue("bitreach.lane_visits");
    v.pool_tasks = registry.CounterValue("pool.tasks");
    v.journal_records = registry.CounterValue("incremental.journal_records");
    v.overlay_patches = registry.CounterValue("incremental.overlay_patches");
    v.compactions = registry.CounterValue("incremental.compactions");
    v.rows_reused = registry.CounterValue("incremental.rows_reused");
    v.condense_components = registry.CounterValue("condense.components");
    v.condense_quotient_edges = registry.CounterValue("condense.quotient_edges");
    v.condense_closure_rows = registry.CounterValue("condense.closure_rows");
    v.condense_shards = registry.CounterValue("condense.shards");
    v.condense_shards_dirty = registry.CounterValue("condense.shards_dirty");
    v.condense_stage_visits = registry.CounterValue("condense.stage_visits");
    v.condense_stage_edge_scans = registry.CounterValue("condense.stage_edge_scans");
    v.condense_closure_rounds = registry.CounterValue("condense.closure_rounds");
    v.row_sparse_hits = registry.CounterValue("row.sparse_hits");
    v.row_dense_hits = registry.CounterValue("row.dense_hits");
  }

  Values baseline_;
};

}  // namespace exp

#endif  // BENCH_EXP_COMMON_H_

// audit_scale and audit_leaky: the full capped security audit of a
// generated cluster hierarchy, each audit starting from a fresh
// AnalysisCache.  audit_scale is secure and n = 2^20, so kAuto resolves to
// bridge-enum; audit_leaky plants more cross-level t/g pivots than n/256,
// so kAuto resolves to sharded, and it is the only workload that runs the
// typed channel explanation.  Server, engine and admission are bypassed.

#include <algorithm>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/analysis/bridge_enum.h"
#include "src/analysis/cache.h"
#include "src/hierarchy/secure.h"
#include "src/sim/generator.h"
#include "src/util/metrics.h"
#include "src/util/prng.h"

namespace perfbench {
namespace {

constexpr size_t kAuditCap = 64;
constexpr int kSetupReps = 3;

tg_sim::HierarchicalGraphOptions AuditShape(const Config& config, bool leaky) {
  tg_sim::HierarchicalGraphOptions options;
  options.levels = 8;
  options.subjects_per_cluster = 24;
  options.objects_per_cluster = 8;
  options.tg_chords_per_cluster = 2;
  options.reads_down_per_subject = 1;
  // The smoke sizes stay at n = 2048, the sharded-engine threshold, and on
  // the same side of the pivot-density rule as the full sizes.  One of the
  // leaky graph's planted channels is the anchor (see PlantAnchor).
  if (leaky) {
    options.clusters_per_level = config.smoke ? 8 : 256;
    options.planted_channels = (config.smoke ? 32 : 512) - 1;
  } else {
    options.clusters_per_level = config.smoke ? 8 : 4096;
    options.planted_channels = 0;
  }
  return options;
}

// Plants one adjacent-level t/g channel between the first clusters of
// levels 0 and 1, endpoints, right and direction drawn from the seed.  The
// capped scans walk sources in vertex order and stop at their cap, so
// without it the audit's cost hinges on how far the first planted cluster
// happens to sit from vertex 0: measured at 1.8 s for some seeds and 4.3 s
// for others, a spread no bound could absorb.  With it, every seed's scan
// fills its cap in the first cluster.
void PlantAnchor(tg_sim::GeneratedHierarchy& h, size_t subjects_per_cluster,
                 tg_util::Prng& prng) {
  const tg::VertexId high = h.level_subjects[1][prng.NextBelow(subjects_per_cluster)];
  const tg::VertexId low = h.level_subjects[0][prng.NextBelow(subjects_per_cluster)];
  const tg::RightSet right = prng.NextBool(0.5) ? tg::kTake : tg::kGrant;
  if (prng.NextBool(0.5)) {
    (void)h.graph.AddExplicit(high, low, right);
  } else {
    (void)h.graph.AddExplicit(low, high, right);
  }
}

}  // namespace

AuditCounters AuditCounters::Read() {
  const tg_util::MetricsRegistry& registry = tg_util::MetricsRegistry::Instance();
  return {registry.CounterValue("condense.stage_visits"),
          registry.CounterValue("row.sparse_hits"), registry.CounterValue("bfs.node_visits")};
}

void AuditCounterLayers(const AuditCounters& before, const AuditCounters& after,
                        double audits, Result& result) {
  auto per_audit = [&](uint64_t a, uint64_t b) { return static_cast<double>(b - a) / audits; };
  result.Row("audit.condense_stage_visits",
             per_audit(before.condense_stage_visits, after.condense_stage_visits), "count");
  result.Layer("audit.row_sparse_hits", per_audit(before.row_sparse_hits, after.row_sparse_hits),
               "count");
  result.Row("audit.bfs_node_visits", per_audit(before.bfs_node_visits, after.bfs_node_visits),
             "count");
}

const char* AuditEngineName(tg_hier::AuditEngine engine) {
  switch (engine) {
    case tg_hier::AuditEngine::kAuto:
      return "auto";
    case tg_hier::AuditEngine::kDense:
      return "dense";
    case tg_hier::AuditEngine::kSharded:
      return "sharded";
    case tg_hier::AuditEngine::kBridgeEnum:
      return "bridge_enum";
  }
  return "unknown";
}

double TimedAudit(const tg::ProtectionGraph& g, const tg_hier::LevelAssignment& levels,
                  bool typed, tg_util::ThreadPool* pool, SpanLog* spans, uint64_t request,
                  AuditOutput* out) {
  const int64_t t0 = NowNs();
  tg_analysis::AnalysisCache cache;
  const int64_t s0 = NowNs();
  cache.Snapshot(g);
  const int64_t s1 = NowNs();
  out->report = tg_hier::CheckSecure(g, levels, cache, kAuditCap, pool);
  const int64_t s2 = NowNs();
  out->channels = tg_hier::FindCrossLevelChannels(g, levels, cache, kAuditCap, pool);
  const int64_t s3 = NowNs();
  if (typed) {
    out->typed = tg_hier::FindTypedCrossLevelChannels(g, levels, cache, kAuditCap);
  }
  const int64_t t1 = NowNs();
  if (spans != nullptr) {
    const uint64_t root = spans->Add("audit", request, 0, t0, t1);
    spans->Add("audit.snapshot", request, root, s0, s1);
    spans->Add("audit.check_secure", request, root, s1, s2);
    spans->Add("audit.channels", request, root, s2, s3);
    if (typed) {
      spans->Add("audit.typed_channels", request, root, s3, t1);
    }
  }
  return static_cast<double>(t1 - t0) / 1e9;
}

void AuditStageLayers(const SpanLog& spans, bool typed, const std::vector<double>& audit_s,
                      Result& result) {
  std::vector<double> snapshot, check, channels, typed_ms;
  std::vector<double> stage_s(audit_s.size(), 0.0);
  std::vector<bool> traced(audit_s.size(), false);
  for (const Span& s : spans.spans()) {
    const std::string name = s.name;
    const double ms = s.us() / 1e3;
    if (name == "audit") {
      traced[s.request - 1] = true;
    } else if (name == "audit.snapshot") {
      snapshot.push_back(ms);
    } else if (name == "audit.check_secure") {
      check.push_back(ms);
    } else if (name == "audit.channels") {
      channels.push_back(ms);
    } else if (name == "audit.typed_channels") {
      typed_ms.push_back(ms);
    }
    if (name.rfind("audit.", 0) == 0) {
      stage_s[s.request - 1] += ms / 1e3;
    }
  }
  result.Layer("tg.snapshot_ms", Median(snapshot), "ms");
  result.Layer("audit.check_secure_ms", Median(check), "ms");
  result.Layer("audit.channels_ms", Median(channels), "ms");
  if (typed) {
    result.Row("audit.typed_channels_ms", Median(typed_ms), "ms");
  } else {
    result.Absent("audit.typed_channels_ms", "not run on this workload", "ms");
  }
  // Each traced audit's stage sum is divided by the mean time of the
  // untraced audits either side of it, and the median of those ratios must
  // be within 25% of 1.  Work an audit does outside its stages, or the cost
  // of tracing, opens a gap.  Pairing neighbours in time keeps a change of
  // the host's load during the run out of the ratio, and the median keeps
  // out a burst that hits one audit.  (Fastest against fastest read a rise
  // in load after the first of only three n = 2^20 audits as a gap.)
  std::vector<double> ratio;
  for (size_t i = 0; i < audit_s.size(); ++i) {
    if (!traced[i]) {
      continue;
    }
    double neighbours_s = 0.0;
    int neighbours = 0;
    for (size_t j : {i - 1, i + 1}) {  // i - 1 wraps past the end when i == 0
      if (j < audit_s.size() && !traced[j]) {
        neighbours_s += audit_s[j];
        ++neighbours;
      }
    }
    if (neighbours > 0) {
      ratio.push_back(stage_s[i] / (neighbours_s / neighbours));
    }
  }
  const double gap = ratio.empty() ? 1.0 : std::fabs(1.0 - Median(ratio));
  std::string detail = std::to_string(ratio.size()) + " traced audits";
  if (!ratio.empty()) {
    detail += ", stage sum / untraced neighbours: median " + Result::Format(Median(ratio)) +
              ", range " + Result::Format(*std::min_element(ratio.begin(), ratio.end())) +
              " to " + Result::Format(*std::max_element(ratio.begin(), ratio.end()));
  }
  result.notes.push_back("audit stage check: " + detail);
  result.Row("trace.audit_stage_gap", gap, "ratio");
  result.Check("audit stage spans add up to the neighbouring untraced audits within 25%",
               gap <= 0.25, detail);
}

int RunAudit(const Config& config, Result& result) {
  const bool leaky = config.workload == "audit_leaky";
  const tg_sim::HierarchicalGraphOptions shape = AuditShape(config, leaky);

  // Set-up is graph generation; it runs kSetupReps times from the same seed
  // and the median is reported.
  std::vector<double> setup_cpu, setup_wall;
  tg_sim::GeneratedHierarchy h;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    h = tg_sim::GeneratedHierarchy();  // release the previous graph first
    const double c0 = ProcessCpuSeconds();
    const int64_t t0 = NowNs();
    tg_util::Prng prng(config.seed);
    h = tg_sim::HierarchicalGraph(shape, prng);
    if (leaky) {
      PlantAnchor(h, shape.subjects_per_cluster, prng);
    }
    setup_wall.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_cpu.push_back(ProcessCpuSeconds() - c0);
  }
  const tg::ProtectionGraph& g = h.graph;
  const tg_hier::AuditEngine engine = tg_hier::ResolveAuditEngine(g, h.levels);
  result.Rec("vertices", g.VertexCount());
  result.Rec("edges", g.ExplicitEdgeCount());
  result.Rec("journal_records_start", g.journal().size());
  result.Rec("audit_engine", AuditEngineName(engine));
  result.Rec("planted_channels", shape.planted_channels + (leaky ? 1 : 0));
  result.Check("kAuto resolves to the engine this workload exists for",
               engine == (leaky ? tg_hier::AuditEngine::kSharded
                                : tg_hier::AuditEngine::kBridgeEnum),
               std::string("resolved ") + AuditEngineName(engine));

  SpanLog spans;
  std::vector<double> audit_s;
  AuditOutput first;
  const AuditCounters counters0 = AuditCounters::Read();
  const double cpu0 = ProcessCpuSeconds();
  const int64_t loop0 = NowNs();
  const int64_t deadline = loop0 + static_cast<int64_t>(config.seconds * 1e9);
  // A traced run needs three audits of each kind for the stage-sum check.
  const size_t min_audits = config.trace ? 6 : 1;
  while (audit_s.size() < min_audits || NowNs() < deadline) {
    AuditOutput out;
    ++result.attempted;
    const bool traced = TraceAudit(config, audit_s.size());
    audit_s.push_back(TimedAudit(g, h.levels, leaky, nullptr, traced ? &spans : nullptr,
                                 audit_s.size() + 1, &out));
    if (audit_s.size() == 1) {
      first = std::move(out);
    } else if (out.report.violations.size() != first.report.violations.size() ||
               out.channels.size() != first.channels.size() ||
               out.typed.size() != first.typed.size()) {
      ++result.failed;
      result.notes.push_back("audit " + std::to_string(audit_s.size()) +
                             " differs from the first audit");
    }
  }
  const double loop_s = static_cast<double>(NowNs() - loop0) / 1e9;
  const double cpu_s = ProcessCpuSeconds() - cpu0;
  const AuditCounters counters1 = AuditCounters::Read();
  const double audits = static_cast<double>(audit_s.size());

  // Correctness of the first audit.
  if (leaky) {
    bool pairs_match = first.typed.size() == first.channels.size();
    bool verified = true;
    for (size_t i = 0; i < first.typed.size(); ++i) {
      const tg_analysis::TypedChannel& c = first.typed[i].channel;
      pairs_match = pairs_match && i < first.channels.size() &&
                    c.from == first.channels[i].from && c.to == first.channels[i].to;
      verified = verified && c.replay_verified && tg_analysis::VerifyChannelPath(g, c);
    }
    result.Check("planted channels make the graph insecure", !first.report.secure);
    result.Check("capped audit fills its caps",
                 first.report.violations.size() == kAuditCap &&
                     first.channels.size() == kAuditCap);
    result.Check("typed channel pairs equal FindCrossLevelChannels pairs, in order",
                 pairs_match);
    result.Check("every typed witness passes VerifyChannelPath", verified);
  } else {
    result.Check("audit proves the graph secure with zero channels",
                 first.report.secure && first.report.violations.empty() &&
                     first.channels.empty());
  }
  result.Rec("violations", first.report.violations.size());
  result.Rec("channels", first.channels.size());
  result.Rec("typed_channels", first.typed.size());
  result.Rec("audits", audit_s.size());
  result.Rec("journal_records_end", g.journal().size());

  result.E2E("cpu_us_per_req", cpu_s / audits * 1e6, "us");
  // audit_s is the fastest audit of the run (min-of-N): interference from
  // other processes only ever slows an audit, so the minimum is the figure
  // that repeats.  An audit is one read-only request, so the printed qps
  // and read latencies are audits per second and the median and slowest
  // audit.
  result.E2E("audit_s", *std::min_element(audit_s.begin(), audit_s.end()), "s");
  result.Extra("qps", audits / loop_s, "1/s");
  result.Extra("read_p50_ms", Median(audit_s) * 1e3, "ms");
  result.Extra("read_p99_ms", Quantile(audit_s, 0.99) * 1e3, "ms");
  result.E2E("setup_s", Median(setup_cpu), "s");
  result.Extra("setup_wall_s", Median(setup_wall), "s");
  result.E2E("peak_rss_mb", PeakRssMb(), "MB");
  result.ExtraAbsent("write_p50_ms", "no writes", "ms");
  result.ExtraAbsent("write_p99_ms", "no writes", "ms");

  if (!config.trace) {
    return 0;
  }
  AuditStageLayers(spans, leaky, audit_s, result);
  AuditCounterLayers(counters0, counters1, audits, result);

  // Untimed by the audit: the bridge-enum index on a fresh snapshot, and
  // the graph copy a publish of this graph would pay.
  {
    tg_analysis::AnalysisCache cache;
    const tg::AnalysisSnapshot& snap = cache.Snapshot(g);
    const int64_t t0 = NowNs();
    tg_analysis::BridgeEnumIndex index(snap);
    result.Layer("audit.bridge_index_ms", static_cast<double>(NowNs() - t0) / 1e6, "ms");
  }
  std::vector<double> copy_us;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t t0 = NowNs();
    tg::ProtectionGraph copy = g;
    copy_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  result.Layer("tg.graph_copy_us", Median(copy_us), "us");
  result.Layer("tg.journal_records", static_cast<double>(g.journal().size()), "count");
  for (const char* name : {"server.ping_rtt_us", "server.lines_per_batch",
                           "server.frame_codec_us", "engine.read_batch_us_per_line",
                           "engine.read_speedup", "engine.publish_us", "engine.publishes",
                           "engine.write_us", "admission.decide_us", "admission.commit_us",
                           "admission.accepted", "admission.rejected",
                           "analysis.can_know_us", "analysis.knowable_us",
                           "analysis.can_knowf_us", "analysis.can_share_us",
                           "analysis.knowable_cold_us", "analysis.cache_hit_rate"}) {
    result.Absent(name, "layer bypassed by audit workloads", "");
  }
  if (!spans.WriteJsonl(config.work_dir + "/spans-" + config.workload + ".jsonl")) {
    result.notes.push_back("could not write the span file");
  }
  return 0;
}

}  // namespace perfbench

// Timing gate for the observability tax: a live policy server must serve
// reads with metrics on at >= 0.97x its read throughput with metrics off.

#include <gtest/gtest.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/take_grant.h"
#include "src/util/metrics.h"
#include "tests/server/load.h"

namespace tg_server {
namespace {

struct OverheadResult {
  double qps_on = 0.0;   // lines per process-CPU-second, metrics on
  double qps_off = 0.0;  // lines per process-CPU-second, metrics off
  double ratio = 0.0;    // qps_on / qps_off from median per-phase CPU time
  bool ok = true;
  std::string error;
};

// Nanosecond-resolution CPU seconds consumed by the whole process (every
// thread: client, event loop, dispatcher).  The overhead gate compares CPU
// time, not wall time: the instrumentation tax is extra cycles, while wall
// time on a shared core also swings with scheduler wakeup patterns that
// are bistable across runs and dwarf a 3% effect.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// Measures the TG_METRICS tax inside one live server: identical
// pre-generated read frames are served in alternating metrics-on /
// metrics-off phases over one warm connection, and each mode's cost is the
// median per-phase process CPU time.  Interleaving means slow machine
// moments hit both modes alike, so the ratio reflects the instrumentation
// itself rather than run-to-run setup noise.
OverheadResult RunOverheadPhases(const tg::ProtectionGraph& graph,
                                 const tg_hier::LevelAssignment& levels) {
  OverheadResult result;
  PolicyServer::Options options;
  options.unix_path = "/tmp/tg_metrics_overhead_" + std::to_string(::getpid()) + ".sock";
  PolicyServer server(graph, levels, options);
  if (auto s = server.Start(); !s.ok()) {
    result.ok = false;
    result.error = s.ToString();
    return result;
  }
  std::vector<std::string> names;
  for (tg::VertexId v = 0; v < static_cast<tg::VertexId>(graph.VertexCount()); ++v) {
    names.push_back(graph.NameOf(v));
  }
  PolicyClient client;
  if (auto s = client.ConnectUnix(server.unix_path()); !s.ok()) {
    result.ok = false;
    result.error = s.ToString();
    server.Stop();
    return result;
  }

  // One phase worth of frames, reused verbatim by every phase so both
  // modes serve byte-identical requests.
  Zipf zipf(names.size(), 77);
  const size_t kFrame = 32;
  // Phases last tens of milliseconds — long enough to average over
  // scheduler quanta and timer ticks, whose alignment otherwise dominates
  // an 8 ms phase when client and server share a core.
  const size_t kFramesPerPhase = 120;
  std::vector<std::vector<std::string>> frames(kFramesPerPhase);
  for (std::vector<std::string>& frame : frames) {
    for (size_t i = 0; i < kFrame; ++i) {
      frame.push_back(MakeReadLine(zipf, names));
    }
  }

  // ABBA ordering (on,off,off,on per block of four): back-to-back phases
  // drift measurably warmer, so a fixed on-first order would flatter
  // whichever mode runs second.  Alternating the order inside each block
  // cancels that linear bias.  The first block is warmup, and the reported
  // ratio compares the MEDIAN phase time per mode — a descheduled or
  // timer-tick-unlucky phase is then discarded outright instead of
  // polluting an average.
  const int kBlocks = 20;  // block 0 is warmup
  std::vector<double> phases_on, phases_off;
  for (int block = 0; block < kBlocks && result.ok; ++block) {
    for (int pos = 0; pos < 4 && result.ok; ++pos) {
      const bool on = pos == 0 || pos == 3;
      tg_util::SetMetricsEnabled(on);
      const double cpu0 = ProcessCpuSeconds();
      for (const std::vector<std::string>& frame : frames) {
        auto responses = client.CallBatch(frame);
        if (!responses.ok()) {
          result.ok = false;
          result.error = responses.status().ToString();
          break;
        }
      }
      const double elapsed = ProcessCpuSeconds() - cpu0;
      if (block == 0) {
        continue;
      }
      (on ? phases_on : phases_off).push_back(elapsed);
    }
  }
  tg_util::SetMetricsEnabled(true);
  server.Stop();
  if (result.ok && !phases_on.empty() && !phases_off.empty()) {
    auto median = [](std::vector<double>& v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    const double lines_per_phase = static_cast<double>(kFrame) * kFramesPerPhase;
    result.qps_on = lines_per_phase / median(phases_on);
    result.qps_off = lines_per_phase / median(phases_off);
    result.ratio = result.qps_on / result.qps_off;
  }
  return result;
}

TEST(MetricsOverheadTest, MetricsOnReadThroughputIsAtLeast97PercentOfMetricsOff) {
  tg_sim::HierarchicalGraphOptions shape;
  shape.levels = 2;
  shape.clusters_per_level = 2;
  shape.subjects_per_cluster = 4;
  shape.objects_per_cluster = 2;
  tg_util::Prng prng(4242);
  const tg_sim::GeneratedHierarchy h = tg_sim::HierarchicalGraph(shape, prng);
  const bool metrics_were_enabled = tg_util::MetricsEnabled();

  // Noise on a shared core is one-sided for this purpose: a contaminated
  // attempt exaggerates the gap between modes, it cannot hide a real
  // instrumentation regression across every retry.  So the gate takes the
  // best of up to four attempts, and a true >3% tax (e.g. sampling
  // accidentally disabled) still fails all of them.
  OverheadResult overhead = RunOverheadPhases(h.graph, h.levels);
  for (int attempt = 1; attempt < 4 && overhead.ok && overhead.ratio < 0.97; ++attempt) {
    OverheadResult retry = RunOverheadPhases(h.graph, h.levels);
    if (!retry.ok || retry.ratio > overhead.ratio) {
      overhead = retry;
    }
  }
  tg_util::SetMetricsEnabled(metrics_were_enabled);
  ASSERT_TRUE(overhead.ok) << overhead.error;
  EXPECT_GE(overhead.ratio, 0.97) << "qps on=" << overhead.qps_on
                                  << " off=" << overhead.qps_off;
}

}  // namespace
}  // namespace tg_server

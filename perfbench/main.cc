// perfbench: runs one benchmark workload and prints its report.
//
//   perfbench --workload serve_read|serve_write|audit_scale|audit_leaky
//                    --seed N --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//
// Output: a human-readable report (the per-run record, every check, every
// end-to-end metric and, with --trace 1, the per-layer table), then as the
// last line one JSON object with the keys correct, attempted, failed and
// metrics.  Untraced runs put the end-to-end metrics in it, traced runs the
// per-layer ones.  Exit status: 0 when every correctness check passed, 1
// when one failed or the workload could not run, 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/bench.h"

namespace perfbench {

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"request\":" << s.request
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"arg\":" << s.arg << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "serve_read|serve_write|audit_scale|audit_leaky --seed N --seconds S "
               "--trace 0|1 [--smoke] [--work-dir DIR]\n",
               why);
  return 2;
}

std::string Number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void PrintReport(const Config& config, const Result& r) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              config.workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0, config.smoke ? 1 : 0);
  std::string record = "{\"seed\":" + std::to_string(config.seed) +
                       ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency());
  for (const auto& [key, value] : r.record) {
    record += ",\"" + key + "\":" + value;
  }
  std::printf("record %s}\n", record.c_str());
  for (const auto& [name, ok] : r.checks) {
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", name.c_str());
  }
  for (const Metric& m : r.end_to_end) {
    std::printf("end_to_end %-22s %-14s %s\n", m.name.c_str(), Result::Format(m.value).c_str(),
                m.unit.c_str());
  }
  for (const TableRow& row : r.extra) {
    std::printf("end_to_end %-22s %-14s %s\n", row.name.c_str(), row.value.c_str(),
                row.unit.c_str());
  }
  const double fail_rate =
      r.attempted == 0 ? 1.0 : static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  std::printf("end_to_end %-22s %-14s %s\n", "fail_rate", Result::Format(fail_rate).c_str(),
              "ratio");
  for (const TableRow& row : r.table) {
    std::printf("layer %-34s %-14s %s\n", row.name.c_str(), row.value.c_str(),
                row.unit.c_str());
  }
  for (const std::string& note : r.notes) {
    std::printf("note %s\n", note.c_str());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Config config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) {
      return perfbench::Usage(("missing value for " + arg).c_str());
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::atof(value);
      have_seconds = config.seconds > 0;
    } else if (arg == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = config.trace || std::strcmp(value, "0") == 0;
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else {
      return perfbench::Usage(("unknown flag " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return perfbench::Usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }

  perfbench::Result result;
  int status = 0;
  if (config.workload == "serve_read" || config.workload == "serve_write") {
    status = perfbench::RunServe(config, result);
  } else if (config.workload == "audit_scale" || config.workload == "audit_leaky") {
    status = perfbench::RunAudit(config, result);
  } else {
    return perfbench::Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  perfbench::PrintReport(config, result);
  if (status != 0) {
    std::fflush(stdout);
    return 1;  // the workload could not run: no result line
  }
  const bool correct = result.ok();
  std::string metrics;
  for (const perfbench::Metric& m : config.trace ? result.layers : result.end_to_end) {
    metrics += std::string(metrics.empty() ? "" : ", ") + "\"" + m.name + "\": {\"value\": " +
               perfbench::Number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

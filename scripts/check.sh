#!/usr/bin/env bash
# Sanitizer gate: builds the asan and tsan presets and runs every test not
# labeled "slow" under each.  The fast label covers all unit suites plus
# the observability cross-checks; the slow label (fuzz, corpus, CLI
# subprocess tests, timing gates) stays in the default ctest run, and the
# timing gates and round-trips also run below from the regular build.
#
#   scripts/check.sh            # asan + tsan
#   scripts/check.sh asan       # one preset only
set -euo pipefail

cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(asan tsan)
fi

jobs="$(nproc 2>/dev/null || echo 4)"

for preset in "${presets[@]}"; do
  echo "=== [$preset] configure ==="
  cmake --preset "$preset" >/dev/null
  echo "=== [$preset] build ==="
  cmake --build --preset "$preset" -j "$jobs"
  echo "=== [$preset] ctest (-LE slow) ==="
  ctest --test-dir "build-$preset" -LE slow --output-on-failure -j "$jobs"
done

# Timing gates from the regular (optimized) build: metrics-on read
# throughput >= 0.97x metrics-off, and an admission-gate decision >= 50x
# cheaper than a per-operation re-audit.  They compare CPU costs, so they
# are labeled slow and skipped above: under a sanitizer they would measure
# its instrumentation.  Then the subprocess round-trips of the real
# policy_server, policy_client and tgtop binaries.
echo "=== regular build: timing gates and server round-trips ==="
if [ ! -f build/CMakeCache.txt ]; then
  cmake -B build >/dev/null
fi
cmake --build build -j "$jobs" \
  --target timing_tests policy_server policy_client tgtop audit_tool >/dev/null
ctest --test-dir build -R '^(MetricsOverheadTest|AdmissionSpeedupTest)\.' --output-on-failure
ctest --test-dir build -R '^(policy_server_roundtrip|metrics_roundtrip)$' --output-on-failure

# Trace-export gate: run the demo audit with the Perfetto exporter on and
# validate the trace_event JSON shape that chrome://tracing / Perfetto
# expect.  Skipped (with a notice) when no python3 is on PATH.
echo "=== trace export validation ==="
trace_out="build/audit_tool_check_trace.json"
(cd build && ./examples/audit_tool --demo --trace-json "$(basename "$trace_out")" >/dev/null)
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/validate_trace.py "$trace_out"
else
  echo "validate_trace: python3 not found, skipping trace validation"
fi

# Channel-export gate: run the audit tool's typed-channel probe on the
# demo graph (one planted channel) and validate the ExplainChannel JSONL —
# every record must carry a Theorem 5.2 word type, a replay-verified
# witness, and a rooted single-query span tree.
echo "=== channel export validation ==="
channels_out="build/audit_tool_check_channels.jsonl"
(cd build && ./examples/audit_tool --demo --channels-json "$(basename "$channels_out")" >/dev/null)
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/validate_trace.py --channels "$channels_out"
else
  echo "validate_trace: python3 not found, skipping channel validation"
fi

echo "=== all sanitizer checks passed; timing gates, server round-trips, trace and channel exports ok ==="

#!/usr/bin/env bash
# Sanitizer gate: builds the asan and tsan presets and runs every test not
# labeled "slow" under each.  The fast label covers all unit suites plus
# the observability cross-checks; the slow label (fuzz, corpus, CLI
# subprocess tests) stays in the default ctest run.
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

# Bench smoke from the regular (optimized) build: the level-sharded and
# bridge-enum audits must stay report-identical to the dense engine, the
# admission gate must match the full re-audit, and the policy server must
# answer over the wire exactly as in process.
echo "=== bench smoke (sharded-audit, bridge-enum, admission and server guards) ==="
if [ ! -f build/CMakeCache.txt ]; then
  cmake -B build >/dev/null
fi
cmake --build build -j "$jobs" \
  --target bench_scale bench_bridges bench_admission bench_server policy_server \
           policy_client tgtop audit_tool >/dev/null

# Keep the previous run's server-bench artifact so bench_compare can diff
# this run against it below.
prev_server_bench=""
if [ -f build/tests/BENCH_server_smoke.json ]; then
  prev_server_bench="build/BENCH_server_smoke.prev.json"
  cp build/tests/BENCH_server_smoke.json "$prev_server_bench"
fi

# Benchmark artifacts record the machine context; warn loudly when this
# run's numbers would come from a single effective core (TG_THREADS=1 or a
# 1-core machine) — parallel-speedup rows from such a run are meaningless,
# and the policy-server bench degenerates to a single-worker server (its
# multi-thread read-QPS scaling rows say nothing about the epoll/MVCC
# design, only about one core round-robining threads).
effective_threads="${TG_THREADS:-$(nproc 2>/dev/null || echo 1)}"
if [ "$effective_threads" -le 1 ]; then
  echo "WARNING: bench smoke running with a single effective core" \
       "(TG_THREADS=${TG_THREADS:-unset}, nproc=$(nproc 2>/dev/null || echo '?'));" \
       "treat parallel-speedup numbers — including the server bench's" \
       "single-worker QPS rows — as noise." >&2
fi

ctest --test-dir build \
  -R 'bench_scale_smoke|bench_bridges_smoke|bench_admission_smoke|bench_server_smoke|policy_server_roundtrip|metrics_roundtrip' \
  --output-on-failure

# Bench-drift canary: diff this run's server-bench numbers against the
# previous run's (kept above).  Advisory — prints WARNING lines on >20%
# regressions but never fails the gate; a smoke run on a shared box is too
# noisy for a hard cutoff.
if [ -n "$prev_server_bench" ] && command -v python3 >/dev/null 2>&1 &&
   [ -f build/tests/BENCH_server_smoke.json ]; then
  echo "=== bench drift (server smoke, vs previous run) ==="
  python3 scripts/bench_compare.py "$prev_server_bench" \
    build/tests/BENCH_server_smoke.json || true
fi

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

echo "=== all sanitizer checks passed; bench smoke, telemetry roundtrip, trace and channel exports ok ==="

#!/usr/bin/env python3
"""Smoke configuration of the benchmark: all four workloads on tiny graphs.

    python3 perfbench/smoke_test.py      # from the repository root

Runs every workload untraced and traced through run.py with --smoke and a
one-second window (a few seconds each once the binary is built), and
checks that

  * the result line has exactly the keys correct, attempted, failed and
    metrics, with correct true and nothing failed;
  * its metrics are exactly BENCHMARK.json's end-to-end metrics (untraced)
    or per-layer metrics (traced), each with its unit;
  * the report prints every end-to-end metric with its unit, every
    per-layer metric with a value or "n/a (reason)", and in traced runs the
    tracing overhead of every end-to-end metric;
  * every correctness check ran and passed, including the ones each
    workload exists to run;
  * the same seed reproduces the exact counts, and another seed changes the
    request stream.

Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

END_TO_END = ["qps", "cpu_us_per_req", "read_p50_ms", "read_p99_ms", "write_p50_ms",
              "write_p99_ms", "audit_s", "setup_s", "peak_rss_mb", "fail_rate"]
PER_LAYER = [
    "server.ping_rtt_us", "server.lines_per_batch", "server.frame_codec_us",
    "engine.read_batch_us_per_line", "engine.read_speedup", "engine.publish_us",
    "engine.publishes", "engine.write_us", "admission.decide_us", "admission.commit_us",
    "admission.accepted", "admission.rejected", "analysis.can_know_us",
    "analysis.knowable_us", "analysis.can_knowf_us", "analysis.can_share_us",
    "analysis.knowable_cold_us", "analysis.cache_hit_rate", "tg.graph_copy_us",
    "tg.journal_records", "tg.snapshot_ms", "audit.bridge_index_ms",
    "audit.check_secure_ms", "audit.channels_ms", "audit.typed_channels_ms",
    "audit.condense_stage_visits", "audit.row_sparse_hits", "audit.bfs_node_visits",
]
# Checks each workload must run, by name prefix.
REQUIRED_CHECKS = {
    "serve_read": ["every read line answered ok",
                   "sampled read verdicts match in-process answers",
                   "each reader's request stream is a pure function of the seed",
                   "vertex and edge counts at the end equal the start",
                   "served graph audits secure"],
    "serve_write": ["write block is well formed and restores the graph exactly",
                    "write block moves t rights",
                    "shadow gate reproduces every write decision",
                    "shadow gate reaches the server's final epoch",
                    "sampled read verdicts match in-process answers",
                    "vertex and edge counts at the end equal the start",
                    "read lines stay within the pacing slack"],
    "audit_scale": ["kAuto resolves", "audit proves the graph secure with zero channels"],
    "audit_leaky": ["kAuto resolves", "planted channels make the graph insecure",
                    "typed channel pairs equal FindCrossLevelChannels pairs",
                    "every typed witness passes VerifyChannelPath"],
}
TRACED_CHECKS = {
    "serve_read": ["replay engine spans add up", "audit stage spans add up"],
    "serve_write": ["replay engine spans add up", "audit stage spans add up"],
    "audit_scale": ["audit stage spans add up"],
    "audit_leaky": ["audit stage spans add up"],
}
# Record fields that are exact for a seed (traced serve_write adds the
# replay's counts).
EXACT = {
    "serve_read": ["vertices", "edges", "stream_fingerprint", "journal_records_start",
                   "audit_engine", "violations", "channels"],
    "serve_write": ["vertices", "edges", "stream_fingerprint", "block_lines",
                    "block_accepted", "block_rejected", "block_vetoed", "block_txns",
                    "block_t_moves", "audit_engine"],
    "audit_scale": ["vertices", "edges", "audit_engine", "violations", "channels"],
    "audit_leaky": ["vertices", "edges", "audit_engine", "violations", "channels",
                    "typed_channels"],
}
REPLAY_EXACT = ["replay_frames", "replay_publishes", "replay_accepted", "replay_rejected"]


class SmokeFailure(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise SmokeFailure(message)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    tag = f"{workload} seed={seed} trace={trace}"
    expect(proc.returncode == 0 and lines,
           f"{tag}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr[-4000:]}")
    return tag, lines


def check_run(spec, workload, seed, trace):
    tag, lines = run(workload, seed, trace)
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{tag}: result {lines[-1]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    expect(set(result["metrics"]) == {m["name"] for m in wanted},
           f"{tag}: metrics {sorted(result['metrics'])}")
    for m in wanted:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"] and isinstance(got["value"], (int, float)),
               f"{tag}: metric {m['name']} = {got}")

    report = lines[:-1]
    for name in END_TO_END:
        expect(any(re.match(rf"^end_to_end {re.escape(name)}\s+\S.*\s\S+$", l) for l in report),
               f"{tag}: end-to-end metric {name} not printed with a unit")
    checks = [l for l in report if l.startswith("check ")]
    expect(checks and all(l.startswith("check ok") for l in checks),
           f"{tag}: failed checks {[l for l in checks if not l.startswith('check ok')]}")
    required = REQUIRED_CHECKS[workload] + (TRACED_CHECKS[workload] if trace else [])
    for prefix in required:
        expect(any(l[len("check ok   "):].startswith(prefix) for l in checks),
               f"{tag}: check '{prefix}' did not run")
    if trace:
        for name in PER_LAYER:
            expect(any(re.match(rf"^layer {re.escape(name)}\s+\S", l) for l in report),
                   f"{tag}: per-layer metric {name} not printed")
        for m in spec["end_to_end"]:
            expect(any(l.startswith(f"tracing_overhead {m['name']} ") for l in report),
                   f"{tag}: no tracing overhead for {m['name']}")
    record_line = next(l for l in report if l.startswith("record "))
    return json.loads(record_line[len("record "):])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    try:
        for workload in ("serve_read", "serve_write", "audit_scale", "audit_leaky"):
            untraced = check_run(spec, workload, 1, 0)
            traced = check_run(spec, workload, 1, 1)
            for key in EXACT[workload]:
                expect(untraced[key] == traced[key],
                       f"{workload}: {key} differs for one seed: {untraced[key]} vs "
                       f"{traced[key]}")
            expect(untraced["seed"] == 1 and untraced["nproc"] >= 1,
                   f"{workload}: record lacks seed or nproc")
            print(f"smoke ok: {workload}")
        first = check_run(spec, "serve_write", 1, 1)
        again = check_run(spec, "serve_write", 1, 1)
        for key in REPLAY_EXACT:
            expect(again[key] == first[key],
                   f"serve_write: replay count {key} differs for one seed")
        other = check_run(spec, "serve_write", 2, 0)
        expect(other["stream_fingerprint"] != first["stream_fingerprint"],
               "serve_write: a second seed did not change the request stream")
        print("smoke ok: exact counts repeat for a seed; a second seed changes the stream")
    except SmokeFailure as failure:
        print(f"smoke FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

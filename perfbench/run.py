#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_write --seed 1 --seconds 15 --trace 0

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt) that
compiles the library from src/; it is built in $CARGO_TARGET_DIR, or in
.bench_build when that is unset.  The first run configures and builds
(about 90 s on 4 cores); later runs only re-check and relink what changed.

--trace 0 prints the end-to-end metrics.  --trace 1 first repeats the
workload untraced with the same seed, then runs it traced, prints the
per-layer table and the tracing overhead (traced minus untraced) of every
end-to-end metric, and puts the per-layer metrics in the result line.
The last line of standard output is always the result JSON; the exit
status is non-zero when a correctness check failed or nothing could run.
"""

import argparse
import os
import re
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("serve_read", "serve_write", "audit_scale", "audit_leaky")
RUN_BUDGET_S = 170  # for all runs of the binary after the build, traced runs' two included
E2E_LINE = re.compile(r"^end_to_end (\S+)\s+(\S+)\s+(\S+)$")


def build(build_dir):
    """Configures and builds the benchmark binary; tool output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", os.path.relpath(BENCH_DIR, ROOT), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def run_binary(build_dir, args, trace, deadline):
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--work-dir", build_dir]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_BUDGET_S} s", file=sys.stderr)
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def end_to_end(lines):
    values = {}
    for line in lines:
        m = E2E_LINE.match(line)
        if m and not m.group(2).startswith("n/a"):
            values[m.group(1)] = (float(m.group(2)), m.group(3))
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs, for the smoke test (perfbench/smoke_test.py)")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if os.path.isabs(build_dir):
        build_dir = os.path.relpath(build_dir, ROOT)
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    deadline = time.monotonic() + RUN_BUDGET_S
    untraced = []
    if args.trace:
        status, untraced = run_binary(build_dir, args, 0, deadline)
        for line in untraced:
            print("untraced " + line, file=sys.stderr)
        if status != 0:
            return status
    status, lines = run_binary(build_dir, args, args.trace, deadline)
    if not lines:
        return status or 1
    for line in lines[:-1]:
        print(line)
    if args.trace:
        before, after = end_to_end(untraced), end_to_end(lines)
        for name, (value, unit) in before.items():
            if name in after:
                traced = after[name][0]
                share = (traced - value) / value if value else 0.0
                print(f"tracing_overhead {name:22s} untraced={value:.6g} traced={traced:.6g} "
                      f"diff={traced - value:+.6g} {unit} ({share:+.1%})")
    print(lines[-1])
    sys.stdout.flush()
    return status


if __name__ == "__main__":
    sys.exit(main())

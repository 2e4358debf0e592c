#!/usr/bin/env bash
# Full reproduction driver: configure, build, test, run every benchmark and
# experiment, and record the outputs the repository documents.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

: > bench_output.txt
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  echo "===== $b =====" | tee -a bench_output.txt
  "$b" 2>&1 | tee -a bench_output.txt
  echo "exit=$?" | tee -a bench_output.txt
done

echo "done: see test_output.txt and bench_output.txt"

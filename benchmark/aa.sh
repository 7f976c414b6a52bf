#!/usr/bin/env bash
# A/A check: the same commit measured twice with one seed and once with a
# second seed must agree within the benchmark's own bounds. Fails on any
# "worse" row. Rule for a metric that cannot hold its bound here: move it
# from end_to_end to per_layer under the same name; do not widen the
# bound or drop the metric.
#
#   benchmark/aa.sh [output-dir]      # default .bench_build/aa
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${1:-.bench_build/aa}"
mkdir -p "$out"

# Untraced runs only: -compare reads the end-to-end metrics.
bash benchmark/run.sh -trace 0 -seed 1 -out "$out/seed1-a.json"
bash benchmark/run.sh -trace 0 -seed 1 -out "$out/seed1-b.json"
bash benchmark/run.sh -trace 0 -seed 2 -out "$out/seed2.json"

status=0
bash benchmark/run.sh -compare "$out/seed1-a.json" "$out/seed1-b.json" | tee "$out/compare-same-seed.txt" || status=1
bash benchmark/run.sh -compare "$out/seed1-a.json" "$out/seed2.json" | tee "$out/compare-second-seed.txt" || status=1
exit $status

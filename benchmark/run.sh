#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it
# with the given arguments. Everything it writes — Go build cache, the
# binary, WAL and chunk files — stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local CGO_ENABLED=0
go build -o "$build/ecbench" ./benchmark
exec "$build/ecbench" -dir "$build/data" "$@"

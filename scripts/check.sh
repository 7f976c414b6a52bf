#!/bin/sh
# Pre-commit gate: vet everything, fail on any file gofmt would change,
# build everything, run the project lint suite
# (internal/lint: context, locking, goroutine-leak, determinism, error
# wrapping, metric naming, lock-order and pool-balance rules), run the
# quick test suite under the race detector (the buffer-owning packages
# again in full, with bufpool's poison hook on), run the codec kernel,
# wire framing, read path (hit, miss, range), decoded-block cache (hit,
# miss), exact access planner and disk store put/delete (fresh, churn)
# benchmarks once, diff two quick fig4b
# simulator runs (identical apart from the elapsed-time line), then
# smoke-run the fault-tolerance
# example end to end (degraded reads, repair, recovery), the scrubbing
# example (injected bit rot -> nonzero scrub_corrupt_detected), the
# movement example (the move executor end to end: nonzero committed
# moves, every block still readable), the gateway smoke (a concurrent
# curl burst through the access daemon: nonzero admissions, at least one
# shed under overload, and an int64-wrapping range answered 416 with the
# daemon still serving), the metadata crash smoke (kill -9 the WAL-backed
# metadata server mid-load, restart, verify every acked put and the
# re-register version bump), and fuzz smokes of the range->stripe window
# math, the lint ignore directive and the WAL record codec. It writes no
# tracked file. The full suite (go test ./...) additionally runs the
# simulator experiments at their full test scale.
set -eux
cd "$(dirname "$0")/.."
go vet ./...
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || { echo "gofmt: $unformatted"; exit 1; }
go build ./...
go run ./cmd/ecstore-lint ./...
go test -race -short ./...
go test -race ./internal/bufpool ./internal/cache ./internal/core ./internal/rpc ./internal/storage
go test -run 'TestNone' -bench 'Codec|WireFrame|ReadPath|ExactPlan|Cache|DiskStore' -benchtime 1x -benchmem ./internal/erasure ./internal/wire ./internal/gf256 ./internal/core ./internal/placement ./internal/cache ./internal/storage
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/ecbench" ./cmd/ecbench
for i in 1 2; do
  "$tmp/ecbench" -exp fig4b -scale quick -seed 42 | grep -v '^(quick scale, seed 42, ' > "$tmp/fig4b-$i.txt"
done
cat "$tmp/fig4b-1.txt"
diff "$tmp/fig4b-1.txt" "$tmp/fig4b-2.txt"
go run ./examples/faulttolerance
scrub=$(go run ./examples/scrubbing)
echo "$scrub"
echo "$scrub" | grep -Eq 'scrub_corrupt_detected=[1-9]'
move=$(go run ./examples/movement)
echo "$move" | tail -n 3
echo "$move" | grep -Eq 'mover executed [1-9]'
echo "$move" | grep -q 'all blocks readable after movement'
sh scripts/gateway_smoke.sh
sh scripts/meta_crash_smoke.sh
go test -run FuzzLayoutWindow -fuzz FuzzLayoutWindow -fuzztime 10s ./internal/erasure
go test -run FuzzIgnoreDirective -fuzz FuzzIgnoreDirective -fuzztime 10s ./internal/lint
go test -run FuzzWALRecord -fuzz FuzzWALRecord -fuzztime 10s ./internal/metadata

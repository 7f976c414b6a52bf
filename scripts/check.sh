#!/bin/sh
# Pre-commit gate: vet and build everything, run the project lint suite
# (internal/lint: context, locking, goroutine-leak, determinism, error
# wrapping, metric naming, lock-order and pool-balance rules), run the
# quick test suite under the
# race detector (the buffer-owning packages again in full, with bufpool's
# poison hook on), run the read path's hit, miss and range benchmarks once,
# then smoke-run the fault-tolerance example end to end
# (degraded reads, repair, recovery), the scrubbing example (injected
# bit rot -> nonzero scrub_corrupt_detected), the movement example (the
# move executor end to end: nonzero committed moves, every block still
# readable), and a cache on/off
# comparison on a zipfian workload, asserting the decoded-block cache
# actually serves hits, plus the small-object packing ablation, asserting
# a nonzero packed-block count, then the gateway smoke (live open-loop
# sweep through the access daemon: nonzero admissions, at least one
# shed under overload, and an int64-wrapping range answered 416 with the
# daemon still serving) and the simulated gateway SLO sweep (BENCH_9.json
# must contain overload rows), the metadata crash smoke (kill -9 the
# WAL-backed metadata server mid-load, restart, verify every acked put
# and the re-register version bump), the metadata catalog sweep
# (BENCH_10.json must carry a recovery-replay row with a nonzero
# partition count), and fuzz smokes of the range->stripe window math,
# the lint ignore directive and the WAL record codec.
# The full suite (go test ./...) additionally runs the paper-scale
# simulator experiments and takes several minutes.
set -eux
cd "$(dirname "$0")/.."
go vet ./...
go build ./...
go run ./cmd/ecstore-lint ./...
go test -race -short ./...
go test -race ./internal/bufpool ./internal/cache ./internal/core ./internal/rpc ./internal/storage
go test -run TestNone -bench ReadPath -benchtime 1x -benchmem ./internal/core
go run ./examples/faulttolerance
scrub=$(go run ./examples/scrubbing)
echo "$scrub"
echo "$scrub" | grep -Eq 'scrub_corrupt_detected=[1-9]'
move=$(go run ./examples/movement)
echo "$move" | tail -n 3
echo "$move" | grep -Eq 'mover executed [1-9]'
echo "$move" | grep -q 'all blocks readable after movement'
out=$(go run ./cmd/ecbench -cache-bytes $((32 << 20)) -scale quick)
echo "$out"
echo "$out" | grep -Eq 'hits=[1-9]'
pack=$(go run ./cmd/ecbench -exp ab-pack -scale quick)
echo "$pack"
echo "$pack" | grep -Eq 'packed=[1-9]'
sh scripts/gateway_smoke.sh
gw=$(go run ./cmd/ecbench -mode ab-gateway -scale quick)
echo "$gw"
echo "$gw" | grep -Eq 'max sustainable: [1-9]'
grep -q '"slo_met": false' BENCH_9.json
sh scripts/meta_crash_smoke.sh
mt=$(go run ./cmd/ecbench -exp ab-meta -scale quick)
echo "$mt"
echo "$mt" | grep -Eq 'recovery: [1-9]'
grep -q '"kind": "recovery-replay"' BENCH_10.json
grep -Eq '"partitions": [1-9]' BENCH_10.json
go test -run FuzzLayoutWindow -fuzz FuzzLayoutWindow -fuzztime 10s ./internal/erasure
go test -run FuzzIgnoreDirective -fuzz FuzzIgnoreDirective -fuzztime 10s ./internal/lint
go test -run FuzzWALRecord -fuzz FuzzWALRecord -fuzztime 10s ./internal/metadata

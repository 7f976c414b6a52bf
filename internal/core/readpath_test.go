package core

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"testing"

	"ecstore/internal/bufpool"
	"ecstore/internal/model"
)

// The read path's two ends, as benchmarks (-benchmem shows the bytes each
// allocates per op) and as allocation budgets that fail when a copy or a
// per-request buffer creeps back in.

const (
	hitBlockSize  = 100 << 10
	missBlockSize = 1 << 20
)

// hitRig returns a client whose cache holds one 100 KB block.
func hitRig(t testing.TB) (*Client, model.BlockID) {
	cfg := cacheTestConfig()
	cfg.CacheBytes = 4 << 20
	c := newTestCluster(t, ClusterConfig{Client: cfg})
	if err := c.Client.Put("hot", blockData(hitBlockSize, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Client.Get("hot"); err != nil { // the miss that fills the cache
		t.Fatal(err)
	}
	return c.Client, "hot"
}

// missRig returns an uncached client over the in-memory transport and a
// 1 MiB striped block: every Get crosses rpc framing on both sides, the
// sites' stores, late binding's surplus chunk and the striped decode.
func missRig(t testing.TB) (*distributedCluster, model.BlockID, []byte) {
	d := newDistributedCluster(t, 6, Config{Delta: 1, Seed: 7})
	data := blockData(missBlockSize, 5)
	if _, err := d.client.PutReader(context.Background(), "cold", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	return d, "cold", data
}

// allocBytesPerOp runs op n times after a warm-up that fills the pools
// and returns the process-wide bytes allocated per run.
func allocBytesPerOp(n int, op func()) uint64 {
	for i := 0; i < 3; i++ {
		op()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

func TestCachedGetAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	client, id := hitRig(t)
	got := allocBytesPerOp(200, func() {
		if _, err := client.Get(id); err != nil {
			t.Fatal(err)
		}
	})
	if budget := uint64(4 << 10); got >= budget {
		t.Errorf("a cached %d-byte Get allocates %d bytes, budget < %d: the hit path copies or stages the block", hitBlockSize, got, budget)
	}
}

func TestStripedMissAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are not meaningful under the race detector")
	}
	d, id, want := missRig(t)
	defer d.Close()
	got := allocBytesPerOp(40, func() {
		data, err := d.client.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != len(want) || data[len(data)-1] != want[len(want)-1] {
			t.Fatal("wrong block")
		}
	})
	// The returned block itself is the one allocation that must remain;
	// chunk reads, frames and the decode window all come from bufpool.
	if budget := uint64(missBlockSize + missBlockSize/4); got > budget {
		t.Errorf("a %d-byte striped miss allocates %d bytes in steady state, budget %d (1.25 x block)", missBlockSize, got, budget)
	}
}

var benchSink []byte

// unpoisoned switches off the poison fills TestMain turned on, which
// would otherwise be most of what the benchmarks time.
func unpoisoned(b *testing.B) {
	bufpool.SetPoison(false)
	b.Cleanup(func() { bufpool.SetPoison(true) })
}

func BenchmarkReadPathHit(b *testing.B) {
	unpoisoned(b)
	client, id := hitRig(b)
	b.SetBytes(hitBlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := client.Get(id)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = data
	}
}

func BenchmarkReadPathMiss(b *testing.B) {
	unpoisoned(b)
	d, id, _ := missRig(b)
	defer d.Close()
	b.SetBytes(missBlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := d.client.Get(id)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = data
	}
}

// BenchmarkReadPathRange is the benchmark's cold-read range op: 64 KiB at
// a uniform offset of an uncached 1 MiB block in the contiguous layout
// Put writes, late-bound over the in-memory transport.
func BenchmarkReadPathRange(b *testing.B) {
	unpoisoned(b)
	const rangeBytes = 64 << 10
	d := newDistributedCluster(b, 6, Config{Delta: 1, Seed: 7})
	defer d.Close()
	if err := d.client.Put("cold", blockData(missBlockSize, 5)); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.SetBytes(rangeBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := d.client.GetRange(context.Background(), "cold", rng.Int63n(missBlockSize-rangeBytes+1), rangeBytes)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = data
	}
}

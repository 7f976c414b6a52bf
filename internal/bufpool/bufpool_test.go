package bufpool

import (
	"sync/atomic"
	"testing"
)

func TestGetSizesAndClasses(t *testing.T) {
	if b := Get(0); b != nil {
		t.Fatalf("Get(0) = %v, want nil", b)
	}
	for _, tc := range []struct{ n, wantCap int }{
		{1, 512}, {512, 512}, {513, 1024}, {100_000, 1 << 17}, {1 << 20, 1 << 20},
	} {
		b := Get(tc.n)
		if len(b) != tc.n || cap(b) != tc.wantCap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d", tc.n, len(b), cap(b), tc.n, tc.wantCap)
		}
		Put(b)
	}
}

// TestPutAcceptsTheSliceAlone covers the rpc contract: a buffer that was
// resliced shorter is still released by the slice alone, and buffers
// that did not come from Get are dropped rather than pooled.
func TestPutAcceptsTheSliceAlone(t *testing.T) {
	Put(nil)
	Put(make([]byte, 1000))     // capacity is not a class size
	Put(make([]byte, 256, 256)) // below the smallest class
	b := Get(4000)
	b[0] = 7
	Put(b[:10])
}

// TestSteadyStateReuses checks that a Get/Put cycle recycles the buffer
// instead of allocating, observable through the miss hook. GC can drain
// a sync.Pool between iterations, so allow slack.
func TestSteadyStateReuses(t *testing.T) {
	var misses atomic.Int64
	SetMissHook(func() { misses.Add(1) })
	defer SetMissHook(nil)
	const iters = 20
	for i := 0; i < iters; i++ {
		Put(Get(1 << 20))
	}
	if got := misses.Load(); got >= iters {
		t.Fatalf("pool misses = %d over %d iterations, want reuse", got, iters)
	}
	NoteMiss()
	if misses.Load() == 0 {
		t.Fatal("NoteMiss did not reach the hook")
	}
}

func TestPoisonOverwritesAndCounts(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	before := Outstanding()
	b := Get(600)
	if Outstanding() != before+1 {
		t.Fatalf("Outstanding = %d after Get, want %d", Outstanding(), before+1)
	}
	for i, x := range b[:cap(b)] {
		if x != poisonAcquired {
			t.Fatalf("byte %d of a fresh buffer is %#x, want %#x", i, x, poisonAcquired)
		}
	}
	copy(b, "payload")
	Put(b)
	if Outstanding() != before {
		t.Fatalf("Outstanding = %d after Put, want %d", Outstanding(), before)
	}
	// b is a dangling reference now; poison makes that visible.
	for i, x := range b {
		if x != poisonReleased {
			t.Fatalf("byte %d of a released buffer is %#x, want %#x", i, x, poisonReleased)
		}
	}
}

func TestPoisonCatchesDoubleRelease(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	b := Get(2048)
	Put(b)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same buffer did not panic")
		}
	}()
	Put(b)
}

func TestZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool does not pool under the race detector")
	}
	if n := testing.AllocsPerRun(50, func() { Put(Get(64 << 10)) }); n > 0 {
		t.Errorf("Get/Put cycle allocates %.1f times, want 0", n)
	}
}

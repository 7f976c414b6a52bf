package cache

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/stats"
)

// fakeClock is an injectable deterministic clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1700000000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

func newTestCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c := New(cfg)
	if c == nil {
		t.Fatalf("New(%+v) = nil", cfg)
	}
	t.Cleanup(c.Close)
	return c
}

// TestPutTakesOwnershipGetReturnsResident pins the by-reference
// contract: Put stores the caller's slice itself, and Get, GetStale and a
// second Get all hand back that same backing array — no block bytes are
// allocated or copied on either side.
func TestPutTakesOwnershipGetReturnsResident(t *testing.T) {
	c := newTestCache(t, Config{MaxBytes: 1 << 20, Shards: 1, Seed: 1, StaleTTL: time.Minute})
	id := model.BlockID("block-0001")
	payload := []byte("decoded bytes")

	if _, ok := c.Get(id, 3); ok {
		t.Fatal("hit on empty cache")
	}
	if !c.Put(id, 3, payload) {
		t.Fatal("put rejected with empty cache")
	}
	for i := 0; i < 2; i++ {
		got, ok := c.Get(id, 3)
		if !ok {
			t.Fatal("miss after put")
		}
		if &got[0] != &payload[0] || len(got) != len(payload) {
			t.Fatalf("Get #%d returned a copy, want the resident slice Put was given", i)
		}
	}
	stale, ver, ok := c.GetStale(id)
	if !ok || ver != 3 {
		t.Fatalf("GetStale = (ver=%d, ok=%v), want version 3", ver, ok)
	}
	if &stale[0] != &payload[0] {
		t.Fatal("GetStale returned a copy, want the resident slice")
	}

	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 miss / 1 entry", s)
	}
	if s.HitRatio() < 0.6 || s.HitRatio() > 0.7 {
		t.Fatalf("hit ratio = %v, want 2/3", s.HitRatio())
	}
}

// TestHitAndRejectedPutAllocateNoBlockBytes bounds what the two hot
// calls may allocate: a hit is pointer work, and a candidate that
// admission turns away was never copied in the first place.
func TestHitAndRejectedPutAllocateNoBlockBytes(t *testing.T) {
	const blockSize = 100 << 10
	c := newTestCache(t, Config{MaxBytes: 2 * blockSize, Shards: 1, Seed: 1})
	hot := model.BlockID("hot")
	if !c.Put(hot, 1, make([]byte, blockSize)) {
		t.Fatal("put rejected with empty cache")
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get(hot, 1); !ok {
			t.Fatal("miss")
		}
	}); n > 0 {
		t.Errorf("cache hit allocates %.1f times, want 0", n)
	}

	// Fill the shard with hot residents, then offer cold one-hit wonders.
	if !c.Put("hot2", 1, make([]byte, blockSize)) {
		t.Fatal("second resident rejected")
	}
	for i := 0; i < 8; i++ {
		c.Get(hot, 1)
		c.Get("hot2", 1)
	}
	cold := make([]byte, blockSize)
	rejectsBefore := c.Stats().AdmissionRejects
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	const offers = 50
	for i := 0; i < offers; i++ {
		if c.Put(model.BlockID(fmt.Sprintf("cold-%d", i)), 1, cold) {
			t.Fatalf("cold candidate %d displaced a hot resident", i)
		}
	}
	runtime.ReadMemStats(&m2)
	if got := c.Stats().AdmissionRejects - rejectsBefore; got != offers {
		t.Fatalf("admission rejected %d of %d cold candidates", got, offers)
	}
	if perPut := (m2.TotalAlloc - m1.TotalAlloc) / offers; perPut > blockSize/10 {
		t.Errorf("a rejected Put allocates %d bytes, want far below the %d-byte block", perPut, blockSize)
	}
}

func TestVersionMismatchInvalidates(t *testing.T) {
	c := newTestCache(t, Config{MaxBytes: 1 << 20, Shards: 1, Seed: 1})
	id := model.BlockID("moved-block")
	c.Put(id, 1, []byte("old placement"))

	// The block moved: version bumped to 2. The old entry must not hit.
	if _, ok := c.Get(id, 2); ok {
		t.Fatal("stale version served as a hit")
	}
	// StaleTTL is 0, so the mismatch dropped the entry outright: even the
	// old version is gone now.
	if _, ok := c.Get(id, 1); ok {
		t.Fatal("entry survived a version invalidation with StaleTTL=0")
	}
	if s := c.Stats(); s.Invalidations != 1 || s.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 invalidation, 0 entries", s)
	}
}

func TestStaleIfError(t *testing.T) {
	clk := newFakeClock()
	c := newTestCache(t, Config{MaxBytes: 1 << 20, Shards: 1, Seed: 1, StaleTTL: time.Minute, Clock: clk.Now})
	id := model.BlockID("degraded-block")
	c.Put(id, 1, []byte("last good bytes"))

	// Version bump marks the entry stale instead of dropping it.
	if _, ok := c.Get(id, 2); ok {
		t.Fatal("stale version served as a regular hit")
	}
	// A stale entry never satisfies Get, even for its own version.
	if _, ok := c.Get(id, 1); ok {
		t.Fatal("stale entry served as a regular hit")
	}
	data, ver, ok := c.GetStale(id)
	if !ok || string(data) != "last good bytes" || ver != 1 {
		t.Fatalf("GetStale = %q v%d ok=%v, want last good bytes v1", data, ver, ok)
	}

	clk.Advance(2 * time.Minute)
	if _, _, ok := c.GetStale(id); ok {
		t.Fatal("stale entry served beyond StaleTTL")
	}
	if dropped := c.Sweep(); dropped != 1 {
		t.Fatalf("Sweep dropped %d, want 1", dropped)
	}
	if s := c.Stats(); s.StaleServes != 1 || s.Entries != 0 {
		t.Fatalf("stats = %+v, want 1 stale serve, 0 entries", s)
	}
}

func TestGetStaleDisabledByDefault(t *testing.T) {
	c := newTestCache(t, Config{MaxBytes: 1 << 20, Shards: 1, Seed: 1})
	c.Put("b", 1, []byte("x"))
	if _, _, ok := c.GetStale("b"); ok {
		t.Fatal("GetStale served with StaleTTL=0")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Budget fits exactly 4 of the 100-byte blocks in one shard.
	c := newTestCache(t, Config{MaxBytes: 400, Shards: 1, Seed: 1})
	data := make([]byte, 100)
	ids := []model.BlockID{"a", "b", "c", "d"}
	for _, id := range ids {
		if !c.Put(id, 1, data) {
			t.Fatalf("put %s rejected", id)
		}
	}
	// Touch "a" so "b" is the LRU tail.
	if _, ok := c.Get("a", 1); !ok {
		t.Fatal("miss on resident a")
	}
	if !c.Put("e", 1, data) {
		t.Fatal("put e rejected; equal-frequency candidate should displace the LRU tail")
	}
	if _, ok := c.Get("b", 1); ok {
		t.Fatal("LRU victim b still resident")
	}
	for _, id := range []model.BlockID{"a", "c", "d", "e"} {
		if _, ok := c.Get(id, 1); !ok {
			t.Fatalf("wrongly evicted %s", id)
		}
	}
}

func TestAdmissionProtectsHotResidents(t *testing.T) {
	c := newTestCache(t, Config{MaxBytes: 200, Shards: 1, Seed: 1})
	data := make([]byte, 100)
	// Make both residents hot: several sketch increments each.
	for i := 0; i < 6; i++ {
		c.Get("hot-1", 1)
		c.Get("hot-2", 1)
	}
	c.Put("hot-1", 1, data)
	c.Put("hot-2", 1, data)

	// A block seen once must not displace them.
	if c.Put("one-hit-wonder", 1, data) {
		t.Fatal("cold candidate displaced a hot resident")
	}
	if s := c.Stats(); s.AdmissionRejects == 0 {
		t.Fatalf("stats = %+v, want an admission reject", s)
	}
	for _, id := range []model.BlockID{"hot-1", "hot-2"} {
		if _, ok := c.Get(id, 1); !ok {
			t.Fatalf("hot resident %s was evicted", id)
		}
	}
}

func TestHotnessBoostAdmitsTrackedBlock(t *testing.T) {
	tr := stats.NewCoAccessTracker(64)
	// The tracker has seen "popular" in every request window.
	for i := 0; i < 50; i++ {
		tr.Record([]model.BlockID{"popular", model.BlockID(fmt.Sprintf("noise-%d", i))})
	}
	c := newTestCache(t, Config{MaxBytes: 100, Shards: 1, Seed: 1, Hotness: tr})
	data := make([]byte, 100)

	// Resident was directly requested a few times (sketch count 3).
	for i := 0; i < 3; i++ {
		c.Get("resident", 1)
	}
	c.Put("resident", 1, data)

	// "popular" has only one sketch touch, but Frequency≈1 from the
	// statistics service lifts its score past the resident's.
	if !c.Put("popular", 1, data) {
		t.Fatal("stats-hot block was refused admission")
	}
	if _, ok := c.Get("popular", 1); !ok {
		t.Fatal("stats-hot block not resident after put")
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	c := newTestCache(t, Config{MaxBytes: 100, Shards: 1, Seed: 1})
	if c.Put("huge", 1, make([]byte, 101)) {
		t.Fatal("entry larger than the budget was admitted")
	}
	if s := c.Stats(); s.AdmissionRejects != 1 {
		t.Fatalf("stats = %+v, want 1 admission reject", s)
	}
}

func TestPutRefreshesInPlace(t *testing.T) {
	c := newTestCache(t, Config{MaxBytes: 1 << 20, Shards: 1, Seed: 1})
	c.Put("b", 1, []byte("v1 bytes"))
	c.Put("b", 2, []byte("v2 bytes"))
	if _, ok := c.Get("b", 1); ok {
		t.Fatal("old version still hits after refresh")
	}
	got, ok := c.Get("b", 2)
	if !ok || string(got) != "v2 bytes" {
		t.Fatalf("refresh lost: got %q ok=%v", got, ok)
	}
	if s := c.Stats(); s.Entries != 1 {
		t.Fatalf("stats = %+v, want a single refreshed entry", s)
	}
}

func TestInvalidate(t *testing.T) {
	c := newTestCache(t, Config{MaxBytes: 1 << 20, Shards: 1, Seed: 1})
	c.Put("b", 7, []byte("x"))
	c.Invalidate("b")
	if _, ok := c.Get("b", 7); ok {
		t.Fatal("entry survived Invalidate")
	}
	c.Invalidate("b") // absent id is a no-op
	if s := c.Stats(); s.Invalidations != 1 {
		t.Fatalf("stats = %+v, want exactly 1 invalidation", s)
	}
}

func TestPutSizedTracksBudgetWithoutPayload(t *testing.T) {
	c := newTestCache(t, Config{MaxBytes: 250, Shards: 1, Seed: 1})
	if !c.PutSized("a", 1, nil, 100) || !c.PutSized("b", 1, nil, 100) {
		t.Fatal("sized puts rejected under budget")
	}
	if got, ok := c.Get("a", 1); !ok || got == nil || len(got) != 0 {
		// A nil-payload entry still hits; the copy of nil data is empty.
		if !ok {
			t.Fatal("sized entry missed")
		}
	}
	if s := c.Stats(); s.Bytes != 200 || s.Entries != 2 {
		t.Fatalf("stats = %+v, want 200 bytes / 2 entries", s)
	}
	// Third entry forces an eviction to fit.
	c.Get("c", 1) // give c a second touch so it outranks the tail
	if !c.PutSized("c", 1, nil, 100) {
		t.Fatal("third sized put rejected")
	}
	if s := c.Stats(); s.Bytes > 250 {
		t.Fatalf("budget exceeded: %+v", s)
	}
}

func TestNilCacheIsInert(t *testing.T) {
	var c *Cache
	if _, ok := c.Get("b", 1); ok {
		t.Fatal("nil cache hit")
	}
	if c.Put("b", 1, []byte("x")) || c.PutSized("b", 1, nil, 8) {
		t.Fatal("nil cache admitted")
	}
	if _, _, ok := c.GetStale("b"); ok {
		t.Fatal("nil cache stale hit")
	}
	c.Invalidate("b")
	c.Sweep()
	c.StartMaintenance(time.Second)
	c.DedupObserved(3)
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("nil cache stats = %+v", s)
	}
	c.Close()
}

func TestDisabledByZeroBudget(t *testing.T) {
	if New(Config{MaxBytes: 0}) != nil {
		t.Fatal("MaxBytes=0 should disable the cache")
	}
}

func TestMetricsExported(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCache(t, Config{MaxBytes: 1 << 20, Shards: 1, Seed: 1, Metrics: reg})
	c.Put("b", 1, []byte("payload"))
	c.Get("b", 1)
	c.Get("absent", 1)
	c.Stats()

	want := map[string]int64{
		"cache_hits_total":    1,
		"cache_misses_total":  1,
		"cache_inserts_total": 1,
		"cache_entries":       1,
		"cache_bytes":         7,
	}
	snap := reg.Snapshot()
	got := make(map[string]int64)
	for _, m := range snap.Counters {
		got[m.Name] = m.Value
	}
	for _, m := range snap.Gauges {
		got[m.Name] = m.Value
	}
	for name, val := range want {
		if got[name] != val {
			t.Errorf("%s = %d, want %d", name, got[name], val)
		}
	}
}

func TestMaintenanceSweepsAndCloseStops(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{MaxBytes: 1 << 20, Shards: 1, Seed: 1, StaleTTL: time.Millisecond, Clock: clk.Now})
	c.Put("b", 1, []byte("x"))
	c.Get("b", 2) // mark stale
	clk.Advance(time.Hour)

	c.StartMaintenance(time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := c.Stats(); s.Entries == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("maintenance goroutine never swept the expired entry")
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	c.Close()                            // idempotent
	c.StartMaintenance(time.Millisecond) // no-op after Close
}

func TestConcurrentAccess(t *testing.T) {
	c := newTestCache(t, Config{MaxBytes: 1 << 16, Seed: 1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := model.BlockID(fmt.Sprintf("blk-%d", i%37))
				ver := uint64(i % 3)
				switch i % 4 {
				case 0:
					c.Put(id, ver, []byte("payload"))
				case 1:
					c.Get(id, ver)
				case 2:
					c.Invalidate(id)
				default:
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestFlightGroupDeduplicates(t *testing.T) {
	g := NewFlightGroup()
	lead, isLeader := g.Join("b", 1)
	if !isLeader {
		t.Fatal("first joiner is not the leader")
	}
	follow, isLeader2 := g.Join("b", 1)
	if isLeader2 || follow != lead {
		t.Fatal("second joiner did not share the leader's flight")
	}
	if _, other := g.Join("b", 2); !other {
		t.Fatal("different version shared a flight")
	}

	done := make(chan struct{})
	var got []byte
	var err error
	go func() {
		defer close(done)
		got, err = follow.Wait(context.Background())
	}()
	lead.Complete([]byte("result"), nil)
	<-done
	if err != nil || string(got) != "result" {
		t.Fatalf("Wait = %q, %v", got, err)
	}

	// After completion the key is free: a new joiner leads a new flight.
	if _, again := g.Join("b", 1); !again {
		t.Fatal("completed flight still registered")
	}
}

func TestFlightWaitHonorsContext(t *testing.T) {
	g := NewFlightGroup()
	lead, _ := g.Join("b", 1)
	defer lead.Complete(nil, context.Canceled)
	follow, _ := g.Join("b", 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := follow.Wait(ctx); err != context.Canceled {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
}

// TestFlightResultIsShared pins what makes decoded blocks immutable:
// a follower receives the leader's slice itself, not a copy.
func TestFlightResultIsShared(t *testing.T) {
	g := NewFlightGroup()
	lead, _ := g.Join("b", 1)
	follow, _ := g.Join("b", 1)
	src := []byte("shared")
	lead.Complete(src, nil)
	got, err := follow.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &src[0] {
		t.Fatal("follower got a copy, want the leader's slice")
	}
}

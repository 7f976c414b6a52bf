package cache

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/workload"
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
	c := newTestCache(t, Config{MaxBytes: 1 << 20, Seed: 1, StaleTTL: time.Minute})
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
// calls may allocate: a hit is pointer work, and a window candidate that
// admission turns away from main was never copied in the first place.
func TestHitAndRejectedPutAllocateNoBlockBytes(t *testing.T) {
	const blockSize = 100 << 10
	// Three blocks: a one-entry window and two in main.
	c := newTestCache(t, Config{MaxBytes: 3 * blockSize, Seed: 1})
	for _, id := range []model.BlockID{"hot", "hot2"} {
		c.Get(id, 1)
		if !c.Put(id, 1, make([]byte, blockSize)) {
			t.Fatalf("put %s rejected with room to spare", id)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := c.Get("hot", 1); !ok {
			t.Fatal("miss")
		}
	}); n > 0 {
		t.Errorf("cache hit allocates %.1f times, want 0", n)
	}
	for i := 0; i < 8; i++ {
		c.Get("hot2", 1)
	}

	// The first cold block moves hot2 from the window into main; from
	// then on each cold block pushes its predecessor out of the window,
	// and that one-hit wonder loses to main's hot residents.
	cold := make([]byte, blockSize)
	c.Get("cold-warm", 1)
	c.Put("cold-warm", 1, cold)
	rejectsBefore := c.Stats().AdmissionRejects
	var m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m1)
	const offers = 50
	for i := 0; i < offers; i++ {
		id := model.BlockID(fmt.Sprintf("cold-%d", i))
		c.Get(id, 1)
		if !c.Put(id, 1, cold) {
			t.Fatalf("cold block %d did not enter the window", i)
		}
	}
	runtime.ReadMemStats(&m2)
	if got := c.Stats().AdmissionRejects - rejectsBefore; got != offers {
		t.Fatalf("admission refused %d of %d cold candidates", got, offers)
	}
	if perPut := (m2.TotalAlloc - m1.TotalAlloc) / offers; perPut > blockSize/10 {
		t.Errorf("a refused candidate allocates %d bytes, want far below the %d-byte block", perPut, blockSize)
	}
	for _, id := range []model.BlockID{"hot", "hot2"} {
		if !c.Contains(id) {
			t.Fatalf("cold candidates displaced hot resident %s", id)
		}
	}
}

func TestVersionMismatchInvalidates(t *testing.T) {
	c := newTestCache(t, Config{MaxBytes: 1 << 20, Seed: 1})
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
	c := newTestCache(t, Config{MaxBytes: 1 << 20, Seed: 1, StaleTTL: time.Minute, Clock: clk.Now})
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
	c := newTestCache(t, Config{MaxBytes: 1 << 20, Seed: 1})
	c.Put("b", 1, []byte("x"))
	if _, _, ok := c.GetStale("b"); ok {
		t.Fatal("GetStale served with StaleTTL=0")
	}
}

// TestLRUEvictionOrder pins the segment order: a probation hit promotes
// an entry out of reach of eviction, a tie keeps probation's LRU tail,
// and a strictly more frequent candidate evicts exactly that tail.
func TestLRUEvictionOrder(t *testing.T) {
	// 500 bytes: a one-entry window of 100-byte blocks and four in main.
	c := newTestCache(t, Config{MaxBytes: 500, Seed: 1})
	read := func(id model.BlockID) { readThrough(c, id, 100) }
	for _, id := range []model.BlockID{"a", "b", "c", "d", "e"} {
		read(id) // e stays in the window; main holds a..d, LRU tail a
	}
	read("a") // promoted to protected: b is now probation's LRU tail
	read("f") // e (seen once) ties with b (seen once) and is refused
	if c.Contains("e") || !c.Contains("b") {
		t.Fatal("a tie between candidate and probation tail did not keep the resident")
	}
	read("g") // f, seen once, loses to b in turn
	c.Get("f", 1)
	c.Get("f", 1) // misses lift f's count to 3 without re-entering it
	read("h")     // g ties with b and is refused
	for _, id := range []model.BlockID{"f", "g"} {
		if c.Contains(id) {
			t.Fatalf("%s entered main without out-counting the probation tail", id)
		}
	}
	read("f") // f re-enters the window at count 4
	read("i") // f displaces the probation tail b, and only b
	if c.Contains("b") {
		t.Fatal("probation LRU tail b survived a more frequent candidate")
	}
	for _, id := range []model.BlockID{"a", "c", "d", "f", "i"} {
		if !c.Contains(id) {
			t.Fatalf("wrongly evicted %s", id)
		}
	}
}

// TestAdmissionProtectsHotResidents: a one-hit wonder enters the window
// and is resident after Put, but leaving the window it never displaces
// a hotter main resident.
func TestAdmissionProtectsHotResidents(t *testing.T) {
	// 300 bytes: a one-entry window of 100-byte blocks and two in main.
	c := newTestCache(t, Config{MaxBytes: 300, Seed: 1})
	data := make([]byte, 100)
	// Make both residents hot: several sketch increments each.
	for i := 0; i < 6; i++ {
		c.Get("hot-1", 1)
		c.Get("hot-2", 1)
	}
	c.Put("hot-1", 1, data)
	c.Put("hot-2", 1, data)

	for _, id := range []model.BlockID{"one-hit-wonder", "next"} {
		c.Get(id, 1)
		if !c.Put(id, 1, data) {
			t.Fatalf("%s did not enter the window", id)
		}
		if !c.Contains(id) {
			t.Fatalf("%s not resident after Put", id)
		}
	}
	if c.Contains("one-hit-wonder") {
		t.Fatal("one-hit wonder left the window for main")
	}
	if s := c.Stats(); s.AdmissionRejects != 1 {
		t.Fatalf("stats = %+v, want one admission reject", s)
	}
	for _, id := range []model.BlockID{"hot-1", "hot-2"} {
		if _, ok := c.Get(id, 1); !ok {
			t.Fatalf("hot resident %s was evicted", id)
		}
	}
}

// TestScanResistance: one sequential pass over ten times the capacity
// leaves the protected hot set resident.
func TestScanResistance(t *testing.T) {
	const block, capacity, hot = 100, 100, 40
	c := newTestCache(t, Config{MaxBytes: capacity * block, Seed: 1})
	read := func(id model.BlockID) { readThrough(c, id, block) }
	for round := 0; round < 4; round++ {
		for i := 0; i < hot; i++ {
			read(model.BlockID(fmt.Sprintf("hot-%d", i)))
		}
		// Push the last hot block out of the window so the next
		// round's hit promotes it like the rest.
		read(model.BlockID(fmt.Sprintf("filler-%d", round)))
	}
	if got := c.segs[protected].bytes; got != hot*block {
		t.Fatalf("protected holds %d bytes, want the %d-block hot set", got, hot)
	}
	for i := 0; i < 10*capacity; i++ {
		read(model.BlockID(fmt.Sprintf("scan-%d", i)))
	}
	for i := 0; i < hot; i++ {
		if id := model.BlockID(fmt.Sprintf("hot-%d", i)); !c.Contains(id) {
			t.Fatalf("scan evicted hot block %s", id)
		}
	}
}

// TestYCSBEReplayHitRate replays the straggler-scan request stream (2000
// YCSB-E keys of 100 KiB, scans of up to 8, Zipf 0.99) through Get and
// PutSized against a 32 MiB cache. Plain LRU order with admission
// against the LRU tail served 0.50 of these block reads, and W-TinyLFU
// split into 16 independent shards 0.582, with 0.493 of requests served
// without a miss. A scan served entirely from the cache touches no
// site, so both rates are asserted.
func TestYCSBEReplayHitRate(t *testing.T) {
	const requests = 200_000
	c := newTestCache(t, Config{MaxBytes: 32 << 20, Seed: 1})
	y := workload.NewYCSBESeeded(2000, 8, 0.99, 1)
	y.OnMeasureStart()
	rng := rand.New(rand.NewSource(3))
	allHit := 0
	for i := 0; i < requests; i++ {
		hits := true
		for _, id := range y.NextRequest(rng) {
			hits = readThrough(c, id, 100<<10) && hits
		}
		if hits {
			allHit++
		}
	}
	got := c.Stats().HitRatio()
	noMiss := float64(allHit) / requests
	t.Logf("hit rate %.4f, requests without a miss %.4f", got, noMiss)
	if got < 0.585 {
		t.Fatalf("hit rate = %.4f, want >= 0.585", got)
	}
	if noMiss < 0.50 {
		t.Fatalf("requests without a miss = %.4f, want >= 0.50", noMiss)
	}
}

// readThrough reads version 1 of id as a client does: a Get, and on a
// miss the Put of a size-byte block. It reports whether the Get hit.
func readThrough(c *Cache, id model.BlockID, size int64) bool {
	if _, ok := c.Get(id, 1); ok {
		return true
	}
	c.PutSized(id, 1, nil, size)
	return false
}

// TestRandomOpsKeepInvariants drives a seeded mix of every mutating call
// with random versions, sizes (over-budget ones included) and a fake
// clock, checking the policy's accounting, the occupancy gauges and
// Get's version contract after every step.
func TestRandomOpsKeepInvariants(t *testing.T) {
	clk := newFakeClock()
	const budget = 1000
	reg := obs.NewRegistry()
	c := newTestCache(t, Config{MaxBytes: budget, Seed: 5, StaleTTL: time.Second, Clock: clk.Now, Metrics: reg})
	rng := rand.New(rand.NewSource(11))
	payload := func(id model.BlockID, v uint64) string { return fmt.Sprintf("%s@%d", id, v) }
	// live is the one version of each block a Get may hit: the last one
	// Put, until a Get for a newer version or an Invalidate retires it.
	live := make(map[model.BlockID]uint64)
	for step := 0; step < 20000; step++ {
		id := model.BlockID(fmt.Sprintf("b%d", rng.Intn(40)))
		v := uint64(1 + rng.Intn(4))
		size := int64(1 + rng.Intn(budget/4))
		if rng.Intn(50) == 0 {
			size = budget + int64(rng.Intn(100))
		}
		switch op := rng.Intn(10); {
		case op < 4:
			data, ok := c.Get(id, v)
			if ok && (string(data) != payload(id, v) || live[id] != v) {
				t.Fatalf("step %d: Get(%s, %d) hit %q, live version %d", step, id, v, data, live[id])
			}
			if lv, ok := live[id]; ok && lv < v {
				delete(live, id)
			}
		case op < 6:
			if c.Put(id, v, []byte(payload(id, v))) {
				live[id] = v
			}
		case op < 8:
			if c.PutSized(id, v, []byte(payload(id, v)), size) {
				live[id] = v
			} else if size <= budget {
				t.Fatalf("step %d: PutSized of %d bytes refused under a %d budget", step, size, budget)
			}
		case op < 9:
			c.Invalidate(id)
			delete(live, id)
		default:
			if data, ver, ok := c.GetStale(id); ok && string(data) != payload(id, ver) {
				t.Fatalf("step %d: GetStale(%s) = %q for version %d", step, id, data, ver)
			}
			if rng.Intn(4) == 0 {
				c.Sweep()
			}
		}
		clk.Advance(time.Duration(rng.Intn(300)) * time.Millisecond)
		checkPolicy(t, c, reg, step)
	}
}

// checkPolicy verifies the segment lists against the map, their byte
// counters, the budget and the segment caps, and the occupancy gauges
// against Stats.
func checkPolicy(t *testing.T, c *Cache, reg *obs.Registry, step int) {
	t.Helper()
	// The window and protected may overshoot their caps only with a
	// single entry.
	limit := map[segment]int64{window: c.windowBytes, protected: c.protectedBytes}
	c.mu.Lock()
	var total int64
	n := 0
	for seg := range c.segs {
		var sum int64
		entries := 0
		for e := c.segs[seg].head; e != nil; e = e.next {
			if e.seg != segment(seg) || c.byID[e.id] != e {
				c.mu.Unlock()
				t.Fatalf("step %d: %s linked in segment %d but tagged %d or unmapped", step, e.id, seg, e.seg)
			}
			sum += e.size
			entries++
		}
		if sum != c.segs[seg].bytes {
			c.mu.Unlock()
			t.Fatalf("step %d: segment %d counts %d bytes, entries sum to %d", step, seg, c.segs[seg].bytes, sum)
		}
		if most, ok := limit[segment(seg)]; ok && sum > most && entries > 1 {
			c.mu.Unlock()
			t.Fatalf("step %d: segment %d holds %d entries / %d bytes over its %d cap", step, seg, entries, sum, most)
		}
		total += sum
		n += entries
	}
	bytes, mapped := c.bytes(), len(c.byID)
	c.mu.Unlock()
	if total != bytes || n != mapped {
		t.Fatalf("step %d: lists hold %d entries / %d bytes, map and counters %d / %d", step, n, total, mapped, bytes)
	}
	if bytes > c.cfg.MaxBytes {
		t.Fatalf("step %d: %d bytes over the %d budget", step, bytes, c.cfg.MaxBytes)
	}
	s := c.Stats()
	if s.Entries != n || s.Bytes != bytes {
		t.Fatalf("step %d: Stats() = %d entries / %d bytes, lists hold %d / %d", step, s.Entries, s.Bytes, n, bytes)
	}
	gauges := make(map[string]int64)
	for _, g := range reg.Snapshot().Gauges {
		gauges[g.Name] = g.Value
	}
	if gauges["cache_entries"] != int64(n) || gauges["cache_bytes"] != bytes {
		t.Fatalf("step %d: gauges read %d entries / %d bytes, lists hold %d / %d", step, gauges["cache_entries"], gauges["cache_bytes"], n, bytes)
	}
}

// TestBlockUpToBudgetIsCached: admission is bounded by the whole budget
// alone, so a block far larger than a sixteenth of it displaces the
// residents it needs to and is served.
func TestBlockUpToBudgetIsCached(t *testing.T) {
	const budget = 1 << 20
	c := newTestCache(t, Config{MaxBytes: budget, Seed: 1})
	for i := 0; i < 16; i++ {
		readThrough(c, model.BlockID(fmt.Sprintf("small-%d", i)), 32<<10)
	}
	big := make([]byte, budget*3/4)
	c.Get("big", 1)
	if !c.Put("big", 1, big) {
		t.Fatalf("a %d-byte block was refused under a %d-byte budget", len(big), budget)
	}
	got, ok := c.Get("big", 1)
	if !ok || &got[0] != &big[0] {
		t.Fatal("the large block was not served from the cache")
	}
	if s := c.Stats(); s.Bytes > budget {
		t.Fatalf("stats = %+v, over budget", s)
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	c := newTestCache(t, Config{MaxBytes: 100, Seed: 1})
	if c.Put("huge", 1, make([]byte, 101)) {
		t.Fatal("entry larger than the budget was admitted")
	}
	if s := c.Stats(); s.AdmissionRejects != 1 {
		t.Fatalf("stats = %+v, want 1 admission reject", s)
	}
}

func TestPutRefreshesInPlace(t *testing.T) {
	c := newTestCache(t, Config{MaxBytes: 1 << 20, Seed: 1})
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
	c := newTestCache(t, Config{MaxBytes: 1 << 20, Seed: 1})
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
	c := newTestCache(t, Config{MaxBytes: 250, Seed: 1})
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
	c := newTestCache(t, Config{MaxBytes: 1 << 20, Seed: 1, Metrics: reg})
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
	c := New(Config{MaxBytes: 1 << 20, Seed: 1, StaleTTL: time.Millisecond, Clock: clk.Now})
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

var benchSink []byte

// BenchmarkCacheGetHit times a hit on a resident block; the hit-path
// allocation bound is asserted by TestHitAndRejectedPutAllocateNoBlockBytes.
func BenchmarkCacheGetHit(b *testing.B) {
	c := New(Config{MaxBytes: 32 << 20, Seed: 1})
	defer c.Close()
	c.Put("hot", 1, make([]byte, 100<<10))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, ok := c.Get("hot", 1)
		if !ok {
			b.Fatal("miss")
		}
		benchSink = data
	}
}

// BenchmarkCacheGetHitParallel times concurrent hits spread over 128
// resident 100 KiB blocks, the contention every reader of one cache
// shares.
func BenchmarkCacheGetHitParallel(b *testing.B) {
	const blocks = 128
	c := New(Config{MaxBytes: 32 << 20, Seed: 1})
	defer c.Close()
	ids := make([]model.BlockID, blocks)
	for i := range ids {
		ids[i] = model.BlockID(fmt.Sprintf("blk-%d", i))
		c.Put(ids[i], 1, make([]byte, 100<<10))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var worker atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		i := int(worker.Add(1)) * 37
		var sink []byte
		for pb.Next() {
			data, ok := c.Get(ids[i%blocks], 1)
			if !ok {
				b.Error("miss")
				return
			}
			sink = data
			i++
		}
		_ = sink
	})
}

// BenchmarkCacheMissPut times the miss path of a read: a Get that misses
// and the Put of the decoded block, over a population 256 times what
// the cache holds, so nearly every Put also runs window admission. The
// metrics case attaches a registry, as the gateway and benchmark
// clients do, so the occupancy gauges are kept current on every Put.
func BenchmarkCacheMissPut(b *testing.B) {
	for _, bc := range []struct {
		name string
		reg  *obs.Registry
	}{{"bare", nil}, {"metrics", obs.NewRegistry()}} {
		b.Run(bc.name, func(b *testing.B) {
			const block = 4 << 10
			c := New(Config{MaxBytes: 256 * block, Seed: 1, Metrics: bc.reg})
			defer c.Close()
			ids := make([]model.BlockID, 256*256)
			for i := range ids {
				ids[i] = model.BlockID(fmt.Sprintf("blk-%d", i))
			}
			data := make([]byte, block)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[i%len(ids)]
				if _, ok := c.Get(id, 1); !ok {
					c.Put(id, 1, data)
				}
			}
		})
	}
}

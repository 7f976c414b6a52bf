package core

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/model"
	"ecstore/internal/obs"
)

// cacheTestConfig returns a client config with the decoded-block cache
// enabled at a budget that comfortably holds every test block.
func cacheTestConfig() Config {
	return Config{CacheBytes: 1 << 20, Seed: 11}
}

// spareSites returns cluster sites that hold none of meta's chunks,
// sorted ascending (NewCluster numbers sites 1..NumSites).
func spareSites(numSites int, meta *model.BlockMeta) []model.SiteID {
	used := make(map[model.SiteID]bool, len(meta.Sites))
	for _, s := range meta.Sites {
		used[s] = true
	}
	var out []model.SiteID
	for i := 1; i <= numSites; i++ {
		if s := model.SiteID(i); !used[s] {
			out = append(out, s)
		}
	}
	return out
}

// TestCacheHitSkipsSiteAccess proves the headline behaviour: the second
// read of a block is served from the decoded-block cache without
// touching any storage site.
func TestCacheHitSkipsSiteAccess(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{Client: cacheTestConfig(), Metrics: reg})
	data := blockData(2000, 5)
	if err := c.Client.Put("blk", data); err != nil {
		t.Fatal(err)
	}

	got, err := c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("first read mismatch")
	}
	afterFirst := reg.Snapshot().CounterValue("client_chunks_fetched_total", "")
	if afterFirst == 0 {
		t.Fatal("first read fetched no chunks")
	}

	got, err = c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cached read mismatch")
	}
	if after := reg.Snapshot().CounterValue("client_chunks_fetched_total", ""); after != afterFirst {
		t.Fatalf("cached read fetched chunks: %d -> %d", afterFirst, after)
	}

	st := c.Client.CacheStats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 insert", st)
	}
	if st.HitRatio() != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", st.HitRatio())
	}
}

// TestCacheStripsHitsFromPlanning checks the partial-hit path of a
// multi-block read: cached blocks are removed from the plan request and
// only the misses are planned and fetched.
func TestCacheStripsHitsFromPlanning(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{Client: cacheTestConfig(), Metrics: reg})
	dataA := blockData(1200, 3)
	dataB := blockData(1500, 9)
	if err := c.Client.Put("a", dataA); err != nil {
		t.Fatal(err)
	}
	if err := c.Client.Put("b", dataB); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Client.Get("a"); err != nil { // populate "a"
		t.Fatal(err)
	}
	afterWarm := reg.Snapshot().CounterValue("client_chunks_fetched_total", "")

	got, _, err := c.Client.GetMulti([]model.BlockID{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got["a"], dataA) || !bytes.Equal(got["b"], dataB) {
		t.Fatal("multi-read payload mismatch")
	}
	// Only b's k chunks were fetched; a came from the cache.
	k := int64(2)
	if after := reg.Snapshot().CounterValue("client_chunks_fetched_total", ""); after != afterWarm+k {
		t.Fatalf("mixed read fetched %d extra chunks, want %d", after-afterWarm, k)
	}
	st := c.Client.CacheStats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses", st)
	}
}

// TestMovedBlockInvalidatesCacheEntry moves a chunk after the block was
// cached and checks the next read observes the version bump: the stale
// entry is invalidated, the block is re-fetched from its new placement,
// and the refreshed entry hits again.
func TestMovedBlockInvalidatesCacheEntry(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{EnableMover: true, Client: cacheTestConfig()})
	ctx := context.Background()
	data := blockData(2048, 7)
	if err := c.Client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Client.Get("blk"); err != nil { // cache at version 0
		t.Fatal(err)
	}

	meta, ok := c.Catalog.BlockMeta("blk")
	if !ok {
		t.Fatal("block vanished")
	}
	spares := spareSites(8, meta)
	if len(spares) == 0 {
		t.Fatal("no spare site to move to")
	}
	plan := model.MovePlan{Block: "blk", Chunk: 0, From: meta.Sites[0], To: spares[0]}
	if err := c.Mover.Execute(unthrottled{ctx}, plan); err != nil {
		t.Fatalf("move: %v", err)
	}

	got, err := c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-move read mismatch")
	}
	st := c.Client.CacheStats()
	if st.Invalidations < 1 {
		t.Fatalf("stats = %+v, want >= 1 invalidation after the move", st)
	}
	if st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stats = %+v, want 0 hits / 2 misses before re-hit", st)
	}

	// The re-fetched entry is keyed by the new version and hits.
	if _, err := c.Client.Get("blk"); err != nil {
		t.Fatal(err)
	}
	if st := c.Client.CacheStats(); st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 hit at the new version", st)
	}
}

// TestOverwrittenBlockNeverServedStale deletes and re-creates a block id
// with different contents and checks the cache never resurrects the
// previous incarnation's bytes. This exercises both the client-side
// Invalidate on Put/Delete and the catalog's monotonic versions across a
// block's lifetimes.
func TestOverwrittenBlockNeverServedStale(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Client: cacheTestConfig()})
	oldData := blockData(900, 2)
	newData := blockData(900, 8)

	if err := c.Client.Put("blk", oldData); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Client.Get("blk"); err != nil || !bytes.Equal(got, oldData) {
		t.Fatalf("warm read: err=%v", err)
	}
	oldMeta, _ := c.Catalog.BlockMeta("blk")

	if err := c.Client.Delete("blk"); err != nil {
		t.Fatal(err)
	}
	if err := c.Client.Put("blk", newData); err != nil {
		t.Fatal(err)
	}
	newMeta, ok := c.Catalog.BlockMeta("blk")
	if !ok {
		t.Fatal("re-created block missing")
	}
	if newMeta.Version <= oldMeta.Version {
		t.Fatalf("re-created version %d not past retired version %d", newMeta.Version, oldMeta.Version)
	}

	got, err := c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, oldData) {
		t.Fatal("served the deleted incarnation's bytes")
	}
	if !bytes.Equal(got, newData) {
		t.Fatal("re-created read mismatch")
	}
}

// TestGetMultiRacesWithMoverNoStaleBytes runs readers concurrently with
// the chunk mover (both a selected plan and a deterministic chunk bounce that
// guarantees version churn) and checks every successful read returns the
// block's exact bytes. Run under -race this also proves the cache's
// internal synchronization.
func TestGetMultiRacesWithMoverNoStaleBytes(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{EnableMover: true, Client: cacheTestConfig()})
	ctx := context.Background()
	data := blockData(2048, 5)
	if err := c.Client.Put("hot", data); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("hot")
	spares := spareSites(8, meta)
	if len(spares) < 2 {
		t.Fatal("need two spare sites")
	}

	stop := make(chan struct{})
	var moves atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// The paper's mover proper (may or may not find a plan)...
			if plan, ok := c.Mover.SelectPlan(); ok {
				_ = c.Mover.Execute(unthrottled{ctx}, plan)
			}
			// ...plus a guaranteed move: bounce chunk 0 between spares.
			m, ok := c.Catalog.BlockMeta("hot")
			if !ok {
				return
			}
			to := spares[i%2]
			if m.Sites[0] == to {
				continue
			}
			plan := model.MovePlan{Block: "hot", Chunk: 0, From: m.Sites[0], To: to}
			if err := c.Mover.Execute(unthrottled{ctx}, plan); err == nil {
				moves.Add(1)
			}
		}
	}()

	const readers = 4
	var ok atomic.Int64
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for i := 0; i < 150; i++ {
				got, _, err := c.Client.GetMulti([]model.BlockID{"hot"})
				if err != nil {
					// A read can land in the copy->CAS->delete window
					// and lose its planned chunk; that fails the read,
					// it must never corrupt it.
					continue
				}
				if !bytes.Equal(got["hot"], data) {
					t.Error("stale or torn bytes returned during movement")
					return
				}
				ok.Add(1)
			}
		}()
	}
	readerWG.Wait()
	close(stop)
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatal("no read succeeded during movement")
	}
	if moves.Load() == 0 {
		t.Fatal("no move executed; the race never happened")
	}
}

// TestConcurrentOverwritesNeverServeStaleBytes races readers against
// delete+put cycles that change the block's contents each generation.
// Generation payloads are uniform, so a torn result is detectable, and
// versions are monotonic across incarnations, so a reader that started
// after generation g committed must see generation >= g.
func TestConcurrentOverwritesNeverServeStaleBytes(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Client: cacheTestConfig()})
	payload := func(gen byte) []byte {
		d := make([]byte, 1024)
		for i := range d {
			d[i] = gen
		}
		return d
	}
	var committed atomic.Int64 // highest generation whose Put returned
	if err := c.Client.Put("blk", payload(0)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := byte(1); ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := c.Client.Delete("blk"); err != nil {
				continue
			}
			if err := c.Client.Put("blk", payload(gen)); err != nil {
				t.Errorf("re-put gen %d: %v", gen, err)
				return
			}
			committed.Store(int64(gen))
		}
	}()

	var readerWG sync.WaitGroup
	for r := 0; r < 4; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for i := 0; i < 120; i++ {
				low := committed.Load()
				got, err := c.Client.Get("blk")
				if err != nil {
					continue // read raced the delete+put gap
				}
				if len(got) != 1024 {
					t.Errorf("read %d bytes, want 1024", len(got))
					return
				}
				gen := got[0]
				for _, b := range got {
					if b != gen {
						t.Error("torn read: mixed generations in one payload")
						return
					}
				}
				if int64(gen) < low {
					t.Errorf("stale read: got generation %d after %d committed", gen, low)
					return
				}
			}
		}()
	}
	readerWG.Wait()
	close(stop)
	wg.Wait()
}

// TestStaleIfErrorServesCachedBytesWhenSitesDown drives the degraded
// read path: a cached entry is invalidated by a version bump, every site
// holding the block fails, and the read is served from the bounded-stale
// entry instead of failing.
func TestStaleIfErrorServesCachedBytesWhenSitesDown(t *testing.T) {
	cfg := cacheTestConfig()
	cfg.CacheStaleTTL = time.Minute
	c := newTestCluster(t, ClusterConfig{Client: cfg})
	data := blockData(1600, 4)
	if err := c.Client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Client.Get("blk"); err != nil { // cache at version 0
		t.Fatal(err)
	}

	// Bump the version without moving bytes: point chunk 0 at a spare
	// site. The cached entry is now outdated by key.
	meta, _ := c.Catalog.BlockMeta("blk")
	spares := spareSites(8, meta)
	if _, err := c.Catalog.UpdatePlacement("blk", 0, spares[0], meta.Version); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		c.FailSite(model.SiteID(i))
	}

	got, err := c.Client.Get("blk")
	if err != nil {
		t.Fatalf("degraded read failed instead of serving stale: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("stale serve returned wrong bytes")
	}
	st := c.Client.CacheStats()
	if st.StaleServes != 1 {
		t.Fatalf("stats = %+v, want exactly 1 stale serve", st)
	}
}

// TestStaleReadRefusedWithoutTTL is the negative of the above: with
// CacheStaleTTL unset (the default), the same degraded read fails
// rather than serving invalidated bytes.
func TestStaleReadRefusedWithoutTTL(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Client: cacheTestConfig()})
	data := blockData(1600, 4)
	if err := c.Client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Client.Get("blk"); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	spares := spareSites(8, meta)
	if _, err := c.Catalog.UpdatePlacement("blk", 0, spares[0], meta.Version); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		c.FailSite(model.SiteID(i))
	}
	if _, err := c.Client.Get("blk"); err == nil {
		t.Fatal("degraded read succeeded without a stale TTL")
	}
}

// TestConcurrentSameBlockReadsCoalesce checks the singleflight path:
// concurrent cold reads of one block share a single fetch+decode.
func TestConcurrentSameBlockReadsCoalesce(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{
		Client:         cacheTestConfig(),
		Metrics:        reg,
		ReadDelayFixed: 20 * time.Millisecond,
	})
	data := blockData(2000, 6)
	if err := c.Client.Put("blk", data); err != nil {
		t.Fatal(err)
	}

	const readers = 6
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got, err := c.Client.Get("blk")
			if err != nil {
				t.Errorf("concurrent read: %v", err)
				return
			}
			if !bytes.Equal(got, data) {
				t.Error("concurrent read mismatch")
			}
		}()
	}
	close(start)
	wg.Wait()

	snap := reg.Snapshot()
	// One leader round fetches k=2 chunks; tolerate one straggler that
	// missed the in-flight window, but not six independent fetches.
	if n := snap.CounterValue("client_chunks_fetched_total", ""); n > 4 {
		t.Fatalf("chunks fetched = %d, want <= 4 (coalesced)", n)
	}
	if n := snap.CounterValue("cache_singleflight_dedup_total", ""); n < 1 {
		t.Fatal("no follower coalesced onto the leader flight")
	}
}

// TestClientCloseStopsCacheMaintenance repeatedly builds and closes
// cache-enabled clusters and checks no maintenance goroutine outlives
// its client.
func TestClientCloseStopsCacheMaintenance(t *testing.T) {
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		cfg := cacheTestConfig()
		cfg.CacheStaleTTL = time.Millisecond
		c, err := NewCluster(ClusterConfig{NumSites: 4, Client: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Client.Put("blk", blockData(512, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Client.Get("blk"); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after close", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

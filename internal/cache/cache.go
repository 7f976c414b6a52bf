// Package cache is ecstore's decoded-block cache tier. EC-Store's read
// path always reassembles a block from k remote chunks; for the skewed
// hot set that the statistics service already tracks, keeping a small
// budget of fully decoded blocks beside the erasure-coded cold data
// removes the network round trips and the decode entirely ("Optimal
// Caching for Low Latency in Distributed Coded Storage Systems", Liu et
// al.; LEGOStore, Zare et al.).
//
// Design:
//
//   - One byte-budgeted policy: a mutex guards a map, three intrusive
//     LRU lists sharing the whole budget and the admission sketch, so
//     every block competes with every other and any block up to the
//     budget can be cached.
//   - W-TinyLFU eviction and admission (Einziger et al.): every miss
//     enters a small window LRU; when the window overflows, its LRU tail
//     enters the main space only if a seeded count-min sketch rates it
//     strictly more frequent than main's victim, so one-hit wonders and
//     sequential scans never churn the hot set. Main is a segmented LRU:
//     a hit in probation promotes the entry to protected, and protected
//     overflow is demoted back to probation.
//   - Version-tagged invalidation: entries are keyed (BlockID,
//     meta.Version). Chunk movement and overwrites bump the version
//     through the catalog's CAS, so a hit requires an exact version
//     match — moved or rewritten blocks are never served stale.
//   - Stale-if-error: when StaleTTL > 0, a version-mismatched entry is
//     retained (marked stale) for the TTL instead of dropped, and
//     GetStale can serve it as a last resort when enough sites are down
//     that the block cannot be reconstructed at all.
//   - Stored and served by reference: Put takes ownership of the decoded
//     slice and Get hands out that same slice, so a cached block is an
//     immutable value shared by the cache and every reader it was ever
//     returned to. Nobody may modify it and it never enters a buffer
//     pool. A hit therefore costs pointer work under the cache mutex, and
//     eviction just drops the cache's reference — readers still holding
//     the block keep it alive.
//
// The package is covered by the determinism lint rule: time comes from
// an injected clock and all hashing/admission randomness derives from
// the configured seed, so simulator runs stay reproducible.
package cache

import (
	"sync"
	"sync/atomic"
	"time"

	"ecstore/internal/model"
	"ecstore/internal/obs"
)

// Config tunes the cache.
type Config struct {
	// MaxBytes is the decoded-byte budget. Required; New returns nil
	// when it is <= 0 (cache disabled).
	MaxBytes int64
	// StaleTTL bounds stale-if-error serving: a version-mismatched
	// entry is kept (marked stale) this long for GetStale. 0 disables
	// stale serving entirely — mismatches are dropped on sight.
	StaleTTL time.Duration
	// Clock supplies time for stale bookkeeping; nil means time.Now.
	// The simulator injects virtual time here.
	Clock func() time.Time
	// Seed drives the admission sketch's hashing.
	Seed int64
	// Metrics optionally exports cache instrumentation into a shared
	// registry. Nil disables it.
	Metrics *obs.Registry
}

const (
	// windowPercent is the window LRU's share of the byte budget. The
	// window always keeps its newest entry, so a budget whose 1 % is
	// smaller than a block still gives every miss a place to land.
	windowPercent = 1
	// protectedPercent caps the protected segment's share of the main
	// space (the budget less the window's share).
	protectedPercent = 80
)

// segment names the list an entry lives on.
type segment uint8

const (
	window    segment = iota // every newly inserted entry
	probation                // main-space entries seen once since admission
	protected                // main-space entries hit again while in probation
	numSegments
)

// entry is one cached decoded block, linked into its segment's list.
type entry struct {
	id      model.BlockID
	version uint64
	data    []byte
	size    int64
	stale   bool
	staleAt time.Time
	seg     segment

	prev, next *entry
}

// lruList is an intrusive doubly-linked LRU list (head = most recent)
// with a running byte count of its entries.
type lruList struct {
	head, tail *entry
	bytes      int64
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits             int64
	Misses           int64
	Inserts          int64
	Evictions        int64
	AdmissionRejects int64
	Invalidations    int64
	StaleServes      int64
	Entries          int
	Bytes            int64
	MaxBytes         int64
}

// HitRatio returns hits / (hits+misses), or 0 when unused.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// cacheObs is the cache's instrument set; every field is nil-safe.
type cacheObs struct {
	hits          *obs.Counter
	misses        *obs.Counter
	inserts       *obs.Counter
	evictions     *obs.Counter
	rejects       *obs.Counter
	invalidations *obs.Counter
	staleServes   *obs.Counter
	dedup         *obs.Counter
	bytes         *obs.Gauge
	entries       *obs.Gauge
}

func newCacheObs(reg *obs.Registry) cacheObs {
	if reg == nil {
		return cacheObs{}
	}
	return cacheObs{
		hits:          reg.Counter("cache_hits_total", "block reads served from the decoded-block cache"),
		misses:        reg.Counter("cache_misses_total", "block reads not served by the cache"),
		inserts:       reg.Counter("cache_inserts_total", "decoded blocks entering the cache's window"),
		evictions:     reg.Counter("cache_evictions_total", "main-space blocks evicted for capacity, and stale entries dropped after their TTL"),
		rejects:       reg.Counter("cache_admission_rejects_total", "window candidates refused entry to the main space by the frequency sketch, and blocks larger than the budget"),
		invalidations: reg.Counter("cache_invalidations_total", "entries invalidated by version change or explicit drop"),
		staleServes:   reg.Counter("cache_stale_serves_total", "stale entries served because the block was unreadable"),
		dedup:         reg.Counter("cache_singleflight_dedup_total", "fetch+decode calls coalesced onto an in-flight leader"),
		bytes:         reg.Gauge("cache_bytes", "decoded bytes currently cached"),
		entries:       reg.Gauge("cache_entries", "blocks currently cached"),
	}
}

// Cache is a byte-budgeted decoded-block cache with W-TinyLFU admission
// and version-tagged invalidation. The zero value is not usable; a nil
// *Cache is: every method no-ops (misses), so callers thread an
// optional cache without nil checks.
type Cache struct {
	cfg Config
	// windowBytes and protectedBytes cap the window and protected
	// segments; probation takes whatever main has left.
	windowBytes    int64
	protectedBytes int64
	obs            cacheObs

	// mu guards the map, the segment lists, whose byte counts together
	// stay within MaxBytes, and the admission sketch.
	mu     sync.Mutex
	byID   map[model.BlockID]*entry
	segs   [numSegments]lruList
	sketch *sketch

	// Flights deduplicates concurrent fetch+decode of the same
	// (block, version) across callers that miss the cache.
	Flights *FlightGroup

	hits          atomic.Int64
	misses        atomic.Int64
	inserts       atomic.Int64
	evictions     atomic.Int64
	rejects       atomic.Int64
	invalidations atomic.Int64
	staleServes   atomic.Int64

	lifecycle sync.Mutex
	started   bool
	closed    bool
	stop      chan struct{}
	done      chan struct{}
}

// New builds a cache from cfg, or returns nil (a valid, always-miss
// cache) when cfg.MaxBytes <= 0.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		return nil
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	window := cfg.MaxBytes * windowPercent / 100
	c := &Cache{
		cfg:            cfg,
		windowBytes:    window,
		protectedBytes: (cfg.MaxBytes - window) * protectedPercent / 100,
		obs:            newCacheObs(cfg.Metrics),
		byID:           make(map[model.BlockID]*entry),
		Flights:        NewFlightGroup(),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
	// Size the sketch's rows for the entry population of 4 KiB blocks
	// (wide rows only cost a few KiB); its aging period follows the
	// entries actually resident (sketch.period).
	est := int(cfg.MaxBytes / 4096)
	if est < 256 {
		est = 256
	}
	c.sketch = newSketch(est, cfg.Seed)
	return c
}

// estimate reads the sketch's frequency estimate for block id (c.mu
// held).
func (c *Cache) estimate(id model.BlockID) int {
	return c.sketch.estimate(hashID(string(id)))
}

// expired reports whether e is a stale entry past StaleTTL: it can no
// longer be served at all, so it is a free eviction victim.
func (c *Cache) expired(e *entry, now time.Time) bool {
	return e.stale && now.Sub(e.staleAt) > c.cfg.StaleTTL
}

// Get returns the cached decoded bytes for (id, version). The returned
// slice is the resident block itself, shared with the cache and every
// other reader: it must not be modified. A resident entry with a
// different version is invalidated (dropped, or marked stale when
// StaleTTL > 0) and reported as a miss.
func (c *Cache) Get(id model.BlockID, version uint64) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	h := hashID(string(id))
	now := c.cfg.Clock()
	c.mu.Lock()
	c.sketch.add(h, len(c.byID))
	e, ok := c.byID[id]
	if ok && e.version == version && !e.stale {
		c.hitLocked(e)
		out := e.data
		c.mu.Unlock()
		c.hits.Add(1)
		c.obs.hits.Inc()
		return out, true
	}
	var invalidated, expired bool
	if ok {
		switch {
		case !e.stale && e.version < version:
			// The resident decode predates the requested placement
			// version: the block moved or was rewritten since. Drop it,
			// or keep it around as a stale-if-error candidate.
			invalidated = true
			if c.cfg.StaleTTL > 0 {
				e.stale = true
				e.staleAt = now
			} else {
				c.removeLocked(e)
			}
		case !e.stale:
			// e.version > version: the caller's metadata is older than
			// the resident entry. Miss without touching the entry.
		case c.expired(e, now):
			expired = true
			c.removeLocked(e)
		}
	}
	c.mu.Unlock()
	if invalidated {
		c.invalidations.Add(1)
		c.obs.invalidations.Inc()
	}
	if expired {
		c.evictions.Add(1)
		c.obs.evictions.Inc()
	}
	c.misses.Add(1)
	c.obs.misses.Inc()
	return nil, false
}

// GetStale returns the resident bytes for id regardless of version
// match, provided any stale entry is still within StaleTTL. It is the
// stale-if-error path: callers use it only after establishing that the
// block cannot currently be reconstructed from its sites. The returned
// version is the placement version the bytes were decoded under; the
// bytes are shared and read-only, as for Get.
func (c *Cache) GetStale(id model.BlockID) (data []byte, version uint64, ok bool) {
	if c == nil || c.cfg.StaleTTL <= 0 {
		return nil, 0, false
	}
	now := c.cfg.Clock()
	c.mu.Lock()
	e, found := c.byID[id]
	if !found || c.expired(e, now) {
		c.mu.Unlock()
		return nil, 0, false
	}
	out, ver := e.data, e.version
	c.mu.Unlock()
	c.staleServes.Add(1)
	c.obs.staleServes.Inc()
	return out, ver, true
}

// Put offers the decoded bytes of (id, version) for admission and takes
// ownership of data: from here on the slice is immutable, whether or
// not it stays resident, because the caller typically also returns it to
// its own caller. The entry enters the window and is resident when Put
// returns true, which it does unless the block is larger than MaxBytes.
// Once later Puts push it out of the window, it stays only if the
// sketch rates it above main's victim. Put does not count as
// an access: Get records each read.
func (c *Cache) Put(id model.BlockID, version uint64, data []byte) bool {
	if c == nil {
		return false
	}
	return c.putOwned(id, version, data, int64(len(data)))
}

// PutSized admits an entry with an explicit size. The simulator uses it
// to model the cache byte budget (data may be nil) without
// materialising block contents.
func (c *Cache) PutSized(id model.BlockID, version uint64, data []byte, size int64) bool {
	if c == nil {
		return false
	}
	return c.putOwned(id, version, data, size)
}

func (c *Cache) putOwned(id model.BlockID, version uint64, data []byte, size int64) bool {
	if size <= 0 {
		return false
	}
	if size > c.cfg.MaxBytes {
		c.rejects.Add(1)
		c.obs.rejects.Inc()
		return false
	}
	now := c.cfg.Clock()
	c.mu.Lock()
	e, ok := c.byID[id]
	if ok {
		// Refresh: the newer decode wins and staleness clears. It
		// re-enters at the window's head like any new decode, which also
		// keeps it out of the eviction below.
		c.segs[e.seg].unlink(e)
		e.version, e.data, e.size = version, data, size
		e.stale = false
		e.staleAt = time.Time{}
	} else {
		e = &entry{id: id, version: version, data: data, size: size}
		c.byID[id] = e
	}
	e.seg = window
	c.segs[window].pushFront(e)
	evicted, rejected := c.evictLocked(now)
	c.syncGaugesLocked()
	c.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
		c.obs.evictions.Add(int64(evicted))
	}
	if rejected > 0 {
		c.rejects.Add(int64(rejected))
		c.obs.rejects.Add(int64(rejected))
	}
	if !ok {
		c.inserts.Add(1)
		c.obs.inserts.Inc()
	}
	return true
}

// Invalidate drops id's entry regardless of version (used on delete and
// overwrite, where the caller knows any cached bytes are wrong).
func (c *Cache) Invalidate(id model.BlockID) {
	if c == nil {
		return
	}
	c.mu.Lock()
	e, ok := c.byID[id]
	if ok {
		c.removeLocked(e)
	}
	c.mu.Unlock()
	if ok {
		c.invalidations.Add(1)
		c.obs.invalidations.Inc()
	}
}

// Sweep drops stale entries whose TTL has expired. The maintenance
// goroutine calls it periodically; tests and the simulator may call it
// directly (it is deterministic given the injected clock).
func (c *Cache) Sweep() int {
	if c == nil {
		return 0
	}
	now := c.cfg.Clock()
	dropped := 0
	c.mu.Lock()
	for seg := range c.segs {
		for e := c.segs[seg].tail; e != nil; {
			prev := e.prev
			if c.expired(e, now) {
				c.removeLocked(e)
				dropped++
			}
			e = prev
		}
	}
	c.mu.Unlock()
	if dropped > 0 {
		c.evictions.Add(int64(dropped))
		c.obs.evictions.Add(int64(dropped))
	}
	return dropped
}

// Stats snapshots the cache counters and current occupancy.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	s := Stats{
		Hits:             c.hits.Load(),
		Misses:           c.misses.Load(),
		Inserts:          c.inserts.Load(),
		Evictions:        c.evictions.Load(),
		AdmissionRejects: c.rejects.Load(),
		Invalidations:    c.invalidations.Load(),
		StaleServes:      c.staleServes.Load(),
		MaxBytes:         c.cfg.MaxBytes,
	}
	c.mu.Lock()
	s.Bytes, s.Entries = c.bytes(), len(c.byID)
	c.mu.Unlock()
	return s
}

// syncGaugesLocked sets the occupancy gauges from the running totals
// (c.mu held). Every change of occupancy, an insert or a removal, calls
// it, so the gauges always match the state the lock publishes.
func (c *Cache) syncGaugesLocked() {
	c.obs.bytes.Set(c.bytes())
	c.obs.entries.Set(int64(len(c.byID)))
}

// StartMaintenance launches the background sweep goroutine, which
// expires stale entries every interval until Close. It is a no-op on a
// nil cache, after Close, or when called twice.
func (c *Cache) StartMaintenance(interval time.Duration) {
	if c == nil || interval <= 0 {
		return
	}
	c.lifecycle.Lock()
	defer c.lifecycle.Unlock()
	if c.started || c.closed {
		return
	}
	c.started = true
	go c.maintain(interval)
}

func (c *Cache) maintain(interval time.Duration) {
	defer close(c.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.Sweep()
		}
	}
}

// Close stops the maintenance goroutine (if started) and waits for it
// to drain. Idempotent; safe on a nil cache.
func (c *Cache) Close() {
	if c == nil {
		return
	}
	c.lifecycle.Lock()
	if c.closed {
		c.lifecycle.Unlock()
		return
	}
	c.closed = true
	started := c.started
	c.lifecycle.Unlock()
	if started {
		close(c.stop)
		<-c.done
	}
}

// Contains reports whether any version of the block is resident (fresh
// or stale) without touching hit/miss accounting, segment order or the
// admission sketch. Coverage reporting uses it; the read path never does.
func (c *Cache) Contains(id model.BlockID) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.byID[id]
	return ok
}

// DedupObserved records n singleflight followers that were coalesced
// onto a leader (the client owns the flight logic; the cache owns the
// metric so all cache instrumentation lives in one registry family).
func (c *Cache) DedupObserved(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.obs.dedup.Add(int64(n))
}

// hitLocked records a hit on e in segment order: a probation hit
// promotes e to protected, demoting protected's LRU tail back to
// probation while protected is over its cap (c.mu held).
func (c *Cache) hitLocked(e *entry) {
	if e.seg != probation {
		c.segs[e.seg].moveFront(e)
		return
	}
	c.move(e, protected)
	prot := &c.segs[protected]
	for prot.bytes > c.protectedBytes && prot.tail != prot.head {
		c.move(prot.tail, probation)
	}
}

// evictLocked brings the cache back within its budget after an insert
// (c.mu held). While the window is over its share, its LRU tail is a
// candidate for main: it displaces main's victims (probation's LRU tail,
// or protected's when probation is empty) only while the sketch rates it
// strictly more frequent, so ties keep the resident; a refused candidate
// leaves the cache. An expired stale victim goes for free. If the
// window's newest entry alone still overflows the budget, main yields
// in LRU order.
func (c *Cache) evictLocked(now time.Time) (evicted, rejected int) {
	budget := c.cfg.MaxBytes
	win := &c.segs[window]
	for win.bytes > c.windowBytes && win.tail != win.head {
		cand := win.tail
		freq := c.estimate(cand.id)
		for c.bytes() > budget {
			victim := c.mainVictim()
			if victim == nil || !c.expired(victim, now) && c.estimate(victim.id) >= freq {
				break
			}
			c.removeLocked(victim)
			evicted++
		}
		if c.bytes() > budget {
			c.removeLocked(cand)
			rejected++
		} else {
			c.move(cand, probation)
		}
	}
	for c.bytes() > budget {
		victim := c.mainVictim()
		if victim == nil {
			break
		}
		c.removeLocked(victim)
		evicted++
	}
	return evicted, rejected
}

// --- segment plumbing (c.mu held) ---

// removeLocked unlinks and deletes e.
func (c *Cache) removeLocked(e *entry) {
	c.segs[e.seg].unlink(e)
	delete(c.byID, e.id)
	e.data = nil
	c.syncGaugesLocked()
}

// bytes is the occupancy: the sum of the segments' bytes.
func (c *Cache) bytes() int64 {
	return c.segs[window].bytes + c.segs[probation].bytes + c.segs[protected].bytes
}

// mainVictim is the main space's eviction candidate: probation's LRU
// tail, or protected's when probation is empty.
func (c *Cache) mainVictim() *entry {
	if v := c.segs[probation].tail; v != nil {
		return v
	}
	return c.segs[protected].tail
}

// move relinks e at the head of segment to.
func (c *Cache) move(e *entry, to segment) {
	c.segs[e.seg].unlink(e)
	e.seg = to
	c.segs[to].pushFront(e)
}

func (l *lruList) pushFront(e *entry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
	l.bytes += e.size
}

func (l *lruList) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.bytes -= e.size
}

func (l *lruList) moveFront(e *entry) {
	if l.head == e {
		return
	}
	l.unlink(e)
	l.pushFront(e)
}

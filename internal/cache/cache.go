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
//   - Sharded, byte-budgeted store: FNV-1a(BlockID) picks one of N
//     shards, each a mutex + map + intrusive LRU list, so concurrent
//     readers rarely contend.
//   - TinyLFU admission: a seeded count-min sketch estimates each
//     block's recent request frequency; a candidate only displaces the
//     LRU victim if its estimate (plus a co-access hotness boost from
//     stats.CoAccessTracker) is at least the victim's. One-hit wonders
//     never churn the hot set.
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
//     pool. A hit therefore costs pointer work under the shard mutex, and
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
	"ecstore/internal/stats"
)

// Hotness supplies the statistics service's view of how hot a block is.
// *stats.CoAccessTracker implements it; nil disables the boost.
type Hotness interface {
	// Frequency returns P(block ∈ request) over the sliding window.
	Frequency(b model.BlockID) float64
	// Partners returns the strongest co-access partners of b.
	Partners(b model.BlockID, max int) []stats.Partner
}

// Config tunes the cache.
type Config struct {
	// MaxBytes is the total decoded-byte budget across all shards.
	// Required; New returns nil when it is <= 0 (cache disabled).
	MaxBytes int64
	// Shards is the number of independent LRU shards; 0 means 16.
	Shards int
	// StaleTTL bounds stale-if-error serving: a version-mismatched
	// entry is kept (marked stale) this long for GetStale. 0 disables
	// stale serving entirely — mismatches are dropped on sight.
	StaleTTL time.Duration
	// Clock supplies time for stale bookkeeping; nil means time.Now.
	// The simulator injects virtual time here.
	Clock func() time.Time
	// Seed drives the admission sketch's hashing.
	Seed int64
	// Hotness optionally boosts admission for blocks the statistics
	// service considers hot. Nil disables the boost.
	Hotness Hotness
	// Metrics optionally exports cache instrumentation into a shared
	// registry. Nil disables it.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// entry is one cached decoded block; entries form per-shard intrusive
// doubly-linked LRU lists (head = most recent).
type entry struct {
	id      model.BlockID
	version uint64
	data    []byte
	size    int64
	stale   bool
	staleAt time.Time

	prev, next *entry
}

// shard is one lock domain: a map for lookup plus an LRU list for
// eviction order and a running byte count against its budget share.
type shard struct {
	mu         sync.Mutex
	byID       map[model.BlockID]*entry
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
		inserts:       reg.Counter("cache_inserts_total", "decoded blocks admitted into the cache"),
		evictions:     reg.Counter("cache_evictions_total", "cached blocks evicted for capacity"),
		rejects:       reg.Counter("cache_admission_rejects_total", "candidate blocks refused admission by the frequency sketch"),
		invalidations: reg.Counter("cache_invalidations_total", "entries invalidated by version change or explicit drop"),
		staleServes:   reg.Counter("cache_stale_serves_total", "stale entries served because the block was unreadable"),
		dedup:         reg.Counter("cache_singleflight_dedup_total", "fetch+decode calls coalesced onto an in-flight leader"),
		bytes:         reg.Gauge("cache_bytes", "decoded bytes currently cached"),
		entries:       reg.Gauge("cache_entries", "blocks currently cached"),
	}
}

// Cache is a sharded, byte-budgeted decoded-block cache with
// stats-driven admission and version-tagged invalidation. The zero
// value is not usable; a nil *Cache is: every method no-ops (misses),
// so callers thread an optional cache without nil checks.
type Cache struct {
	cfg            Config
	shards         []*shard
	budgetPerShard int64
	clock          func() time.Time
	hot            Hotness
	obs            cacheObs

	sketchMu sync.Mutex
	sketch   *sketch

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
	cfg = cfg.withDefaults()
	c := &Cache{
		cfg:            cfg,
		shards:         make([]*shard, cfg.Shards),
		budgetPerShard: cfg.MaxBytes / int64(cfg.Shards),
		clock:          cfg.Clock,
		hot:            cfg.Hotness,
		obs:            newCacheObs(cfg.Metrics),
		Flights:        NewFlightGroup(),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
	if c.budgetPerShard <= 0 {
		c.budgetPerShard = 1
	}
	for i := range c.shards {
		c.shards[i] = &shard{byID: make(map[model.BlockID]*entry)}
	}
	// Size the sketch for the plausible entry population assuming 4 KiB
	// blocks as a floor; oversizing only costs a few KiB.
	est := int(cfg.MaxBytes / 4096)
	if est < 256 {
		est = 256
	}
	c.sketch = newSketch(est, cfg.Seed)
	return c
}

func (c *Cache) shard(h uint64) *shard {
	return c.shards[h%uint64(len(c.shards))]
}

// touch records an access in the admission sketch and returns the
// block's hash.
func (c *Cache) touch(id model.BlockID) uint64 {
	h := hashID(string(id))
	c.sketchMu.Lock()
	c.sketch.add(h)
	c.sketchMu.Unlock()
	return h
}

// estimate reads the sketch's frequency estimate for hash h.
func (c *Cache) estimate(h uint64) int {
	c.sketchMu.Lock()
	defer c.sketchMu.Unlock()
	return c.sketch.estimate(h)
}

// score is the admission score for a candidate block: the sketch
// estimate plus a boost when the statistics service marks the block (or
// its co-access partnership) hot. Victim scores use the raw sketch
// estimate, so hot blocks win ties against cold residents.
func (c *Cache) score(id model.BlockID, h uint64) int {
	s := c.estimate(h)
	if c.hot == nil {
		return s
	}
	if f := c.hot.Frequency(id); f > 0 {
		// Frequency is P(block ∈ request) ∈ [0,1]; scale into sketch
		// counter units so a block in ~12% of requests gains +1.
		s += 1 + int(f*8)
	}
	if ps := c.hot.Partners(id, 1); len(ps) > 0 && ps[0].Lambda > 0 {
		s++
	}
	return s
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
	h := c.touch(id)
	now := c.clock()
	sh := c.shard(h)
	sh.mu.Lock()
	e, ok := sh.byID[id]
	if ok && e.version == version && !e.stale {
		sh.moveFront(e)
		out := e.data
		sh.mu.Unlock()
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
				c.removeLocked(sh, e)
			}
		case !e.stale:
			// e.version > version: the caller's metadata is older than
			// the resident entry. Miss without touching the entry.
		case now.Sub(e.staleAt) > c.cfg.StaleTTL:
			expired = true
			c.removeLocked(sh, e)
		}
	}
	sh.mu.Unlock()
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
	h := hashID(string(id))
	now := c.clock()
	sh := c.shard(h)
	sh.mu.Lock()
	e, found := sh.byID[id]
	if !found || (e.stale && now.Sub(e.staleAt) > c.cfg.StaleTTL) {
		sh.mu.Unlock()
		return nil, 0, false
	}
	out, ver := e.data, e.version
	sh.mu.Unlock()
	c.staleServes.Add(1)
	c.obs.staleServes.Inc()
	return out, ver, true
}

// Put offers the decoded bytes of (id, version) for admission and takes
// ownership of data: from here on the slice is immutable, whether or
// not it was admitted, because the caller typically also returns it to
// its own caller. It returns whether the block is resident afterwards
// (admission may refuse it in favour of hotter residents).
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
	h := c.touch(id)
	if size > c.budgetPerShard {
		c.rejects.Add(1)
		c.obs.rejects.Inc()
		return false
	}
	cand := c.score(id, h)
	now := c.clock()

	sh := c.shard(h)
	sh.mu.Lock()
	if e, ok := sh.byID[id]; ok {
		// Refresh in place: newer decode wins, staleness clears.
		sh.bytes += size - e.size
		e.version, e.data, e.size = version, data, size
		e.stale = false
		e.staleAt = time.Time{}
		sh.moveFront(e)
		evicted := c.evictOverBudgetLocked(sh, e, cand, now)
		sh.mu.Unlock()
		c.finishPut(true, evicted, 0)
		return true
	}
	evicted, rejected := 0, false
	for sh.bytes+size > c.budgetPerShard {
		victim := sh.tail
		if victim == nil {
			break
		}
		// Expired stale entries are free to drop; live residents are
		// only displaced by an at-least-as-frequent candidate.
		if !(victim.stale && now.Sub(victim.staleAt) > c.cfg.StaleTTL) &&
			c.estimate(hashID(string(victim.id))) > cand {
			rejected = true
			break
		}
		c.removeLocked(sh, victim)
		evicted++
	}
	if rejected {
		sh.mu.Unlock()
		c.rejects.Add(1)
		c.obs.rejects.Inc()
		c.finishPut(false, evicted, 0)
		return false
	}
	e := &entry{id: id, version: version, data: data, size: size}
	sh.byID[id] = e
	sh.pushFront(e)
	sh.bytes += size
	sh.mu.Unlock()
	c.finishPut(true, evicted, 1)
	return true
}

// finishPut updates counters and gauges after a put attempt.
func (c *Cache) finishPut(admitted bool, evicted, inserted int) {
	if evicted > 0 {
		c.evictions.Add(int64(evicted))
		c.obs.evictions.Add(int64(evicted))
	}
	if inserted > 0 {
		c.inserts.Add(int64(inserted))
		c.obs.inserts.Inc()
	}
	if admitted || evicted > 0 {
		c.syncGauges()
	}
}

// Invalidate drops id's entry regardless of version (used on delete and
// overwrite, where the caller knows any cached bytes are wrong).
func (c *Cache) Invalidate(id model.BlockID) {
	if c == nil {
		return
	}
	h := hashID(string(id))
	sh := c.shard(h)
	sh.mu.Lock()
	e, ok := sh.byID[id]
	if ok {
		c.removeLocked(sh, e)
	}
	sh.mu.Unlock()
	if ok {
		c.invalidations.Add(1)
		c.obs.invalidations.Inc()
		c.syncGauges()
	}
}

// Sweep drops stale entries whose TTL has expired. The maintenance
// goroutine calls it periodically; tests and the simulator may call it
// directly (it is deterministic given the injected clock).
func (c *Cache) Sweep() int {
	if c == nil {
		return 0
	}
	now := c.clock()
	dropped := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		for e := sh.tail; e != nil; {
			prev := e.prev
			if e.stale && now.Sub(e.staleAt) > c.cfg.StaleTTL {
				c.removeLocked(sh, e)
				dropped++
			}
			e = prev
		}
		sh.mu.Unlock()
	}
	if dropped > 0 {
		c.evictions.Add(int64(dropped))
		c.obs.evictions.Add(int64(dropped))
		c.syncGauges()
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
	for _, sh := range c.shards {
		sh.mu.Lock()
		s.Bytes += sh.bytes
		s.Entries += len(sh.byID)
		sh.mu.Unlock()
	}
	c.obs.bytes.Set(s.Bytes)
	c.obs.entries.Set(int64(s.Entries))
	return s
}

// syncGauges refreshes the occupancy gauges from shard state.
func (c *Cache) syncGauges() {
	if c.obs.bytes == nil && c.obs.entries == nil {
		return
	}
	var bytes int64
	var entries int
	for _, sh := range c.shards {
		sh.mu.Lock()
		bytes += sh.bytes
		entries += len(sh.byID)
		sh.mu.Unlock()
	}
	c.obs.bytes.Set(bytes)
	c.obs.entries.Set(int64(entries))
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
// or stale) without touching hit/miss accounting, LRU order or the
// admission sketch. Coverage reporting uses it; the read path never does.
func (c *Cache) Contains(id model.BlockID) bool {
	if c == nil {
		return false
	}
	sh := c.shard(hashID(string(id)))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.byID[id]
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

// --- intrusive LRU list plumbing (shard.mu held) ---

func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) moveFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// removeLocked unlinks and deletes e from the shard (shard.mu held).
func (c *Cache) removeLocked(sh *shard, e *entry) {
	sh.unlink(e)
	delete(sh.byID, e.id)
	sh.bytes -= e.size
	e.data = nil
}

// evictOverBudgetLocked drops tail entries while the shard is over
// budget, sparing keep and respecting admission scores as in putOwned.
func (c *Cache) evictOverBudgetLocked(sh *shard, keep *entry, cand int, now time.Time) int {
	evicted := 0
	for sh.bytes > c.budgetPerShard {
		victim := sh.tail
		if victim == nil || victim == keep {
			break
		}
		if !(victim.stale && now.Sub(victim.staleAt) > c.cfg.StaleTTL) &&
			c.estimate(hashID(string(victim.id))) > cand {
			break
		}
		c.removeLocked(sh, victim)
		evicted++
	}
	return evicted
}

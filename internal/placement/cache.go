package placement

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ecstore/internal/model"
	"ecstore/internal/obs"
)

// cacheKey identifies a request shape: the sorted block ids, the late
// binding delta, and the placement versions of the blocks (so a moved
// chunk invalidates stale plans).
func cacheKey(req PlanRequest) string {
	ids := make([]string, 0, len(req.Metas))
	for id := range req.Metas {
		ids = append(ids, string(id))
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		b.WriteString(id)
		b.WriteByte('@')
		b.WriteString(strconv.FormatUint(req.Metas[model.BlockID(id)].Version, 10))
		b.WriteByte('|')
	}
	b.WriteString("d=")
	b.WriteString(strconv.Itoa(req.Delta))
	return b.String()
}

// PlannerConfig tunes the caching planner.
type PlannerConfig struct {
	// Strategy selects random (baselines) or cost-model planning.
	Strategy Strategy
	// Delta enables late binding when positive.
	Delta int
	// CacheSize bounds the plan cache entries; 0 means 4096.
	CacheSize int
	// Seed drives random tie-breaking.
	Seed int64
	// Metrics optionally exports plan-cache instrumentation (hit/miss/
	// exact/greedy counts, cache size, planning latency) into a shared
	// registry. Nil disables it.
	Metrics *obs.Registry
}

// plannerObs is the planner's instrument set; every field is nil-safe.
type plannerObs struct {
	hits      *obs.Counter
	misses    *obs.Counter
	greedy    *obs.Counter
	exact     *obs.Counter
	random    *obs.Counter
	evictions *obs.Counter
	entries   *obs.Gauge
	latency   *obs.Histogram
}

func newPlannerObs(reg *obs.Registry) plannerObs {
	if reg == nil {
		return plannerObs{}
	}
	return plannerObs{
		hits:      reg.Counter("plan_cache_hits_total", "plans served from the cache"),
		misses:    reg.Counter("plan_cache_misses_total", "requests not found in the cache"),
		greedy:    reg.Counter("plan_greedy_total", "cache misses served by the greedy heuristic (exact search past its limits or out of budget)"),
		exact:     reg.Counter("plan_exact_total", "cache misses served by the exact solve"),
		random:    reg.Counter("plan_random_total", "plans served by the random baseline strategy"),
		evictions: reg.Counter("plan_cache_evictions_total", "cached plans dropped (capacity or invalidation)"),
		entries:   reg.Gauge("plan_cache_entries", "plans currently cached"),
		latency:   reg.Histogram("plan_seconds", "access-planning latency (cache lookup, plus the exact or greedy solve on a miss)"),
	}
}

// PlannerStats counts plan provenance for instrumentation. Exact and
// Greedy split the misses by how they were solved.
type PlannerStats struct {
	Hits   int64
	Misses int64
	Exact  int64
	Greedy int64
	Random int64
}

// HitRate returns cache hits / (hits+misses), or 0 when unused.
func (s PlannerStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Planner produces access plans according to a configured strategy,
// caching them as described in Section V-B1. A cache miss solves Equation
// 4 exactly on the caller's goroutine; the greedy heuristic serves it only
// when the search stops at its limits or the exact-solve budget
// (LimitExact) is spent. Either way the plan is cached for later requests.
type Planner struct {
	cfg PlannerConfig
	obs plannerObs

	mu    sync.Mutex
	rng   *rand.Rand
	cache map[string]*model.AccessPlan
	order []string // FIFO eviction order
	stats PlannerStats
	// exactLeft is how many misses may still be solved exactly; negative
	// means every miss is.
	exactLeft int
}

// NewPlanner returns a planner with the given configuration.
func NewPlanner(cfg PlannerConfig) *Planner {
	if cfg.Strategy == 0 {
		cfg.Strategy = StrategyCost
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 4096
	}
	return &Planner{
		cfg:       cfg,
		obs:       newPlannerObs(cfg.Metrics),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		cache:     make(map[string]*model.AccessPlan),
		exactLeft: -1,
	}
}

// LimitExact allows the next n cache misses to be solved exactly, until the
// next call; later misses are served greedily. The discrete-event simulator
// calls it once per statistics interval to model the paper's background
// solver, whose throughput is finite. A planner that never calls it solves
// every miss exactly.
func (p *Planner) LimitExact(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.exactLeft = max(n, 0)
}

// Strategy returns the configured access strategy.
func (p *Planner) Strategy() Strategy { return p.cfg.Strategy }

// Delta returns the configured late-binding surplus.
func (p *Planner) Delta() int { return p.cfg.Delta }

// Stats returns a snapshot of provenance counters.
func (p *Planner) Stats() PlannerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// InvalidateAll drops every cached plan (called when cost parameters
// change materially, per "when the cost parameters in the ILP problem
// change as a result of new system state, we dynamically reload
// solutions").
func (p *Planner) InvalidateAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.obs.evictions.Add(int64(len(p.cache)))
	p.cache = make(map[string]*model.AccessPlan)
	p.order = nil
	p.obs.entries.Set(0)
}

// Plan produces an access plan for the request. The returned plan is a
// copy; callers may mutate it.
func (p *Planner) Plan(req PlanRequest, costs *model.SiteCosts) (*model.AccessPlan, error) {
	req.Delta = p.cfg.Delta
	start := time.Now()
	defer func() { p.obs.latency.ObserveSince(start) }()

	if p.cfg.Strategy == StrategyRandom {
		p.mu.Lock()
		rng := rand.New(rand.NewSource(p.rng.Int63()))
		p.stats.Random++
		p.mu.Unlock()
		p.obs.random.Inc()
		return RandomPlan(req, rng)
	}

	key := cacheKey(req)
	p.mu.Lock()
	if plan, ok := p.cache[key]; ok {
		// A cached plan may reference sites that have failed since it
		// was installed; re-validate cheaply before reuse.
		if planUsable(plan, req) {
			p.stats.Hits++
			out := plan.Clone()
			p.mu.Unlock()
			p.obs.hits.Inc()
			return out, nil
		}
		p.evictLocked(key)
	}
	p.stats.Misses++
	seed := p.rng.Int63()
	solve := p.exactLeft != 0
	if p.exactLeft > 0 {
		p.exactLeft--
	}
	p.mu.Unlock()
	p.obs.misses.Inc()

	rc := buildCandidates(req.Metas, req.Available)
	if !rc.feasible() {
		return nil, ErrInfeasible
	}
	var plan *model.AccessPlan
	if solve {
		if mask, _, blocks, err := bestSiteMask(rc, costs, req.Delta); err == nil {
			plan = subsetPlan(rc, mask, blocks)
		}
	}
	exact := plan != nil
	if !exact {
		plan = greedyPlan(rc, costs, req.Delta, rand.New(rand.NewSource(seed)))
	}

	p.mu.Lock()
	if exact {
		p.stats.Exact++
		p.obs.exact.Inc()
	} else {
		p.stats.Greedy++
		p.obs.greedy.Inc()
	}
	p.installLocked(key, plan.Clone())
	p.mu.Unlock()
	return plan, nil
}

// CacheLen returns the number of cached plans.
func (p *Planner) CacheLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.cache)
}

// MemoryFootprint approximates the plan cache's live bytes (Table III
// resource accounting: the chunk read optimizer's memory is dominated by
// cached plans).
func (p *Planner) MemoryFootprint() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	const (
		keyOverhead   = 64
		perSiteEntry  = 56
		perChunkEntry = 40
	)
	bytes := 0
	for key, plan := range p.cache {
		bytes += keyOverhead + len(key)
		bytes += len(plan.Reads) * perSiteEntry
		bytes += plan.ChunkCount() * perChunkEntry
	}
	return bytes
}

func (p *Planner) installLocked(key string, plan *model.AccessPlan) {
	if _, exists := p.cache[key]; !exists {
		p.order = append(p.order, key)
		for len(p.order) > p.cfg.CacheSize {
			oldest := p.order[0]
			p.order = p.order[1:]
			delete(p.cache, oldest)
			p.obs.evictions.Inc()
		}
	}
	p.cache[key] = plan
	p.obs.entries.Set(int64(len(p.cache)))
}

func (p *Planner) evictLocked(key string) {
	delete(p.cache, key)
	for i, k := range p.order {
		if k == key {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
	p.obs.evictions.Inc()
	p.obs.entries.Set(int64(len(p.cache)))
}

// planUsable re-checks a cached plan against current availability and
// placement (versions are part of the key, so only availability changes
// can invalidate a hit).
func planUsable(plan *model.AccessPlan, req PlanRequest) bool {
	if req.Available == nil {
		return true
	}
	for site := range plan.Reads {
		if !req.Available(site) {
			return false
		}
	}
	return true
}

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
	// InlineExact makes cache misses run the exact solve synchronously
	// after returning the greedy plan, emulating the paper's background
	// worker deterministically (used by tests). When false a real
	// background goroutine performs the solve.
	InlineExact bool
	// ManualExact queues exact solves instead of spawning goroutines;
	// the owner drains the queue with UpgradePending. The discrete-event
	// simulator uses this to model the background worker's finite
	// throughput deterministically. Takes precedence over InlineExact.
	ManualExact bool
	// CacheGreedyOnMiss installs the greedy plan in the cache
	// immediately so identical requests hit before the exact solve
	// lands (it is replaced once the exact solution arrives).
	CacheGreedyOnMiss bool
	// Seed drives random tie-breaking.
	Seed int64
	// Metrics optionally exports plan-cache instrumentation (hit/miss/
	// greedy-fallback/exact-upgrade counts, cache size, planning latency)
	// into a shared registry. Nil disables it.
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
		greedy:    reg.Counter("plan_greedy_total", "plans served by the greedy fallback"),
		exact:     reg.Counter("plan_exact_total", "exact plans installed (background upgrades)"),
		random:    reg.Counter("plan_random_total", "plans served by the random baseline strategy"),
		evictions: reg.Counter("plan_cache_evictions_total", "cached plans dropped (capacity or invalidation)"),
		entries:   reg.Gauge("plan_cache_entries", "plans currently cached"),
		latency:   reg.Histogram("plan_seconds", "access-planning latency (cache lookup + greedy/random path)"),
	}
}

// PlannerStats counts plan provenance for instrumentation.
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
// caching exact solutions as described in Section V-B1: a cache miss is
// served by the greedy heuristic while the exact solution is computed
// in the background and installed for future requests.
type Planner struct {
	cfg PlannerConfig
	obs plannerObs

	mu    sync.Mutex
	rng   *rand.Rand
	cache map[string]*model.AccessPlan
	order []string // FIFO eviction order
	stats PlannerStats

	// background solve machinery (real mode).
	wg      sync.WaitGroup
	pending map[string]bool
	closed  bool

	// manual-mode solve queue (simulation mode).
	queue []pendingSolve
}

// pendingSolve is a queued exact-solve job (manual mode).
type pendingSolve struct {
	req   PlanRequest
	costs *model.SiteCosts
	key   string
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
		cfg:     cfg,
		obs:     newPlannerObs(cfg.Metrics),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		cache:   make(map[string]*model.AccessPlan),
		pending: make(map[string]bool),
	}
}

// Close waits for in-flight background solves to finish.
func (p *Planner) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
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
func (p *Planner) Plan(req PlanRequest, costs *model.SiteCosts) (*model.AccessPlan, PlanSource, error) {
	req.Delta = p.cfg.Delta
	start := time.Now()
	defer func() { p.obs.latency.ObserveSince(start) }()

	if p.cfg.Strategy == StrategyRandom {
		p.mu.Lock()
		rng := rand.New(rand.NewSource(p.rng.Int63()))
		p.stats.Random++
		p.mu.Unlock()
		p.obs.random.Inc()
		plan, err := RandomPlan(req, rng)
		if err != nil {
			return nil, SourceRandom, err
		}
		return plan, SourceRandom, nil
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
			return out, SourceCache, nil
		}
		p.evictLocked(key)
	}
	p.stats.Misses++
	rng := rand.New(rand.NewSource(p.rng.Int63()))
	p.mu.Unlock()
	p.obs.misses.Inc()

	greedy, err := GreedyPlan(req, costs, rng)
	if err != nil {
		return nil, SourceGreedy, err
	}

	if p.cfg.CacheGreedyOnMiss {
		p.mu.Lock()
		p.installLocked(key, greedy.Clone())
		p.mu.Unlock()
	}

	switch {
	case p.cfg.ManualExact:
		p.mu.Lock()
		if !p.pending[key] && len(p.queue) < 4*p.cfg.CacheSize {
			p.pending[key] = true
			p.queue = append(p.queue, pendingSolve{req: req, costs: costs, key: key})
		}
		p.mu.Unlock()
	case p.cfg.InlineExact:
		p.solveAndInstall(req, costs, key)
	default:
		p.mu.Lock()
		if !p.pending[key] && !p.closed {
			p.pending[key] = true
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				p.solveAndInstall(req, costs, key)
				p.mu.Lock()
				delete(p.pending, key)
				p.mu.Unlock()
			}()
		}
		p.mu.Unlock()
	}

	p.mu.Lock()
	p.stats.Greedy++
	p.mu.Unlock()
	p.obs.greedy.Inc()
	return greedy, SourceGreedy, nil
}

// UpgradePending drains up to max queued exact solves (manual mode),
// modelling the background worker's finite throughput. It returns how many
// solves were performed.
func (p *Planner) UpgradePending(max int) int {
	done := 0
	for done < max {
		p.mu.Lock()
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return done
		}
		job := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()

		p.solveAndInstall(job.req, job.costs, job.key)
		p.mu.Lock()
		delete(p.pending, job.key)
		p.mu.Unlock()
		done++
	}
	return done
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

// solveAndInstall computes the exact plan and installs it in the cache.
// Only proven-optimal plans are installed, so an installed plan never
// costs more than greedy's; when the solve fails or stops at its search
// limits, whatever the cache held (the greedy plan, with
// CacheGreedyOnMiss) stays.
func (p *Planner) solveAndInstall(req PlanRequest, costs *model.SiteCosts, key string) {
	exact, err := ExactPlan(req, costs)
	if err != nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.Exact++
	p.obs.exact.Inc()
	p.installLocked(key, exact)
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

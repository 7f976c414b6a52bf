package placement

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"ecstore/internal/model"
	"ecstore/internal/obs"
)

// Strategy selects how access plans are generated.
type Strategy int

// Access-plan strategies, matching the paper's evaluated configurations.
const (
	// StrategyRandom picks random chunks/replicas: the R and EC
	// baselines (Section VI-A, "random data placement and access").
	StrategyRandom Strategy = iota + 1
	// StrategyCost minimizes Equation 1 (configurations EC+C and
	// EC+C+M) with the exact solver, falling back to the greedy
	// heuristic past its limits.
	StrategyCost
)

func (s Strategy) String() string {
	switch s {
	case StrategyRandom:
		return "random"
	case StrategyCost:
		return "cost"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// PlanRequest describes one multi-block read to plan.
type PlanRequest struct {
	// Metas holds the metadata of every requested block.
	Metas map[model.BlockID]*model.BlockMeta
	// Delta is the late-binding surplus: plans fetch k+Delta chunks per
	// block (capped at the available chunk count). Zero disables late
	// binding.
	Delta int
	// Available filters sites; nil means every site is reachable.
	Available func(model.SiteID) bool
}

// Without returns a copy of the request with the given blocks removed
// from Metas (the original request is untouched). The decoded-block
// cache uses it to strip hits from planning: a block served from local
// memory accesses no sites, which can only lower the request's Eq. 1
// cost.
func (r PlanRequest) Without(ids []model.BlockID) PlanRequest {
	if len(ids) == 0 {
		return r
	}
	metas := make(map[model.BlockID]*model.BlockMeta, len(r.Metas))
	for id, meta := range r.Metas {
		metas[id] = meta
	}
	for _, id := range ids {
		delete(metas, id)
	}
	r.Metas = metas
	return r
}

// ErrInfeasible is returned when some block cannot be reconstructed from
// the available sites.
var ErrInfeasible = fmt.Errorf("placement: request is infeasible")

// PlannerConfig tunes the planner.
type PlannerConfig struct {
	// Strategy selects random (baselines) or cost-model planning.
	Strategy Strategy
	// Delta enables late binding when positive.
	Delta int
	// Seed drives random tie-breaking.
	Seed int64
	// Metrics optionally exports planner instrumentation (exact/greedy/
	// random counts, planning latency) into a shared registry. Nil
	// disables it.
	Metrics *obs.Registry
}

// plannerObs is the planner's instrument set; every field is nil-safe.
type plannerObs struct {
	greedy  *obs.Counter
	exact   *obs.Counter
	random  *obs.Counter
	latency *obs.Histogram
}

func newPlannerObs(reg *obs.Registry) plannerObs {
	if reg == nil {
		return plannerObs{}
	}
	return plannerObs{
		greedy:  reg.Counter("plan_greedy_total", "cost-model plans served by the greedy heuristic (exact search past its limits or out of budget)"),
		exact:   reg.Counter("plan_exact_total", "cost-model plans solved exactly"),
		random:  reg.Counter("plan_random_total", "plans served by the random baseline strategy"),
		latency: reg.Histogram("plan_seconds", "access-planning latency (one exact or greedy solve, or one random draw)"),
	}
}

// PlannerStats counts plan provenance for instrumentation: Exact and
// Greedy split the cost-model plans by how they were solved, Random
// counts the baseline's. Hits and Misses are always 0: there is no plan
// cache (DESIGN.md §2); they remain only because benchmark/run.go still
// derives its plan-cache hit rate from them.
type PlannerStats struct {
	Hits   int64
	Misses int64
	Exact  int64
	Greedy int64
	Random int64
}

// Planner produces access plans according to a configured strategy. Every
// cost-model request is planned from the costs it is given: Equation 4 is
// solved exactly on the caller's goroutine, and the greedy heuristic serves
// it only when the search stops at its limits or the exact-solve budget
// (LimitExact) is spent. Nothing is kept between requests, so a plan always
// reflects the current o_j, m_j, placement and availability.
type Planner struct {
	cfg PlannerConfig
	obs plannerObs

	mu    sync.Mutex
	rng   *rand.Rand
	stats PlannerStats
	// exactLeft is how many requests may still be solved exactly;
	// negative means every request is.
	exactLeft int
}

// NewPlanner returns a planner with the given configuration.
func NewPlanner(cfg PlannerConfig) *Planner {
	if cfg.Strategy == 0 {
		cfg.Strategy = StrategyCost
	}
	return &Planner{
		cfg:       cfg,
		obs:       newPlannerObs(cfg.Metrics),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		exactLeft: -1,
	}
}

// LimitExact allows the next n cost-model requests to be solved exactly,
// until the next call; later ones are served greedily. The discrete-event
// simulator calls it once per statistics interval to model the paper's
// background solver, whose throughput is finite. A planner that never
// calls it solves every request exactly.
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

// Plan produces an access plan for the request under the given costs.
// The plan is the caller's to mutate.
func (p *Planner) Plan(req PlanRequest, costs *model.SiteCosts) (*model.AccessPlan, error) {
	req.Delta = p.cfg.Delta
	start := time.Now()
	defer func() { p.obs.latency.ObserveSince(start) }()

	p.mu.Lock()
	seed := p.rng.Int63()
	random := p.cfg.Strategy == StrategyRandom
	solve := !random && p.exactLeft != 0
	if solve && p.exactLeft > 0 {
		p.exactLeft--
	}
	p.mu.Unlock()
	if random {
		p.count(&p.stats.Random, p.obs.random)
		rng := seededRNG(seed)
		defer planRNGs.Put(rng)
		return RandomPlan(req, rng)
	}

	rc := buildCandidates(req.Metas, req.Available)
	if !rc.feasible() {
		return nil, ErrInfeasible
	}
	if solve {
		if mask, _, blocks, err := bestSiteMask(rc, costs, req.Delta); err == nil {
			p.count(&p.stats.Exact, p.obs.exact)
			return subsetPlan(rc, mask, blocks), nil
		}
	}
	p.count(&p.stats.Greedy, p.obs.greedy)
	rng := seededRNG(seed)
	defer planRNGs.Put(rng)
	return greedyPlan(rc, costs, req.Delta, rng), nil
}

// planRNGs recycles the tie-breaking generators of random and greedy plans.
var planRNGs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// seededRNG takes a generator from planRNGs and seeds it, so that it yields
// the sequence rand.New(rand.NewSource(seed)) would without allocating that
// generator's state. The caller puts it back.
func seededRNG(seed int64) *rand.Rand {
	rng := planRNGs.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}

// count bumps one provenance counter and its instrument.
func (p *Planner) count(n *int64, c *obs.Counter) {
	p.mu.Lock()
	*n++
	p.mu.Unlock()
	c.Inc()
}

// RandomPlan implements the baseline strategy: for each block choose
// RequiredChunks()+delta chunks uniformly at random among available sites.
func RandomPlan(req PlanRequest, rng *rand.Rand) (*model.AccessPlan, error) {
	rc := buildCandidates(req.Metas, req.Available)
	if !rc.feasible() {
		return nil, ErrInfeasible
	}
	plan := model.NewAccessPlan()
	for bi := range rc.blocks {
		cands := append([]candidate(nil), rc.cands[bi]...)
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		for _, c := range cands[:rc.need(bi, req.Delta)] {
			plan.Add(c.site, c.ref)
		}
	}
	return plan, nil
}

// GreedyPlan implements the paper's greedy heuristic (Section V-B1, which
// serves plan-cache misses with it): chunks at sites already present in the
// plan are preferred (their o_j is already paid); remaining chunks are
// chosen by marginal cost with random tie-breaking.
func GreedyPlan(req PlanRequest, costs *model.SiteCosts, rng *rand.Rand) (*model.AccessPlan, error) {
	rc := buildCandidates(req.Metas, req.Available)
	if !rc.feasible() {
		return nil, ErrInfeasible
	}
	return greedyPlan(rc, costs, req.Delta, rng), nil
}

// greedyPlan builds a plan over precomputed candidates. rng may be nil for
// deterministic tie-breaking by site id.
func greedyPlan(rc requestCandidates, costs *model.SiteCosts, delta int, rng *rand.Rand) *model.AccessPlan {
	plan := &model.AccessPlan{Reads: make(map[model.SiteID][]model.ChunkRef, len(rc.sites))}
	// Sites are indexed by their position in rc.sites. Sites holding
	// chunks of many requested blocks are better targets: paying their
	// o_j once amortizes over several blocks.
	siteIdx := func(s model.SiteID) int { i, _ := slices.BinarySearch(rc.sites, s); return i }
	shared := make([]int, len(rc.sites))
	accessed := make([]bool, len(rc.sites))
	widest := 0
	for _, cands := range rc.cands {
		for _, c := range cands {
			shared[siteIdx(c.site)]++
		}
		widest = max(widest, len(cands))
	}

	// Process blocks with the fewest candidates first so constrained
	// blocks are not starved of co-location opportunities.
	order := make([]int, len(rc.blocks))
	for bi := range order {
		order[bi] = bi
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(len(rc.cands[a]), len(rc.cands[b])) })

	type scored struct {
		c      candidate
		site   int
		cost   float64
		shared int
		tie    float64
	}
	scoredCands := make([]scored, 0, widest)
	for _, bi := range order {
		meta := rc.metas[rc.blocks[bi]]
		scoredCands = scoredCands[:0]
		for _, c := range rc.cands[bi] {
			i := siteIdx(c.site)
			cost := costs.MCost(c.site) * float64(meta.ChunkSize)
			if !accessed[i] {
				cost += costs.OCost(c.site)
			}
			tie := float64(c.site)
			if rng != nil {
				tie = rng.Float64()
			}
			scoredCands = append(scoredCands, scored{c: c, site: i, cost: cost, shared: shared[i], tie: tie})
		}
		slices.SortFunc(scoredCands, func(a, b scored) int {
			if a.cost != b.cost {
				return cmp.Compare(a.cost, b.cost)
			}
			if a.shared != b.shared {
				return cmp.Compare(b.shared, a.shared)
			}
			return cmp.Compare(a.tie, b.tie)
		})
		for _, sc := range scoredCands[:rc.need(bi, delta)] {
			plan.Add(sc.c.site, sc.c.ref)
			accessed[sc.site] = true
		}
	}
	return plan
}

// ExactPlan solves the access-planning problem of Equation 4 exactly, with
// Equation 2's right-hand side raised by Delta for late binding (Section
// IV-B1), by branch and bound over accessed-site sets (bestSiteMask). The
// plan is deterministic. A request the search cannot prove optimal within
// its limits (more than 64 sites, or 65,536 nodes) returns errNotExact.
func ExactPlan(req PlanRequest, costs *model.SiteCosts) (*model.AccessPlan, error) {
	rc := buildCandidates(req.Metas, req.Available)
	if !rc.feasible() {
		return nil, ErrInfeasible
	}
	mask, _, blocks, err := bestSiteMask(rc, costs, req.Delta)
	if err != nil {
		return nil, err
	}
	return subsetPlan(rc, mask, blocks), nil
}

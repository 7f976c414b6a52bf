package placement

import (
	"fmt"
	"math/rand"
	"sort"

	"ecstore/internal/model"
)

// Strategy selects how access plans are generated.
type Strategy int

// Access-plan strategies, matching the paper's evaluated configurations.
const (
	// StrategyRandom picks random chunks/replicas: the R and EC
	// baselines (Section VI-A, "random data placement and access").
	StrategyRandom Strategy = iota + 1
	// StrategyCost minimizes Equation 1 (configurations EC+C and
	// EC+C+M) via the plan cache, greedy fallback and exact solver.
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

// RandomPlan implements the baseline strategy: for each block choose
// RequiredChunks()+delta chunks uniformly at random among available sites.
func RandomPlan(req PlanRequest, rng *rand.Rand) (*model.AccessPlan, error) {
	rc := buildCandidates(req.Metas, req.Available)
	if !rc.feasible() {
		return nil, ErrInfeasible
	}
	plan := model.NewAccessPlan()
	for _, id := range rc.blocks {
		cands := append([]candidate(nil), rc.cands[id]...)
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		for _, c := range cands[:rc.need(id, req.Delta)] {
			plan.Add(c.site, c.ref)
		}
	}
	return plan, nil
}

// GreedyPlan implements the paper's cache-miss heuristic: chunks at sites
// already present in the plan are preferred (their o_j is already paid);
// remaining chunks are chosen by marginal cost with random tie-breaking.
func GreedyPlan(req PlanRequest, costs *model.SiteCosts, rng *rand.Rand) (*model.AccessPlan, error) {
	rc := buildCandidates(req.Metas, req.Available)
	if !rc.feasible() {
		return nil, ErrInfeasible
	}
	return greedyPlan(rc, costs, req.Delta, rng), nil
}

// greedyPlan builds a plan over precomputed candidates. rng may be nil for
// deterministic tie-breaking by site id.
func greedyPlan(rc *requestCandidates, costs *model.SiteCosts, delta int, rng *rand.Rand) *model.AccessPlan {
	plan := model.NewAccessPlan()
	accessed := make(map[model.SiteID]bool)

	// Sites holding chunks of many requested blocks are better targets:
	// paying their o_j once amortizes over several blocks.
	shared := make(map[model.SiteID]int)
	for _, id := range rc.blocks {
		for _, c := range rc.cands[id] {
			shared[c.site]++
		}
	}

	// Process blocks with the fewest candidates first so constrained
	// blocks are not starved of co-location opportunities.
	order := append([]model.BlockID(nil), rc.blocks...)
	sort.SliceStable(order, func(i, j int) bool {
		return len(rc.cands[order[i]]) < len(rc.cands[order[j]])
	})

	for _, id := range order {
		meta := rc.metas[id]
		need := rc.need(id, delta)
		type scored struct {
			c      candidate
			cost   float64
			shared int
			tie    float64
		}
		scoredCands := make([]scored, 0, len(rc.cands[id]))
		for _, c := range rc.cands[id] {
			cost := costs.MCost(c.site) * float64(meta.ChunkSize)
			if !accessed[c.site] {
				cost += costs.OCost(c.site)
			}
			tie := float64(c.site)
			if rng != nil {
				tie = rng.Float64()
			}
			scoredCands = append(scoredCands, scored{c: c, cost: cost, shared: shared[c.site], tie: tie})
		}
		sort.Slice(scoredCands, func(i, j int) bool {
			if scoredCands[i].cost != scoredCands[j].cost {
				return scoredCands[i].cost < scoredCands[j].cost
			}
			if scoredCands[i].shared != scoredCands[j].shared {
				return scoredCands[i].shared > scoredCands[j].shared
			}
			return scoredCands[i].tie < scoredCands[j].tie
		})
		for _, sc := range scoredCands[:need] {
			plan.Add(sc.c.site, sc.c.ref)
			accessed[sc.c.site] = true
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

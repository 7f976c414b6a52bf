package placement

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ecstore/internal/model"
)

// testState builds a small system: blocks placed across sites with RS(k,r).
func makeMeta(id model.BlockID, k, r int, chunkSize int64, sites ...model.SiteID) *model.BlockMeta {
	return &model.BlockMeta{
		ID:        id,
		Scheme:    model.SchemeErasure,
		K:         k,
		R:         r,
		Size:      chunkSize * int64(k),
		ChunkSize: chunkSize,
		Sites:     sites,
	}
}

func uniformCosts(o, m float64) *model.SiteCosts {
	return &model.SiteCosts{DefaultO: o, DefaultM: m}
}

func TestPlanCost(t *testing.T) {
	metas := map[model.BlockID]*model.BlockMeta{
		"a": makeMeta("a", 2, 1, 100, 1, 2, 3),
	}
	plan := model.NewAccessPlan()
	plan.Add(1, model.ChunkRef{Block: "a", Chunk: 0})
	plan.Add(2, model.ChunkRef{Block: "a", Chunk: 1})
	costs := uniformCosts(5, 0.01)
	// 2 sites * 5 + 2 chunks * 0.01*100 = 10 + 2 = 12.
	if got := PlanCost(plan, metas, costs); math.Abs(got-12) > 1e-9 {
		t.Fatalf("PlanCost = %v, want 12", got)
	}
}

func TestRandomPlanValidAndRandom(t *testing.T) {
	metas := map[model.BlockID]*model.BlockMeta{
		"a": makeMeta("a", 2, 2, 100, 1, 2, 3, 4),
		"b": makeMeta("b", 2, 2, 100, 2, 3, 4, 5),
	}
	req := PlanRequest{Metas: metas}
	rng := rand.New(rand.NewSource(1))
	distinct := make(map[string]bool)
	for i := 0; i < 20; i++ {
		plan, err := RandomPlan(req, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidatePlan(plan, metas, 0); err != nil {
			t.Fatalf("invalid random plan: %v", err)
		}
		key := ""
		for _, s := range plan.SortedSites() {
			key += string(rune('A' + int(s)))
		}
		distinct[key] = true
	}
	if len(distinct) < 2 {
		t.Fatal("random planner produced identical plans every time")
	}
}

func TestRandomPlanInfeasible(t *testing.T) {
	metas := map[model.BlockID]*model.BlockMeta{
		"a": makeMeta("a", 2, 1, 100, 1, 2, 3),
	}
	avail := func(s model.SiteID) bool { return s == 1 } // only 1 chunk reachable
	_, err := RandomPlan(PlanRequest{Metas: metas, Available: avail}, rand.New(rand.NewSource(1)))
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestGreedyPlanPrefersCoLocation(t *testing.T) {
	// Blocks a and b overlap on sites 1 and 2; greedy should access
	// exactly those two sites rather than spreading to 3..6.
	metas := map[model.BlockID]*model.BlockMeta{
		"a": makeMeta("a", 2, 1, 100, 1, 2, 3),
		"b": makeMeta("b", 2, 1, 100, 1, 2, 6),
	}
	plan, err := GreedyPlan(PlanRequest{Metas: metas}, uniformCosts(5, 0.001), rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePlan(plan, metas, 0); err != nil {
		t.Fatal(err)
	}
	if got := plan.SitesAccessed(); got != 2 {
		t.Fatalf("greedy accessed %d sites, want 2 (plan %+v)", got, plan.Reads)
	}
}

func TestGreedyPlanAvoidsExpensiveSite(t *testing.T) {
	metas := map[model.BlockID]*model.BlockMeta{
		"a": makeMeta("a", 2, 1, 100, 1, 2, 3),
	}
	costs := &model.SiteCosts{
		O:        map[model.SiteID]float64{3: 100},
		DefaultO: 5, DefaultM: 0.001,
	}
	plan, err := GreedyPlan(PlanRequest{Metas: metas}, costs, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, hit := plan.Reads[3]; hit {
		t.Fatalf("greedy used overloaded site 3: %+v", plan.Reads)
	}
}

func TestExactPlanOptimal(t *testing.T) {
	metas := map[model.BlockID]*model.BlockMeta{
		"a": makeMeta("a", 2, 2, 100, 1, 2, 3, 4),
		"b": makeMeta("b", 2, 2, 100, 3, 4, 5, 6),
	}
	costs := uniformCosts(5, 0.001)
	plan, err := ExactPlan(PlanRequest{Metas: metas}, costs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePlan(plan, metas, 0); err != nil {
		t.Fatal(err)
	}
	// Optimal: read both blocks from sites 3 and 4 only.
	if got := plan.SitesAccessed(); got != 2 {
		t.Fatalf("exact plan accessed %d sites, want 2: %+v", got, plan.Reads)
	}
	_, want := bruteForcePlan(buildCandidates(metas, nil), costs, 0)
	if got := PlanCost(plan, metas, costs); math.Abs(got-want) > 1e-9 {
		t.Fatalf("site-subset cost %v != brute-force cost %v", got, want)
	}
}

func TestExactPlanRespectsAvailability(t *testing.T) {
	metas := map[model.BlockID]*model.BlockMeta{
		"a": makeMeta("a", 2, 2, 100, 1, 2, 3, 4),
	}
	avail := func(s model.SiteID) bool { return s != 3 && s != 4 }
	plan, err := ExactPlan(PlanRequest{Metas: metas, Available: avail}, uniformCosts(5, 0.001))
	if err != nil {
		t.Fatal(err)
	}
	for site := range plan.Reads {
		if site == 3 || site == 4 {
			t.Fatalf("plan used unavailable site %d", site)
		}
	}
}

func TestExactPlanInfeasible(t *testing.T) {
	metas := map[model.BlockID]*model.BlockMeta{
		"a": makeMeta("a", 2, 1, 100, 1, 2, 3),
	}
	avail := func(s model.SiteID) bool { return s == 2 }
	if _, err := ExactPlan(PlanRequest{Metas: metas, Available: avail}, uniformCosts(5, 0.001)); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestLateBindingDelta(t *testing.T) {
	metas := map[model.BlockID]*model.BlockMeta{
		"a": makeMeta("a", 2, 2, 100, 1, 2, 3, 4),
	}
	costs := uniformCosts(5, 0.001)
	for _, delta := range []int{0, 1, 2} {
		plan, err := ExactPlan(PlanRequest{Metas: metas, Delta: delta}, costs)
		if err != nil {
			t.Fatalf("delta %d: %v", delta, err)
		}
		if got := plan.ChunksFor("a"); got != 2+delta {
			t.Fatalf("delta %d: plan fetches %d chunks, want %d", delta, got, 2+delta)
		}
		if err := ValidatePlan(plan, metas, delta); err != nil {
			t.Fatalf("delta %d: %v", delta, err)
		}
	}
	// Delta beyond available chunks is capped.
	plan, err := ExactPlan(PlanRequest{Metas: metas, Delta: 5}, costs)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.ChunksFor("a"); got != 4 {
		t.Fatalf("capped delta: %d chunks, want 4", got)
	}
}

// randomInstance draws numBlocks RS(2,1..2) blocks with random chunk sizes
// over numSites sites (each block on distinct random sites) and random
// per-site o_j and m_j.
func randomInstance(r *rand.Rand, numSites, numBlocks int) (map[model.BlockID]*model.BlockMeta, *model.SiteCosts) {
	metas := make(map[model.BlockID]*model.BlockMeta, numBlocks)
	for b := 0; b < numBlocks; b++ {
		k := 2
		rr := 1 + r.Intn(2)
		perm := r.Perm(numSites)
		sites := make([]model.SiteID, k+rr)
		for c := range sites {
			sites[c] = model.SiteID(perm[c] + 1)
		}
		id := model.BlockID(string(rune('a' + b)))
		metas[id] = makeMeta(id, k, rr, int64(50+r.Intn(200)), sites...)
	}
	costs := &model.SiteCosts{
		O:        map[model.SiteID]float64{},
		M:        map[model.SiteID]float64{},
		DefaultO: 5, DefaultM: 0.01,
	}
	for s := 1; s <= numSites; s++ {
		costs.O[model.SiteID(s)] = 1 + 10*r.Float64()
		costs.M[model.SiteID(s)] = 0.001 + 0.02*r.Float64()
	}
	return metas, costs
}

// bruteForcePlan is the tests' independent oracle for Equation 4, taken
// straight from Equations 1-3: it tries every per-block choice of need
// candidates, prices each resulting plan with PlanCost, and returns the
// cheapest; among plans of equal cost (within a relative 1e-9) it keeps
// the one whose accessed-site set, as a bit set over rc.sites, is lowest.
func bruteForcePlan(rc *requestCandidates, costs *model.SiteCosts, delta int) (*model.AccessPlan, float64) {
	bit := make(map[model.SiteID]uint64, len(rc.sites))
	for i, s := range rc.sites {
		bit[s] = 1 << i
	}
	var (
		best     *model.AccessPlan
		bestCost float64
		bestMask uint64
		chosen   []candidate
	)
	var block func(bi int)
	block = func(bi int) {
		if bi == len(rc.blocks) {
			plan := model.NewAccessPlan()
			var mask uint64
			for _, c := range chosen {
				plan.Add(c.site, c.ref)
				mask |= bit[c.site]
			}
			cost := PlanCost(plan, rc.metas, costs)
			tol := 1e-9 * math.Abs(bestCost)
			if best == nil || cost < bestCost-tol || cost <= bestCost+tol && mask < bestMask {
				best, bestCost, bestMask = plan, cost, mask
			}
			return
		}
		cands := rc.cands[rc.blocks[bi]]
		var pick func(from, left int)
		pick = func(from, left int) {
			if left == 0 {
				block(bi + 1)
				return
			}
			for i := from; i <= len(cands)-left; i++ {
				chosen = append(chosen, cands[i])
				pick(i+1, left-1)
				chosen = chosen[:len(chosen)-1]
			}
		}
		pick(0, rc.need(rc.blocks[bi], delta))
	}
	block(0)
	return best, bestCost
}

// TestExactPlanMatchesBruteForceProperty is the core solver correctness
// property: on random small instances, with and without late binding, an
// availability filter and all-equal costs (where many site sets tie), the
// site-subset plan is valid, costs what the brute-force oracle costs, and
// accesses the same (lowest optimal) site set.
func TestExactPlanMatchesBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		numSites := 4 + r.Intn(5) // 4..8
		metas, costs := randomInstance(r, numSites, 1+r.Intn(3))
		if r.Intn(2) == 0 {
			costs = uniformCosts(5, 0.001)
		}
		delta := r.Intn(2)
		var avail func(model.SiteID) bool
		if r.Intn(2) == 0 {
			down := model.SiteID(1 + r.Intn(numSites))
			avail = func(s model.SiteID) bool { return s != down }
		}
		req := PlanRequest{Metas: metas, Delta: delta, Available: avail}

		rc := buildCandidates(metas, avail)
		plan, err := ExactPlan(req, costs)
		if errors.Is(err, ErrInfeasible) {
			return !rc.feasible()
		}
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		oracle, want := bruteForcePlan(rc, costs, delta)
		if got := PlanCost(plan, metas, costs); math.Abs(got-want) > 1e-9*want {
			t.Logf("seed %d: site-subset cost %v, brute-force cost %v", seed, got, want)
			return false
		}
		if !slices.Equal(plan.SortedSites(), oracle.SortedSites()) {
			t.Logf("seed %d: site-subset sites %v, brute-force sites %v", seed, plan.SortedSites(), oracle.SortedSites())
			return false
		}
		// ValidatePlan counts k+delta against every chunk, reachable or
		// not, so the surplus is checked here against the reachable ones.
		if err := ValidatePlan(plan, metas, 0); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for _, id := range rc.blocks {
			if got := plan.ChunksFor(id); got != rc.need(id, delta) {
				t.Logf("seed %d: block %s reads %d chunks, want %d", seed, id, got, rc.need(id, delta))
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestExactPlanLargeRequest: the search is exact beyond 14 sites (the
// straggler-scan shape over 15-18 sites matches the brute force's 1,024
// selections), and where it runs out of nodes (32 all-equal sites, where
// countless site sets tie) ExactPlan reports errNotExact, ExactCost falls
// back to greedy's cost, and a planner serves and caches its greedy plan.
func TestExactPlanLargeRequest(t *testing.T) {
	// Five round-robin blocks cover every site.
	for numSites := 15; numSites <= 18; numSites++ {
		req, costs := scanRequest(5, numSites)
		metas := req.Metas
		rc := buildCandidates(metas, nil)
		if len(rc.sites) != numSites {
			t.Fatalf("instance spans %d sites, want %d", len(rc.sites), numSites)
		}
		cost, exact := ExactCost(metas, costs, nil, 1)
		if !exact {
			t.Fatalf("%d sites: ExactCost is not exact", numSites)
		}
		plan, err := ExactPlan(req, costs)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidatePlan(plan, metas, 1); err != nil {
			t.Fatal(err)
		}
		_, want := bruteForcePlan(rc, costs, 1)
		if got := PlanCost(plan, metas, costs); math.Abs(got-want) > 1e-9*want || math.Abs(cost-want) > 1e-9*want {
			t.Fatalf("%d sites: ExactPlan cost %v, ExactCost %v, brute force %v", numSites, got, cost, want)
		}
	}

	req, _ := scanRequest(8, 32)
	costs := uniformCosts(5, 0.001)
	if _, err := ExactPlan(req, costs); !errors.Is(err, errNotExact) {
		t.Fatalf("32 equal sites: err = %v, want errNotExact", err)
	}
	greedy := greedyPlan(buildCandidates(req.Metas, nil), costs, 1, nil)
	cost, exact := ExactCost(req.Metas, costs, nil, 1)
	if want := PlanCost(greedy, req.Metas, costs); exact || cost != want {
		t.Fatalf("ExactCost = %v, %v; want greedy's %v, false", cost, exact, want)
	}
	// The planner serves the miss greedily and caches that plan, so the
	// repeat is a hit and runs no second search.
	p := NewPlanner(PlannerConfig{Strategy: StrategyCost, Delta: 1, Seed: 1})
	first, err := p.Plan(req, costs)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Greedy != 1 || st.Exact != 0 {
		t.Fatalf("first plan: stats = %+v, want one greedy miss", st)
	}
	cached, err := p.Plan(req, costs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cached.SortedSites(), first.SortedSites()) || cached.ChunkCount() != first.ChunkCount() {
		t.Fatalf("cached plan %v differs from the greedy plan %v", cached.Reads, first.Reads)
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 || st.Greedy != 1 || st.Exact != 0 {
		t.Fatalf("stats = %+v, want one greedy miss then one hit", st)
	}
}

// scanRequest has the straggler-scan request shape: nBlocks RS(2,2)
// blocks of 50 KB chunks laid round-robin over numSites sites, with
// random per-site costs.
func scanRequest(nBlocks, numSites int) (PlanRequest, *model.SiteCosts) {
	r := rand.New(rand.NewSource(int64(numSites)))
	_, costs := randomInstance(r, numSites, 0)
	metas := make(map[model.BlockID]*model.BlockMeta, nBlocks)
	for b := 0; b < nBlocks; b++ {
		sites := make([]model.SiteID, 4)
		for c := range sites {
			sites[c] = model.SiteID((b*4+c)%numSites + 1)
		}
		id := model.BlockID(fmt.Sprintf("blk-%d", b))
		metas[id] = makeMeta(id, 2, 2, 50_000, sites...)
	}
	return PlanRequest{Metas: metas, Delta: 1}, costs
}

// TestExactPlanAllocs guards the exact solve's allocations on the
// straggler-scan shape (8 blocks over 6 sites), where every plan-cache
// miss runs one solve on the request's own goroutine.
func TestExactPlanAllocs(t *testing.T) {
	req, costs := scanRequest(8, 6)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ExactPlan(req, costs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 300 {
		t.Fatalf("ExactPlan made %.0f allocs, want < 300", allocs)
	}
}

func BenchmarkExactPlan(b *testing.B) {
	for _, sites := range []int{6, 14, 32} {
		req, costs := scanRequest(8, sites)
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ExactPlan(req, costs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestGreedyNeverBeatsExactProperty: greedy cost is an upper bound on the
// exact optimum.
func TestGreedyNeverBeatsExactProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		metas := map[model.BlockID]*model.BlockMeta{
			"a": makeMeta("a", 2, 2, 100,
				model.SiteID(r.Intn(4)+1), model.SiteID(r.Intn(4)+5), 9, 10),
			"b": makeMeta("b", 2, 2, 100,
				model.SiteID(r.Intn(4)+1), model.SiteID(r.Intn(4)+5), 11, 12),
		}
		costs := uniformCosts(5, 0.001)
		gp, err := GreedyPlan(PlanRequest{Metas: metas}, costs, r)
		if err != nil {
			return false
		}
		want, _ := ExactCost(metas, costs, nil, 0)
		return PlanCost(gp, metas, costs) >= want-1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestValidatePlanCatchesBadPlans(t *testing.T) {
	metas := map[model.BlockID]*model.BlockMeta{
		"a": makeMeta("a", 2, 1, 100, 1, 2, 3),
	}
	// Missing chunks.
	p1 := model.NewAccessPlan()
	p1.Add(1, model.ChunkRef{Block: "a", Chunk: 0})
	if err := ValidatePlan(p1, metas, 0); err == nil {
		t.Fatal("under-filled plan validated")
	}
	// Wrong site.
	p2 := model.NewAccessPlan()
	p2.Add(9, model.ChunkRef{Block: "a", Chunk: 0})
	p2.Add(2, model.ChunkRef{Block: "a", Chunk: 1})
	if err := ValidatePlan(p2, metas, 0); err == nil {
		t.Fatal("wrong-site plan validated")
	}
	// Duplicate chunk.
	p3 := model.NewAccessPlan()
	p3.Add(1, model.ChunkRef{Block: "a", Chunk: 0})
	p3.Add(1, model.ChunkRef{Block: "a", Chunk: 0})
	if err := ValidatePlan(p3, metas, 0); err == nil {
		t.Fatal("duplicate-chunk plan validated")
	}
	// Unknown block.
	p4 := model.NewAccessPlan()
	p4.Add(1, model.ChunkRef{Block: "zz", Chunk: 0})
	if err := ValidatePlan(p4, metas, 0); err == nil {
		t.Fatal("unknown-block plan validated")
	}
	// Chunk id out of range.
	p5 := model.NewAccessPlan()
	p5.Add(1, model.ChunkRef{Block: "a", Chunk: 7})
	if err := ValidatePlan(p5, metas, 0); err == nil {
		t.Fatal("out-of-range chunk validated")
	}
	var pe *PlanError
	err := ValidatePlan(p5, metas, 0)
	if !errors.As(err, &pe) {
		t.Fatalf("error type = %T, want *PlanError", err)
	}
	if pe.Error() == "" {
		t.Fatal("empty PlanError message")
	}
}

func TestStrategyStrings(t *testing.T) {
	if StrategyRandom.String() != "random" || StrategyCost.String() != "cost" {
		t.Fatal("Strategy.String mismatch")
	}
}

func TestPlanRequestWithout(t *testing.T) {
	metas := map[model.BlockID]*model.BlockMeta{
		"a": makeMeta("a", 2, 1, 100, 1, 2, 3),
		"b": makeMeta("b", 2, 1, 100, 2, 3, 4),
		"c": makeMeta("c", 2, 1, 100, 3, 4, 5),
	}
	req := PlanRequest{Metas: metas}

	got := req.Without([]model.BlockID{"b", "missing"})
	if len(got.Metas) != 2 || got.Metas["b"] != nil {
		t.Fatalf("Without kept %v", got.Metas)
	}
	if got.Metas["a"] != metas["a"] || got.Metas["c"] != metas["c"] {
		t.Fatal("Without must keep surviving metas")
	}
	// The receiver's map is untouched: callers strip cache hits from a
	// request that may still be replanned with the full set elsewhere.
	if len(req.Metas) != 3 {
		t.Fatalf("Without mutated the receiver: %v", req.Metas)
	}
	// Stripping nothing returns the request unchanged, same map.
	same := req.Without(nil)
	if len(same.Metas) != 3 {
		t.Fatal("empty Without changed the request")
	}
}

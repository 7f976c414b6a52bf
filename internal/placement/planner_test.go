package placement

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
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
	plan, err := ExactPlan(PlanRequest{Metas: metas}, costs, 0)
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
	oracle, err := ilpPlan(buildCandidates(metas, nil), costs, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := PlanCost(plan, metas, costs), PlanCost(oracle, metas, costs); math.Abs(got-want) > 1e-6 {
		t.Fatalf("site-subset cost %v != ILP cost %v", got, want)
	}
}

func TestExactPlanRespectsAvailability(t *testing.T) {
	metas := map[model.BlockID]*model.BlockMeta{
		"a": makeMeta("a", 2, 2, 100, 1, 2, 3, 4),
	}
	avail := func(s model.SiteID) bool { return s != 3 && s != 4 }
	plan, err := ExactPlan(PlanRequest{Metas: metas, Available: avail}, uniformCosts(5, 0.001), 0)
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
	if _, err := ExactPlan(PlanRequest{Metas: metas, Available: avail}, uniformCosts(5, 0.001), 0); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestLateBindingDelta(t *testing.T) {
	metas := map[model.BlockID]*model.BlockMeta{
		"a": makeMeta("a", 2, 2, 100, 1, 2, 3, 4),
	}
	costs := uniformCosts(5, 0.001)
	for _, delta := range []int{0, 1, 2} {
		plan, err := ExactPlan(PlanRequest{Metas: metas, Delta: delta}, costs, 0)
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
	plan, err := ExactPlan(PlanRequest{Metas: metas, Delta: 5}, costs, 0)
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

// TestExactPlanMatchesILPProperty is the core solver correctness property:
// on random small instances, with and without late binding and an
// availability filter, the site-subset plan costs exactly what the ILP
// formulation of Equation 4 (solved independently by branch and bound)
// costs, and both plans are valid.
func TestExactPlanMatchesILPProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		numSites := 4 + r.Intn(5) // 4..8
		metas, costs := randomInstance(r, numSites, 1+r.Intn(3))
		delta := r.Intn(2)
		var avail func(model.SiteID) bool
		if r.Intn(2) == 0 {
			down := model.SiteID(1 + r.Intn(numSites))
			avail = func(s model.SiteID) bool { return s != down }
		}
		req := PlanRequest{Metas: metas, Delta: delta, Available: avail}

		rc := buildCandidates(metas, avail)
		plan, err := ExactPlan(req, costs, 0)
		if errors.Is(err, ErrInfeasible) {
			return !rc.feasible()
		}
		oracle, oerr := ilpPlan(rc, costs, delta, 20000)
		if err != nil || oerr != nil {
			t.Logf("seed %d: ExactPlan err %v, ILP err %v", seed, err, oerr)
			return false
		}
		// ValidatePlan counts k+delta against every chunk, reachable or
		// not, so the surplus is checked here against the reachable ones.
		for _, p := range []*model.AccessPlan{plan, oracle} {
			if err := ValidatePlan(p, metas, 0); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			for _, id := range rc.blocks {
				if got := p.ChunksFor(id); got != rc.need(id, delta) {
					t.Logf("seed %d: block %s reads %d chunks, want %d", seed, id, got, rc.need(id, delta))
					return false
				}
			}
			for site := range p.Reads {
				if avail != nil && !avail(site) {
					t.Logf("seed %d: plan reads unavailable site %d", seed, site)
					return false
				}
			}
		}
		got, want := PlanCost(plan, metas, costs), PlanCost(oracle, metas, costs)
		if math.Abs(got-want) > 1e-6 {
			t.Logf("seed %d: site-subset cost %v, ILP cost %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestExactPlanLargeRequestUsesILP: a request spanning more than
// bruteForceMaxSites sites is beyond the site-subset search, so ExactPlan
// solves it with the ILP; the plan must be valid and no costlier than
// greedy's.
func TestExactPlanLargeRequestUsesILP(t *testing.T) {
	// Five round-robin blocks cover every site.
	for numSites := 15; numSites <= 18; numSites++ {
		req, costs := scanRequest(5, numSites)
		metas := req.Metas
		rc := buildCandidates(metas, nil)
		if len(rc.sites) <= bruteForceMaxSites {
			t.Fatalf("instance spans %d sites, want > %d", len(rc.sites), bruteForceMaxSites)
		}
		if _, exact := ExactCost(metas, costs, nil, 1); exact {
			t.Fatal("ExactCost claims exactness beyond the site-subset bound")
		}
		plan, err := ExactPlan(req, costs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidatePlan(plan, metas, 1); err != nil {
			t.Fatal(err)
		}
		greedy := greedyPlan(rc, costs, 1, nil)
		if got, g := PlanCost(plan, metas, costs), PlanCost(greedy, metas, costs); got > g+1e-9 {
			t.Fatalf("ILP plan cost %v > greedy %v", got, g)
		}
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

// TestExactPlanAllocs guards the background solve's cost on the
// straggler-scan shape (8 blocks over 6 sites): the ILP it replaced made
// about 1,900 allocations here.
func TestExactPlanAllocs(t *testing.T) {
	req, costs := scanRequest(8, 6)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := ExactPlan(req, costs, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 300 {
		t.Fatalf("ExactPlan made %.0f allocs, want < 300", allocs)
	}
}

func BenchmarkExactPlan(b *testing.B) {
	for _, sites := range []int{6, 14} {
		req, costs := scanRequest(8, sites)
		b.Run(fmt.Sprintf("sites=%d", sites), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ExactPlan(req, costs, 0); err != nil {
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
	if SourceCache.String() != "cache" || SourceGreedy.String() != "greedy" ||
		SourceExact.String() != "exact" || SourceRandom.String() != "random" {
		t.Fatal("PlanSource.String mismatch")
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

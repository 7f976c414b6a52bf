package placement

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"ecstore/internal/model"
)

func twoBlockRequest() map[model.BlockID]*model.BlockMeta {
	return map[model.BlockID]*model.BlockMeta{
		"a": makeMeta("a", 2, 2, 100, 1, 2, 3, 4),
		"b": makeMeta("b", 2, 2, 100, 3, 4, 5, 6),
	}
}

// greedyTrapRequest is a request the greedy heuristic plans badly: block a
// takes its two cheapest chunks (sites 1 and 2), so block b then opens two
// more sites, where the optimum reads both blocks from three.
func greedyTrapRequest() (map[model.BlockID]*model.BlockMeta, *model.SiteCosts) {
	metas := map[model.BlockID]*model.BlockMeta{
		"a": makeMeta("a", 2, 1, 100, 1, 2, 3),
		"b": makeMeta("b", 2, 1, 100, 3, 4, 5),
	}
	costs := &model.SiteCosts{
		M:        map[model.SiteID]float64{1: 0.001, 2: 0.001},
		DefaultO: 5, DefaultM: 0.002,
	}
	return metas, costs
}

func TestPlannerCacheMissThenHit(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyCost, Seed: 1})
	metas, costs := greedyTrapRequest()
	want, exact := ExactCost(metas, costs, nil, 0)
	greedy, err := GreedyPlan(PlanRequest{Metas: metas}, costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !exact || PlanCost(greedy, metas, costs) <= want {
		t.Fatalf("greedy cost %v does not exceed the optimum %v (exact=%v)", PlanCost(greedy, metas, costs), want, exact)
	}

	plan1, err := p.Plan(PlanRequest{Metas: metas}, costs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePlan(plan1, metas, 0); err != nil {
		t.Fatal(err)
	}
	// The miss is solved exactly on the spot.
	if got := PlanCost(plan1, metas, costs); math.Abs(got-want) > 1e-9*want {
		t.Fatalf("first plan cost %v, want the exact optimum %v", got, want)
	}
	if st := p.Stats(); st.Misses != 1 || st.Exact != 1 || st.Greedy != 0 {
		t.Fatalf("after the miss stats = %+v", st)
	}

	plan2, err := p.Plan(PlanRequest{Metas: metas}, costs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plan2.SortedSites(), plan1.SortedSites()) || plan2.ChunkCount() != plan1.ChunkCount() {
		t.Fatalf("cached plan %v differs from the miss's plan %v", plan2.Reads, plan1.Reads)
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Exact != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate())
	}
}

func TestPlannerLimitExact(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyCost, Seed: 1})
	costs := uniformCosts(5, 0.001)
	single := func(id model.BlockID) PlanRequest {
		return PlanRequest{Metas: map[model.BlockID]*model.BlockMeta{id: makeMeta(id, 2, 2, 100, 1, 2, 3, 4)}}
	}

	// Budget 0: the miss is served greedily, and the greedy plan is
	// cached, so a repeat is a hit.
	p.LimitExact(0)
	if _, err := p.Plan(single("a"), costs); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(single("a"), costs); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Misses != 1 || st.Hits != 1 || st.Greedy != 1 || st.Exact != 0 {
		t.Fatalf("budget 0: stats = %+v", st)
	}

	// Budget 1: the next distinct miss is exact, the one after greedy.
	p.LimitExact(1)
	if _, err := p.Plan(single("b"), costs); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Exact != 1 || st.Greedy != 1 {
		t.Fatalf("budget 1, first miss: stats = %+v", st)
	}
	if _, err := p.Plan(single("c"), costs); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Misses != 3 || st.Exact != 1 || st.Greedy != 2 {
		t.Fatalf("budget 1, second miss: stats = %+v", st)
	}
}

// TestPlannerConcurrent plans the same and distinct requests from several
// goroutines (run it with -race): every call counts as exactly one hit or
// one miss, and every plan is valid.
func TestPlannerConcurrent(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyCost, Delta: 1, Seed: 1})
	costs := uniformCosts(6, 0.001)
	const workers, calls = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				// Even calls share one request; odd ones cycle over
				// per-worker requests.
				id := model.BlockID("shared")
				if i%2 == 1 {
					id = model.BlockID(fmt.Sprintf("w%d-%d", w, i%5))
				}
				metas := map[model.BlockID]*model.BlockMeta{id: makeMeta(id, 2, 2, 100, 1, 2, 3, 4, 5)}
				plan, err := p.Plan(PlanRequest{Metas: metas}, costs)
				if err == nil {
					err = ValidatePlan(plan, metas, 1)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Hits+st.Misses != workers*calls {
		t.Fatalf("hits %d + misses %d != %d calls", st.Hits, st.Misses, workers*calls)
	}
	if st.Exact+st.Greedy != st.Misses || st.Greedy != 0 {
		t.Fatalf("stats = %+v, want every miss solved exactly", st)
	}
}

func TestPlannerVersionChangeInvalidates(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyCost, Seed: 1})
	costs := uniformCosts(5, 0.001)
	metas := twoBlockRequest()

	if _, err := p.Plan(PlanRequest{Metas: metas}, costs); err != nil {
		t.Fatal(err)
	}
	// A chunk movement bumps the version; the old cached plan must not
	// be served for the new placement.
	metas["a"] = metas["a"].Clone()
	metas["a"].Sites[0] = 6
	metas["a"].Version++
	if _, err := p.Plan(PlanRequest{Metas: metas}, costs); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("stale plan served after placement change: %+v", st)
	}
}

func TestPlannerCachedPlanRevalidatedOnFailure(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyCost, Seed: 1})
	costs := uniformCosts(5, 0.001)
	metas := twoBlockRequest()

	if _, err := p.Plan(PlanRequest{Metas: metas}, costs); err != nil {
		t.Fatal(err)
	}
	// Pull the cached plan once to learn which sites it uses.
	cached, err := p.Plan(PlanRequest{Metas: metas}, costs)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 1 {
		t.Fatalf("expected a cache hit, stats = %+v", st)
	}
	deadSite := cached.SortedSites()[0]
	avail := func(s model.SiteID) bool { return s != deadSite }

	plan, err := p.Plan(PlanRequest{Metas: metas, Available: avail}, costs)
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("cache served a plan referencing a failed site: %+v", st)
	}
	if _, uses := plan.Reads[deadSite]; uses {
		t.Fatal("new plan uses the failed site")
	}
}

func TestPlannerRandomStrategy(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyRandom, Seed: 1})
	metas := twoBlockRequest()
	plan, err := p.Plan(PlanRequest{Metas: metas}, uniformCosts(5, 0.001))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePlan(plan, metas, 0); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Random != 1 || st.Hits+st.Misses != 0 {
		t.Fatalf("stats = %+v, want one random plan", st)
	}
}

func TestPlannerDeltaAppliedFromConfig(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyCost, Delta: 1, Seed: 1})
	metas := twoBlockRequest()
	plan, err := p.Plan(PlanRequest{Metas: metas}, uniformCosts(5, 0.001))
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.ChunksFor("a"); got != 3 {
		t.Fatalf("late-binding plan fetches %d chunks for a, want 3", got)
	}
}

func TestPlannerCacheEviction(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyCost, CacheSize: 1, Seed: 1})
	costs := uniformCosts(5, 0.001)

	metasA := map[model.BlockID]*model.BlockMeta{"a": makeMeta("a", 2, 2, 100, 1, 2, 3, 4)}
	metasB := map[model.BlockID]*model.BlockMeta{"b": makeMeta("b", 2, 2, 100, 1, 2, 3, 4)}

	if _, err := p.Plan(PlanRequest{Metas: metasA}, costs); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(PlanRequest{Metas: metasB}, costs); err != nil {
		t.Fatal(err)
	}
	// metasA's entry was evicted by metasB (cache size 1).
	if _, err := p.Plan(PlanRequest{Metas: metasA}, costs); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 0 || st.Misses != 3 {
		t.Fatalf("evicted entry served from cache: %+v", st)
	}
}

func TestPlannerInvalidateAll(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyCost, Seed: 1})
	costs := uniformCosts(5, 0.001)
	metas := twoBlockRequest()
	if _, err := p.Plan(PlanRequest{Metas: metas}, costs); err != nil {
		t.Fatal(err)
	}
	p.InvalidateAll()
	if _, err := p.Plan(PlanRequest{Metas: metas}, costs); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("plan served from cache after InvalidateAll: %+v", st)
	}
}

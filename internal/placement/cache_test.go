package placement

import (
	"testing"

	"ecstore/internal/model"
)

func twoBlockRequest() map[model.BlockID]*model.BlockMeta {
	return map[model.BlockID]*model.BlockMeta{
		"a": makeMeta("a", 2, 2, 100, 1, 2, 3, 4),
		"b": makeMeta("b", 2, 2, 100, 3, 4, 5, 6),
	}
}

func TestPlannerCacheMissThenHit(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyCost, InlineExact: true, Seed: 1})
	defer p.Close()
	costs := uniformCosts(5, 0.001)
	metas := twoBlockRequest()

	plan1, src1, err := p.Plan(PlanRequest{Metas: metas}, costs)
	if err != nil {
		t.Fatal(err)
	}
	if src1 != SourceGreedy {
		t.Fatalf("first plan source = %v, want greedy", src1)
	}
	if err := ValidatePlan(plan1, metas, 0); err != nil {
		t.Fatal(err)
	}

	plan2, src2, err := p.Plan(PlanRequest{Metas: metas}, costs)
	if err != nil {
		t.Fatal(err)
	}
	if src2 != SourceCache {
		t.Fatalf("second plan source = %v, want cache", src2)
	}
	// With InlineExact the cached plan is the exact solution.
	want, _ := ExactCost(metas, costs, nil, 0)
	if got := PlanCost(plan2, metas, costs); got > want+1e-6 {
		t.Fatalf("cached plan cost %v > optimal %v", got, want)
	}

	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Exact != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate())
	}
}

func TestPlannerVersionChangeInvalidates(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyCost, InlineExact: true, Seed: 1})
	defer p.Close()
	costs := uniformCosts(5, 0.001)
	metas := twoBlockRequest()

	if _, _, err := p.Plan(PlanRequest{Metas: metas}, costs); err != nil {
		t.Fatal(err)
	}
	// A chunk movement bumps the version; the old cached plan must not
	// be served for the new placement.
	metas["a"] = metas["a"].Clone()
	metas["a"].Sites[0] = 6
	metas["a"].Version++
	_, src, err := p.Plan(PlanRequest{Metas: metas}, costs)
	if err != nil {
		t.Fatal(err)
	}
	if src == SourceCache {
		t.Fatal("stale plan served after placement change")
	}
}

func TestPlannerCachedPlanRevalidatedOnFailure(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyCost, InlineExact: true, Seed: 1})
	defer p.Close()
	costs := uniformCosts(5, 0.001)
	metas := twoBlockRequest()

	if _, _, err := p.Plan(PlanRequest{Metas: metas}, costs); err != nil {
		t.Fatal(err)
	}
	// Pull the cached plan once to learn which sites it uses.
	cached, src, err := p.Plan(PlanRequest{Metas: metas}, costs)
	if err != nil || src != SourceCache {
		t.Fatalf("expected cache hit, got %v err %v", src, err)
	}
	deadSite := cached.SortedSites()[0]
	avail := func(s model.SiteID) bool { return s != deadSite }

	plan, src, err := p.Plan(PlanRequest{Metas: metas, Available: avail}, costs)
	if err != nil {
		t.Fatal(err)
	}
	if src == SourceCache {
		t.Fatal("cache served a plan referencing a failed site")
	}
	if _, uses := plan.Reads[deadSite]; uses {
		t.Fatal("new plan uses the failed site")
	}
}

func TestPlannerRandomStrategy(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyRandom, Seed: 1})
	defer p.Close()
	metas := twoBlockRequest()
	plan, src, err := p.Plan(PlanRequest{Metas: metas}, uniformCosts(5, 0.001))
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceRandom {
		t.Fatalf("source = %v, want random", src)
	}
	if err := ValidatePlan(plan, metas, 0); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Random; got != 1 {
		t.Fatalf("random counter = %d", got)
	}
}

func TestPlannerBackgroundSolve(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyCost, InlineExact: false, Seed: 1})
	costs := uniformCosts(5, 0.001)
	metas := twoBlockRequest()
	if _, _, err := p.Plan(PlanRequest{Metas: metas}, costs); err != nil {
		t.Fatal(err)
	}
	p.Close() // waits for the background exact solve
	_, src, err := p.Plan(PlanRequest{Metas: metas}, costs)
	if err != nil {
		t.Fatal(err)
	}
	if src != SourceCache {
		t.Fatalf("after background solve source = %v, want cache", src)
	}
}

func TestPlannerDeltaAppliedFromConfig(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyCost, Delta: 1, InlineExact: true, Seed: 1})
	defer p.Close()
	metas := twoBlockRequest()
	plan, _, err := p.Plan(PlanRequest{Metas: metas}, uniformCosts(5, 0.001))
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.ChunksFor("a"); got != 3 {
		t.Fatalf("late-binding plan fetches %d chunks for a, want 3", got)
	}
}

func TestPlannerCacheEviction(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyCost, InlineExact: true, CacheSize: 1, Seed: 1})
	defer p.Close()
	costs := uniformCosts(5, 0.001)

	metasA := map[model.BlockID]*model.BlockMeta{"a": makeMeta("a", 2, 2, 100, 1, 2, 3, 4)}
	metasB := map[model.BlockID]*model.BlockMeta{"b": makeMeta("b", 2, 2, 100, 1, 2, 3, 4)}

	if _, _, err := p.Plan(PlanRequest{Metas: metasA}, costs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Plan(PlanRequest{Metas: metasB}, costs); err != nil {
		t.Fatal(err)
	}
	// metasA's entry was evicted by metasB (cache size 1).
	_, src, err := p.Plan(PlanRequest{Metas: metasA}, costs)
	if err != nil {
		t.Fatal(err)
	}
	if src == SourceCache {
		t.Fatal("evicted entry served from cache")
	}
}

func TestPlannerInvalidateAll(t *testing.T) {
	p := NewPlanner(PlannerConfig{Strategy: StrategyCost, InlineExact: true, Seed: 1})
	defer p.Close()
	costs := uniformCosts(5, 0.001)
	metas := twoBlockRequest()
	if _, _, err := p.Plan(PlanRequest{Metas: metas}, costs); err != nil {
		t.Fatal(err)
	}
	p.InvalidateAll()
	_, src, err := p.Plan(PlanRequest{Metas: metas}, costs)
	if err != nil {
		t.Fatal(err)
	}
	if src == SourceCache {
		t.Fatal("plan served from cache after InvalidateAll")
	}
}

package placement

import (
	"math/rand"
	"testing"

	"ecstore/internal/model"
	"ecstore/internal/stats"
)

// fakeCatalog implements CatalogView for tests.
type fakeCatalog struct {
	blocks map[model.BlockID]*model.BlockMeta
	sites  []model.SiteID
}

func (f *fakeCatalog) BlockMeta(id model.BlockID) (*model.BlockMeta, bool) {
	m, ok := f.blocks[id]
	return m, ok
}

func (f *fakeCatalog) Sites() []model.SiteID { return f.sites }

var _ CatalogView = (*fakeCatalog)(nil)

// co-located scenario: blocks a and b are co-accessed but share no sites;
// moving a chunk of a onto one of b's sites should score positively.
func coAccessEnv(t *testing.T) (MoverEnv, *fakeCatalog) {
	t.Helper()
	cat := &fakeCatalog{
		blocks: map[model.BlockID]*model.BlockMeta{
			"a": makeMeta("a", 2, 1, 100, 1, 2, 3),
			"b": makeMeta("b", 2, 1, 100, 4, 5, 6),
		},
		sites: []model.SiteID{1, 2, 3, 4, 5, 6, 7, 8},
	}
	co := stats.NewCoAccessTracker(100)
	for i := 0; i < 50; i++ {
		co.Record([]model.BlockID{"a", "b"})
	}
	loads := stats.NewLoadTracker()
	for _, s := range cat.sites {
		loads.Report(s, stats.SiteLoad{CPU: 0.5, IOBytesPerSec: 1000})
	}
	env := MoverEnv{
		Catalog:     cat,
		CoAccess:    co,
		Loads:       loads,
		Costs:       uniformCosts(5, 0.001),
		RequestRate: 100,
	}
	return env, cat
}

func TestAccessGainPositiveForCoLocation(t *testing.T) {
	env, cat := coAccessEnv(t)
	m := NewMover(MoverConfig{Seed: 1})
	meta := cat.blocks["a"]
	// Moving a's chunk 0 from site 1 to site 4 (where b lives) lets a
	// future {a,b} query touch one fewer site.
	gain := m.AccessGain(env, meta, 0, 4)
	if gain <= 0 {
		t.Fatalf("AccessGain = %v, want > 0", gain)
	}
	// Moving to an unrelated empty site brings no co-location benefit.
	neutral := m.AccessGain(env, meta, 0, 7)
	if neutral >= gain {
		t.Fatalf("unrelated move gain %v >= co-location gain %v", neutral, gain)
	}
}

func TestLoadGainFavorsUnloading(t *testing.T) {
	env, cat := coAccessEnv(t)
	// Make site 1 hot and site 7 idle.
	env.Loads.Report(1, stats.SiteLoad{CPU: 0.95, IOBytesPerSec: 100000})
	env.Loads.Report(7, stats.SiteLoad{CPU: 0.05, IOBytesPerSec: 10})
	m := NewMover(MoverConfig{Seed: 1})
	meta := cat.blocks["a"]
	gain := m.LoadGain(env, meta, 1, 7)
	if gain <= 0 {
		t.Fatalf("LoadGain hot->cold = %v, want > 0", gain)
	}
	harm := m.LoadGain(env, meta, 7, 1)
	if harm > 0 {
		t.Fatalf("LoadGain cold->hot = %v, want <= 0", harm)
	}
}

func TestSelectMovementPlanCoLocates(t *testing.T) {
	env, cat := coAccessEnv(t)
	m := NewMover(MoverConfig{Seed: 3, MaxCandidateBlocks: 4})
	plan, ok := m.SelectMovementPlan(env)
	if !ok {
		t.Fatal("no movement plan found")
	}
	if plan.Score <= 0 {
		t.Fatalf("plan score = %v, want > 0", plan.Score)
	}
	// The selected destination must not already hold a chunk of the block.
	meta := cat.blocks[plan.Block]
	if meta.SiteSet()[plan.To] {
		t.Fatalf("plan moves chunk onto a site already holding the block: %v", plan)
	}
	if meta.Sites[plan.Chunk] != plan.From {
		t.Fatalf("plan's From does not match current placement: %v", plan)
	}
}

func TestSelectMovementPlanRespectsAvailability(t *testing.T) {
	env, _ := coAccessEnv(t)
	// Only sites 1..3 (a's own) and 7 are available; b's sites are down,
	// so any co-location move must target site 7 or nothing.
	env.Available = func(s model.SiteID) bool { return s <= 3 || s == 7 }
	m := NewMover(MoverConfig{Seed: 3})
	plan, ok := m.SelectMovementPlan(env)
	if ok && plan.To != 7 {
		meta, _ := env.Catalog.BlockMeta(plan.Block)
		if meta.SiteSet()[plan.To] || !env.Available(plan.To) {
			t.Fatalf("plan targets unavailable/occupied site: %v", plan)
		}
	}
}

func TestSelectMovementPlanEmptyStats(t *testing.T) {
	cat := &fakeCatalog{blocks: map[model.BlockID]*model.BlockMeta{}, sites: []model.SiteID{1, 2}}
	env := MoverEnv{
		Catalog:  cat,
		CoAccess: stats.NewCoAccessTracker(10),
		Loads:    stats.NewLoadTracker(),
		Costs:    uniformCosts(5, 0.001),
	}
	m := NewMover(MoverConfig{Seed: 1})
	if _, ok := m.SelectMovementPlan(env); ok {
		t.Fatal("movement plan from empty stats")
	}
}

func TestSelectMovementPlanEarlyStopping(t *testing.T) {
	env, _ := coAccessEnv(t)
	m := NewMover(MoverConfig{Seed: 1, MaxEvaluations: 1})
	// With a budget of one evaluation the search must still terminate
	// and may return at most one scored plan.
	plan, ok := m.SelectMovementPlan(env)
	if ok && plan.Score <= 0 {
		t.Fatalf("early-stopped plan has score %v", plan.Score)
	}
}

func TestMoverConfigDefaults(t *testing.T) {
	cfg := MoverConfig{}.withDefaults()
	if cfg.W1 != DefaultW1 || cfg.W2 != DefaultW2 {
		t.Fatalf("default weights = (%v, %v)", cfg.W1, cfg.W2)
	}
	if cfg.MaxCandidateBlocks == 0 || cfg.MaxPartners == 0 || cfg.MaxDestinations == 0 || cfg.MaxEvaluations == 0 {
		t.Fatal("defaults not applied")
	}
	// Explicit weights are preserved.
	cfg2 := MoverConfig{W1: 2, W2: 0}.withDefaults()
	if cfg2.W1 != 2 || cfg2.W2 != 0 {
		t.Fatalf("explicit weights overridden: (%v, %v)", cfg2.W1, cfg2.W2)
	}
}

// TestMovementNeverViolatesFaultTolerance is a property over random
// system states: every selected movement plan targets a site without a
// chunk of the moved block.
func TestMovementNeverViolatesFaultTolerance(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		numSites := 6 + rng.Intn(6)
		sites := make([]model.SiteID, numSites)
		for i := range sites {
			sites[i] = model.SiteID(i + 1)
		}
		cat := &fakeCatalog{blocks: map[model.BlockID]*model.BlockMeta{}, sites: sites}
		co := stats.NewCoAccessTracker(200)
		loads := stats.NewLoadTracker()
		for _, s := range sites {
			loads.Report(s, stats.SiteLoad{CPU: rng.Float64(), IOBytesPerSec: 100 + 1000*rng.Float64()})
		}
		numBlocks := 3 + rng.Intn(5)
		var blockIDs []model.BlockID
		for b := 0; b < numBlocks; b++ {
			id := model.BlockID(string(rune('a' + b)))
			perm := rng.Perm(numSites)
			ss := make([]model.SiteID, 4)
			for c := range ss {
				ss[c] = sites[perm[c]]
			}
			cat.blocks[id] = makeMeta(id, 2, 2, 100, ss...)
			blockIDs = append(blockIDs, id)
		}
		for i := 0; i < 100; i++ {
			a := blockIDs[rng.Intn(len(blockIDs))]
			b := blockIDs[rng.Intn(len(blockIDs))]
			co.Record([]model.BlockID{a, b})
		}
		env := MoverEnv{Catalog: cat, CoAccess: co, Loads: loads, Costs: uniformCosts(5, 0.001), RequestRate: 50}
		m := NewMover(MoverConfig{Seed: seed})
		plan, ok := m.SelectMovementPlan(env)
		if !ok {
			continue
		}
		meta := cat.blocks[plan.Block]
		if meta.SiteSet()[plan.To] {
			t.Fatalf("seed %d: plan %v violates fault tolerance", seed, plan)
		}
		if meta.Sites[plan.Chunk] != plan.From {
			t.Fatalf("seed %d: plan %v has stale From", seed, plan)
		}
	}
}

// unconstrained is the rule of a new block in a cluster without zones,
// drains or failures: every site qualifies.
func unconstrained() *BlockRule { return Eligibility{}.ForBlock(nil, -1, 1) }

func TestPlacerRandomDistinct(t *testing.T) {
	p, err := NewPlacer(PlaceRandom, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	sites := []model.SiteID{1, 2, 3, 4, 5}
	got, err := p.Place(sites, 4, unconstrained())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[model.SiteID]bool{}
	for _, s := range got {
		if seen[s] {
			t.Fatalf("duplicate site %d in placement", s)
		}
		seen[s] = true
	}
}

func TestPlacerInsufficientSites(t *testing.T) {
	p, err := NewPlacer(PlaceRandom, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Place([]model.SiteID{1, 2}, 3, unconstrained()); err == nil {
		t.Fatal("accepted placement with too few sites")
	}
	if _, err := p.Place([]model.SiteID{1, 1, 1}, 2, unconstrained()); err == nil {
		t.Fatal("duplicates counted as distinct sites")
	}
	if _, err := p.Place([]model.SiteID{1}, 0, unconstrained()); err == nil {
		t.Fatal("accepted zero chunk count")
	}
}

func TestPlacerLoadAware(t *testing.T) {
	loads := stats.NewLoadTracker()
	loads.Report(1, stats.SiteLoad{CPU: 0.9})
	loads.Report(2, stats.SiteLoad{CPU: 0.9})
	loads.Report(3, stats.SiteLoad{CPU: 0.1})
	loads.Report(4, stats.SiteLoad{CPU: 0.1})
	p, err := NewPlacer(PlaceLoadAware, loads, 1)
	if err != nil {
		t.Fatal(err)
	}
	cold := 0
	for trial := 0; trial < 30; trial++ {
		got, err := p.Place([]model.SiteID{1, 2, 3, 4}, 2, unconstrained())
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range got {
			if s == 3 || s == 4 {
				cold++
			}
		}
	}
	if cold < 40 { // of 60 picks, the cold half should dominate
		t.Fatalf("load-aware placer picked cold sites only %d/60 times", cold)
	}
}

func TestPlacerLoadAwareRequiresTracker(t *testing.T) {
	if _, err := NewPlacer(PlaceLoadAware, nil, 1); err == nil {
		t.Fatal("load-aware placer accepted nil tracker")
	}
	if _, err := NewPlacer(PlaceStrategy(99), nil, 1); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if PlaceRandom.String() != "random" || PlaceLoadAware.String() != "load-aware" {
		t.Fatal("PlaceStrategy.String mismatch")
	}
}

func TestMinScoreSuppressesMarginalMoves(t *testing.T) {
	env, _ := coAccessEnv(t)
	// An absurdly high minimum score means no plan qualifies.
	m := NewMover(MoverConfig{Seed: 3, MinScoreFracOfAvgO: 1e9})
	if _, ok := m.SelectMovementPlan(env); ok {
		t.Fatal("marginal move selected despite threshold")
	}
}

func TestW2AdaptiveScaling(t *testing.T) {
	env, cat := coAccessEnv(t)
	meta := cat.blocks["a"]
	env.Loads.Report(1, stats.SiteLoad{CPU: 0.9, IOBytesPerSec: 100000})
	env.Loads.Report(7, stats.SiteLoad{CPU: 0.1, IOBytesPerSec: 100})

	fixed := NewMover(MoverConfig{W1: 0, W2: 1, Seed: 1})
	adaptive := NewMover(MoverConfig{W1: 0, W2: 1, W2Adaptive: true, Seed: 1})
	sFixed := fixed.Score(env, meta, 0, 1, 7)
	sAdaptive := adaptive.Score(env, meta, 0, 1, 7)
	// Adaptive scales by avg(o_j) (DefaultO = 5 here): 5x the fixed score.
	if sFixed == 0 {
		t.Skip("no load gain on this layout")
	}
	ratio := sAdaptive / sFixed
	if ratio < 4.9 || ratio > 5.1 {
		t.Fatalf("adaptive/fixed ratio = %v, want ~5", ratio)
	}
}

package sim

import (
	"math"
	"testing"

	"ecstore/internal/model"
	"ecstore/internal/placement"
	"ecstore/internal/workload"
)

// tinyParams returns a small, fast configuration for unit tests.
func tinyParams(seed int64) Params {
	p := DefaultParams(seed)
	p.NumSites = 8
	p.NumClients = 10
	p.TimelineBucket = 1
	return p
}

func runTiny(t *testing.T, p Params, opt Options, blocks int, warm, adapt, measure float64) *Result {
	t.Helper()
	c, err := New(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Populate(blocks, func(int) int64 { return 100 * 1024 }); err != nil {
		t.Fatal(err)
	}
	wl := workload.NewYCSBE(blocks, 10, 1.0)
	return c.Run(wl, warm, adapt, measure)
}

func TestSimCompletesRequests(t *testing.T) {
	res := runTiny(t, tinyParams(1), Options{}, 500, 1, 0, 3)
	if res.Requests == 0 {
		t.Fatal("no requests measured")
	}
	if res.Mean.Total() <= 0 {
		t.Fatalf("mean latency = %v", res.Mean.Total())
	}
	if res.Config != "EC" {
		t.Fatalf("config = %s", res.Config)
	}
	if res.StorageOverhead != 2.0 {
		t.Fatalf("overhead = %v", res.StorageOverhead)
	}
}

func TestSimDeterministic(t *testing.T) {
	a := runTiny(t, tinyParams(7), Options{Strategy: placement.StrategyCost}, 300, 1, 0, 2)
	b := runTiny(t, tinyParams(7), Options{Strategy: placement.StrategyCost}, 300, 1, 0, 2)
	if a.Requests != b.Requests {
		t.Fatalf("request counts differ: %d vs %d", a.Requests, b.Requests)
	}
	if math.Abs(a.Mean.Total()-b.Mean.Total()) > 1e-12 {
		t.Fatalf("mean latencies differ: %v vs %v", a.Mean.Total(), b.Mean.Total())
	}
	if a.Lambda != b.Lambda {
		t.Fatalf("λ differs: %v vs %v", a.Lambda, b.Lambda)
	}
}

func TestSimSeedChangesOutcome(t *testing.T) {
	a := runTiny(t, tinyParams(1), Options{}, 300, 1, 0, 2)
	b := runTiny(t, tinyParams(2), Options{}, 300, 1, 0, 2)
	if a.Requests == b.Requests && a.Mean.Total() == b.Mean.Total() {
		t.Fatal("different seeds produced identical results")
	}
}

func TestSimReplicationConfig(t *testing.T) {
	res := runTiny(t, tinyParams(3), Options{Scheme: model.SchemeReplicated}, 300, 1, 0, 2)
	if res.Config != "R" {
		t.Fatalf("config = %s", res.Config)
	}
	if res.Mean.Decode != 0 {
		t.Fatalf("replication decode = %v, want 0", res.Mean.Decode)
	}
	if res.StorageOverhead != 3.0 {
		t.Fatalf("overhead = %v", res.StorageOverhead)
	}
}

func TestSimLateBindingIssuesMoreVisits(t *testing.T) {
	base := runTiny(t, tinyParams(4), Options{}, 300, 1, 0, 2)
	lb := runTiny(t, tinyParams(4), Options{Delta: 1}, 300, 1, 0, 2)
	if lb.VisitsPerRequest <= base.VisitsPerRequest {
		t.Fatalf("LB visits %v <= base %v", lb.VisitsPerRequest, base.VisitsPerRequest)
	}
	if lb.Config != "EC+LB" {
		t.Fatalf("config = %s", lb.Config)
	}
}

func TestSimMoverMovesChunks(t *testing.T) {
	p := tinyParams(5)
	p.MoverInterval = 0.05
	res := runTiny(t, p, Options{Strategy: placement.StrategyCost, Mover: true}, 300, 1, 2, 2)
	if res.Config != "EC+C+M" {
		t.Fatalf("config = %s", res.Config)
	}
	if res.Moves == 0 {
		t.Fatal("mover executed no moves")
	}
}

// TestSimCostStrategyUsesCache: the plan cache hits, and the planner's
// exact-solve budget (ExactSolvesPerInterval, granted at start-up and at
// every stats tick) caps the exact solves while greedy serves the rest of
// the misses.
func TestSimCostStrategyUsesCache(t *testing.T) {
	p := tinyParams(6)
	res := runTiny(t, p, Options{Strategy: placement.StrategyCost}, 200, 1, 0, 3)
	st := res.Planner
	if st.Hits == 0 {
		t.Fatal("plan cache never hit")
	}
	if st.Exact == 0 {
		t.Fatal("no miss was solved exactly")
	}
	// 4 simulated seconds: the grant at start-up plus one per tick.
	if grants := int64(1 + 4/p.StatsInterval); st.Exact > grants*int64(p.ExactSolvesPerInterval) || st.Greedy == 0 {
		t.Fatalf("stats = %+v, want at most %d exact solves and some greedy ones", st, grants*int64(p.ExactSolvesPerInterval))
	}
	if st.Exact+st.Greedy != st.Misses {
		t.Fatalf("stats = %+v: exact + greedy != misses", st)
	}
}

func TestSimFailSites(t *testing.T) {
	p := tinyParams(8)
	c, err := New(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Populate(300, func(int) int64 { return 100 * 1024 }); err != nil {
		t.Fatal(err)
	}
	failed := c.FailSites(2)
	if len(failed) != 2 {
		t.Fatalf("failed = %v", failed)
	}
	wl := workload.NewYCSBE(300, 10, 1.0)
	res := c.Run(wl, 1, 0, 3)
	if res.Requests == 0 {
		t.Fatal("no requests completed with 2 failed sites")
	}
	// Failed sites served nothing.
	for _, f := range failed {
		if rate, ok := res.SiteReadRate[f]; ok && rate > 0 {
			t.Fatalf("failed site %d read rate %v", f, rate)
		}
	}
}

func TestSimTooFewSites(t *testing.T) {
	p := tinyParams(1)
	p.NumSites = 3
	if _, err := New(p, Options{}); err == nil { // k+r = 4 > 3
		t.Fatal("3-site RS(2,2) cluster accepted")
	}
}

func TestSimPopulateSizes(t *testing.T) {
	p := tinyParams(9)
	c, err := New(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := c.Populate(10, func(i int) int64 { return int64(1000 * (i + 1)) })
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 10 {
		t.Fatalf("populated %d blocks", len(ids))
	}
	meta, ok := c.catalog.BlockMeta(ids[4])
	if !ok {
		t.Fatal("block missing from catalog")
	}
	if meta.Size != 5000 {
		t.Fatalf("size = %d, want 5000", meta.Size)
	}
	if meta.ChunkSize != 2500 { // k=2
		t.Fatalf("chunk size = %d, want 2500", meta.ChunkSize)
	}
}

func TestOptionsName(t *testing.T) {
	cases := []struct {
		opt  Options
		want string
	}{
		{Options{Scheme: model.SchemeReplicated}, "R"},
		{Options{}, "EC"},
		{Options{Delta: 1}, "EC+LB"},
		{Options{Strategy: placement.StrategyCost}, "EC+C"},
		{Options{Strategy: placement.StrategyCost, Mover: true}, "EC+C+M"},
		{Options{Strategy: placement.StrategyCost, Mover: true, Delta: 1}, "EC+C+M+LB"},
	}
	for _, tc := range cases {
		if got := tc.opt.withDefaults().Name(); got != tc.want {
			t.Errorf("Name() = %s, want %s", got, tc.want)
		}
	}
}

func TestResultString(t *testing.T) {
	res := runTiny(t, tinyParams(10), Options{}, 200, 1, 0, 1)
	if res.String() == "" {
		t.Fatal("empty result string")
	}
	rates := res.SortedSiteRates()
	if len(rates) == 0 {
		t.Fatal("no site rates")
	}
	for i := 1; i < len(rates); i++ {
		if rates[i].Site < rates[i-1].Site {
			t.Fatal("site rates not sorted")
		}
	}
	table := FormatBreakdownTable([]*Result{res})
	if table == "" {
		t.Fatal("empty breakdown table")
	}
}

func TestSimDegradedPhasesSlowService(t *testing.T) {
	// With heavy degradation, mean latency must exceed the undegraded
	// baseline under the same seed and workload.
	base := tinyParams(11)
	base.DegradedEvery = 0 // disabled
	degraded := tinyParams(11)
	degraded.DegradedEvery = 2 // near-constant degradation
	degraded.DegradedMin = 1
	degraded.DegradedMax = 2
	degraded.DegradedFactor = 4

	a := runTiny(t, base, Options{}, 300, 1, 0, 3)
	b := runTiny(t, degraded, Options{}, 300, 1, 0, 3)
	if b.Mean.Total() <= a.Mean.Total() {
		t.Fatalf("degraded run (%v) not slower than baseline (%v)", b.Mean.Total(), a.Mean.Total())
	}
}

func TestSimMoverW2Override(t *testing.T) {
	p := tinyParams(12)
	p.MoverW2 = 2.5
	c, err := New(p, Options{Strategy: placement.StrategyCost, Mover: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Populate(200, func(int) int64 { return 1024 }); err != nil {
		t.Fatal(err)
	}
	// Construction with an override must not panic and runs normally.
	wl := workload.NewYCSBE(200, 5, 1.0)
	res := c.Run(wl, 0.5, 0.5, 1)
	if res.Requests == 0 {
		t.Fatal("no requests")
	}
}

func TestSimResourceUsage(t *testing.T) {
	p := tinyParams(13)
	c, err := New(p, Options{Strategy: placement.StrategyCost})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Populate(300, func(int) int64 { return 2048 }); err != nil {
		t.Fatal(err)
	}
	wl := workload.NewYCSBE(300, 5, 1.0)
	_ = c.Run(wl, 1, 0, 2)
	u := c.ResourceUsage()
	if u.StatsBytes <= 0 || u.TrackedBlocks <= 0 || u.WindowRequests <= 0 {
		t.Fatalf("stats usage = %+v", u)
	}
	if u.StatsReports <= 0 {
		t.Fatalf("no stats reports: %+v", u)
	}
	if u.CachedPlans <= 0 || u.PlannerBytes <= 0 {
		t.Fatalf("planner usage = %+v", u)
	}
}

func TestSimCacheServesHitsAndStaysDeterministic(t *testing.T) {
	opt := Options{Strategy: placement.StrategyCost, CacheBytes: 32 << 20}
	a := runTiny(t, tinyParams(9), opt, 300, 1, 0, 2)
	if a.Config != "EC+C+CACHE" {
		t.Fatalf("config = %s", a.Config)
	}
	if a.CacheHits == 0 {
		t.Fatal("zipfian workload produced no cache hits")
	}
	if a.CacheHitRatio() <= 0 || a.CacheHitRatio() > 1 {
		t.Fatalf("hit ratio = %v", a.CacheHitRatio())
	}
	if a.Cache.Bytes <= 0 || a.Cache.Bytes > 32<<20 {
		t.Fatalf("cache bytes = %d, want within budget", a.Cache.Bytes)
	}

	b := runTiny(t, tinyParams(9), opt, 300, 1, 0, 2)
	if a.Requests != b.Requests || a.CacheHits != b.CacheHits || a.CacheMisses != b.CacheMisses {
		t.Fatalf("cache run not deterministic: %d/%d/%d vs %d/%d/%d",
			a.Requests, a.CacheHits, a.CacheMisses, b.Requests, b.CacheHits, b.CacheMisses)
	}
	if math.Abs(a.Mean.Total()-b.Mean.Total()) > 1e-12 {
		t.Fatalf("mean latencies differ: %v vs %v", a.Mean.Total(), b.Mean.Total())
	}
}

func TestSimCacheLowersLatencyOnSkewedWorkload(t *testing.T) {
	base := runTiny(t, tinyParams(10), Options{Strategy: placement.StrategyCost}, 300, 1, 0, 3)
	cached := runTiny(t, tinyParams(10), Options{Strategy: placement.StrategyCost, CacheBytes: 32 << 20}, 300, 1, 0, 3)
	if cached.CacheHits == 0 {
		t.Fatal("no hits; comparison meaningless")
	}
	if cached.Mean.Total() >= base.Mean.Total() {
		t.Fatalf("cache did not lower mean latency: %.4f vs %.4f ms",
			cached.Mean.Total()*1000, base.Mean.Total()*1000)
	}
	if cached.Throughput <= base.Throughput {
		t.Fatalf("cache did not raise throughput: %.1f vs %.1f req/s",
			cached.Throughput, base.Throughput)
	}
}

func TestSimRangeReadsLowerRetrieveAndDecode(t *testing.T) {
	whole := runTiny(t, tinyParams(11), Options{}, 300, 1, 0, 3)
	ranged := runTiny(t, tinyParams(11), Options{RangeFraction: 1.0}, 300, 1, 0, 3)
	if ranged.Config != "EC+RANGE" {
		t.Fatalf("config = %s", ranged.Config)
	}
	if ranged.RangeRequests == 0 {
		t.Fatal("no range requests counted")
	}
	// Every request reads ~1/8 of each block: both the stripe-window
	// transfer and the window decode must shrink versus whole blocks.
	if ranged.Mean.Retrieve >= whole.Mean.Retrieve {
		t.Fatalf("range retrieve %.4f >= whole %.4f", ranged.Mean.Retrieve, whole.Mean.Retrieve)
	}
	if ranged.Mean.Decode >= whole.Mean.Decode {
		t.Fatalf("range decode %.6f >= whole %.6f", ranged.Mean.Decode, whole.Mean.Decode)
	}
}

func TestSimRangeReadsDeterministic(t *testing.T) {
	opt := Options{RangeFraction: 0.5, RangeMeanFrac: 0.25}
	a := runTiny(t, tinyParams(13), opt, 200, 1, 0, 2)
	b := runTiny(t, tinyParams(13), opt, 200, 1, 0, 2)
	if a.RangeRequests != b.RangeRequests || a.Mean.Total() != b.Mean.Total() {
		t.Fatalf("range runs diverge: %d/%v vs %d/%v", a.RangeRequests, a.Mean.Total(), b.RangeRequests, b.Mean.Total())
	}
}

func TestSimZonePlacementCap(t *testing.T) {
	p := tinyParams(11)
	c, err := New(p, Options{Zones: 4})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := c.Populate(200, func(int) int64 { return 100 * 1024 })
	if err != nil {
		t.Fatal(err)
	}
	cap := model.MaxChunksPerZone(2) // RS(2,2) default
	for _, id := range ids {
		meta, _ := c.catalog.BlockMeta(id)
		perZone := map[string]int{}
		for _, s := range meta.Sites {
			perZone[c.zoneOf(s)]++
		}
		for zone, n := range perZone {
			if n > cap {
				t.Fatalf("block %s: %d chunks in zone %s (cap %d)", id, n, zone, cap)
			}
		}
	}
}

func TestSimZoneFailureKeepsReadsAvailable(t *testing.T) {
	p := tinyParams(12)
	c, err := New(p, Options{Zones: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Populate(300, func(int) int64 { return 100 * 1024 }); err != nil {
		t.Fatal(err)
	}
	failed := c.FailZone("z0")
	if len(failed) != 2 { // 8 sites round-robin over 4 zones
		t.Fatalf("z0 = %v, want 2 sites", failed)
	}
	wl := workload.NewYCSBE(300, 10, 1.0)
	res := c.Run(wl, 1, 0, 3)
	if res.Requests == 0 {
		t.Fatal("no requests completed during whole-zone outage")
	}
	for _, f := range failed {
		if rate, ok := res.SiteReadRate[f]; ok && rate > 0 {
			t.Fatalf("failed site %d served reads", f)
		}
	}
}

func TestSimZoneFailureDeterministic(t *testing.T) {
	run := func() *Result {
		p := tinyParams(13)
		c, err := New(p, Options{Zones: 4})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Populate(200, func(int) int64 { return 100 * 1024 }); err != nil {
			t.Fatal(err)
		}
		c.FailZone("z1")
		return c.Run(workload.NewYCSBE(200, 10, 1.0), 1, 0, 2)
	}
	a, b := run(), run()
	if a.Requests != b.Requests || a.Mean.Total() != b.Mean.Total() {
		t.Fatalf("zone-failure sim not deterministic: %d/%v vs %d/%v",
			a.Requests, a.Mean.Total(), b.Requests, b.Mean.Total())
	}
}

func TestSimScrubLoadLengthensTail(t *testing.T) {
	run := func(rate float64) *Result {
		p := tinyParams(14)
		c, err := New(p, Options{ScrubBytesPerSec: rate})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Populate(300, func(int) int64 { return 100 * 1024 }); err != nil {
			t.Fatal(err)
		}
		return c.Run(workload.NewYCSBE(300, 10, 1.0), 1, 0, 3)
	}
	quiet := run(0)
	noisy := run(100e6) // 2/3 of each site's disk bandwidth
	if noisy.ScrubBytes == 0 {
		t.Fatal("scrub model injected no load")
	}
	if quiet.ScrubBytes != 0 {
		t.Fatal("scrub load active with rate 0")
	}
	if noisy.Mean.Total() <= quiet.Mean.Total() {
		t.Fatalf("unthrottled scrub did not slow reads: %v vs %v",
			noisy.Mean.Total(), quiet.Mean.Total())
	}
}

package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"ecstore/internal/cache"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/placement"
	"ecstore/internal/stats"
)

// Params model the simulated hardware and control-plane cadence. The
// defaults approximate the paper's testbed: a 10 GbE LAN, commodity SATA
// disks, 32 storage sites and dedicated control machines (Section VI-A).
type Params struct {
	Seed       int64
	NumSites   int
	NumClients int

	// NetOneWay is the one-way network latency in seconds; NetJitter is
	// the half-width of its uniform jitter.
	NetOneWay float64
	NetJitter float64

	// SiteOverhead is the per-site-visit request processing time; a
	// visit retrieving several chunks pays it once, which is why
	// co-locating co-accessed data reduces total work (Section III).
	SiteOverhead float64
	// DiskBytesPerSec is the per-server storage read rate.
	DiskBytesPerSec float64
	// ServersPerSite is the site's service parallelism (cores + disk
	// queue depth); the testbed machines have 12 cores.
	ServersPerSite int
	// ServiceJitter is the multiplicative service-time noise half-width.
	ServiceJitter float64
	// SlowProb is the per-visit probability of a service hiccup of
	// U[SlowMin, SlowMax] seconds (seeks, cache misses, OS noise):
	// the unpredictable component of straggling chunks.
	SlowProb float64
	SlowMin  float64
	SlowMax  float64

	// Degraded phases are the predictable component: a site entering a
	// degraded phase serves everything DegradedFactor times slower for
	// U[DegradedMin, DegradedMax] seconds (compactions, co-located
	// compute bursts). Phases start per site as a Poisson process with
	// mean inter-arrival DegradedEvery seconds; load-aware strategies
	// detect them through o_j probes and route around them.
	DegradedEvery  float64
	DegradedMin    float64
	DegradedMax    float64
	DegradedFactor float64

	// MetaAccessTime is the full metadata access latency (RTT +
	// lookup); the paper measures ~1.6-1.9 ms.
	MetaAccessTime float64
	// PlanTime is the access-planning latency (~0.8-0.9 ms measured).
	PlanTime float64
	// DecodeBytesPerSec is the erasure-decode throughput (~0.8 ms per
	// 1 MB in Figure 1).
	DecodeBytesPerSec float64

	// StatsInterval is the statistics reporting period (5-10 s in the
	// paper; compressed runs use a shorter one).
	StatsInterval float64
	// ProbeInterval is the load-status probe period feeding o_j.
	ProbeInterval float64
	// MoverInterval throttles the chunk mover (<1 chunk/s in the
	// paper).
	MoverInterval float64
	// MoverW2 is the movement load-balance weight relative to avg(o_j)
	// (the paper's w2=3 at avg(o_j)=5, i.e. 0.6); zero means 0.6.
	MoverW2 float64
	// ExactSolvesPerInterval bounds how many cost-model plans per stats
	// interval are solved exactly (the rest are served greedily),
	// modelling the paper's background solver's finite throughput.
	ExactSolvesPerInterval int
	// CoAccessSampleEvery records every Nth request into the co-access
	// tracker (the statistics service samples requests, Section V-A);
	// zero means 4.
	CoAccessSampleEvery int

	// TimelineBucket is the Figure-4a bucket width in seconds.
	TimelineBucket float64
}

// DefaultParams returns the calibrated testbed model.
func DefaultParams(seed int64) Params {
	return Params{
		Seed:                   seed,
		NumSites:               32,
		NumClients:             100,
		NetOneWay:              0.00015,
		NetJitter:              0.00005,
		SiteOverhead:           0.0004,
		DiskBytesPerSec:        150e6,
		ServersPerSite:         12,
		ServiceJitter:          0.3,
		SlowProb:               0.05,
		SlowMin:                0.004,
		SlowMax:                0.025,
		DegradedEvery:          80,
		DegradedMin:            2,
		DegradedMax:            6,
		DegradedFactor:         1.4,
		MetaAccessTime:         0.0016,
		PlanTime:               0.0008,
		DecodeBytesPerSec:      2.5e9,
		StatsInterval:          1.0,
		ProbeInterval:          0.5,
		MoverInterval:          0.1,
		ExactSolvesPerInterval: 6,
		CoAccessSampleEvery:    4,
		TimelineBucket:         5,
	}
}

// Options pick one of the paper's evaluated configurations.
type Options struct {
	// Scheme is erasure coding or replication.
	Scheme model.Scheme
	// K, R are the coding parameters (RS(2,2) and 3-way replication by
	// default, as in Section VI-A).
	K, R int
	// Strategy selects random (baselines) or cost-model access.
	Strategy placement.Strategy
	// Delta enables late binding.
	Delta int
	// Mover enables dynamic chunk movement.
	Mover bool
	// CacheBytes enables the client-side decoded-block cache with this
	// byte budget; a hit serves the block without any site visit.
	CacheBytes int64
	// RangeFraction is the probability in [0,1] that a request reads a
	// sub-range of each block through the stripe-range path (GetRange):
	// site visits then transfer only the stripe window the range touches
	// and the decode covers only those bytes. Zero disables range reads.
	RangeFraction float64
	// RangeStripes models each block's stripe count — the granularity a
	// range rounds up to, as in the real layout (ChunkSize/StripeUnit).
	// Zero means 8 (1 MiB blocks at k=2, 64 KiB units).
	RangeStripes int
	// RangeMeanFrac is the mean fraction of a block a range covers,
	// sampled uniformly in (0, 2*mean]. Zero means 1/8.
	RangeMeanFrac float64
	// Zones spreads the sites round-robin over this many failure zones
	// and makes Populate zone-aware: at most model.MaxChunksPerZone(r)
	// chunks of a block land in one zone, so a whole-zone outage never
	// exceeds the erasure margin. Zero disables zones.
	Zones int
	// ScrubBytesPerSec models the background checksum scrubber as extra
	// sequential read load: every scrub tick each live site services
	// that many bytes per second of scrub reads, competing with client
	// traffic on the same disk queues. This is the sim twin of the task
	// scheduler's byte throttle — the ab-scrub ablation sweeps it. Zero
	// disables scrub load.
	ScrubBytesPerSec float64
}

func (o Options) withDefaults() Options {
	if o.Scheme == 0 {
		o.Scheme = model.SchemeErasure
	}
	if o.K == 0 {
		o.K = 2
	}
	if o.R == 0 {
		o.R = 2
	}
	if o.Strategy == 0 {
		o.Strategy = placement.StrategyRandom
	}
	if o.RangeStripes <= 0 {
		o.RangeStripes = 8
	}
	if o.RangeMeanFrac <= 0 {
		o.RangeMeanFrac = 0.125
	}
	return o
}

// Name returns the paper's label for the configuration (R, EC, EC+LB,
// EC+C, EC+C+M, EC+C+M+LB).
func (o Options) Name() string {
	if o.Scheme == model.SchemeReplicated {
		return "R"
	}
	name := "EC"
	if o.Strategy == placement.StrategyCost {
		name += "+C"
	}
	if o.Mover {
		name += "+M"
	}
	if o.Delta > 0 {
		name += "+LB"
	}
	if o.CacheBytes > 0 {
		name += "+CACHE"
	}
	if o.RangeFraction > 0 {
		name += "+RANGE"
	}
	return name
}

// Cluster is one simulated EC-Store deployment running real strategy code
// over modelled hardware.
type Cluster struct {
	eng *Engine
	p   Params
	opt Options

	rng     *rand.Rand
	netRNG  *rand.Rand
	sites   map[model.SiteID]*site
	siteIDs []model.SiteID
	// zoneInfos is the zone view placement and the mover consult; nil
	// without Options.Zones.
	zoneInfos map[model.SiteID]model.SiteInfo

	catalog *metadata.Catalog
	planner *placement.Planner
	co      *stats.CoAccessTracker
	loads   *stats.LoadTracker
	probes  *stats.ProbeEstimator
	mover   *placement.Mover
	// blockCache models the decoded-block tier: entries carry sizes but
	// no payloads (PutSized), and its clock is the engine's virtual time
	// so runs stay deterministic. Nil when Options.CacheBytes is zero.
	blockCache *cache.Cache

	metrics *Metrics

	// measured-window accounting.
	siteBytesAt  map[model.SiteID]float64
	measureFrom  float64
	reqInWindow  int
	moves        int
	lastWindow   float64
	reqRate      float64
	scrubBytes   float64
	visitsTotal  int64
	fetchTotal   int64
	rangeReqs    int64
	reqSeen      int64
	statsReports int64
	cacheStatsAt cache.Stats

	sizes map[model.BlockID]int64
}

// New builds a simulated cluster.
func New(p Params, opt Options) (*Cluster, error) {
	opt = opt.withDefaults()
	if p.NumSites < opt.K+opt.R {
		return nil, fmt.Errorf("sim: %d sites cannot hold %d chunks", p.NumSites, opt.K+opt.R)
	}
	c := &Cluster{
		eng:         NewEngine(),
		p:           p,
		opt:         opt,
		rng:         rand.New(rand.NewSource(p.Seed)),
		netRNG:      rand.New(rand.NewSource(p.Seed + 1)),
		sites:       make(map[model.SiteID]*site, p.NumSites),
		co:          stats.NewCoAccessTracker(0),
		loads:       stats.NewLoadTracker(),
		probes:      stats.NewProbeEstimator(0.3),
		metrics:     newMetrics(p.TimelineBucket),
		siteBytesAt: make(map[model.SiteID]float64),
		sizes:       make(map[model.BlockID]int64),
		measureFrom: math.Inf(1),
	}
	servers := p.ServersPerSite
	if servers <= 0 {
		servers = 1
	}
	if opt.Zones > 0 {
		c.zoneInfos = make(map[model.SiteID]model.SiteInfo, p.NumSites)
	}
	for i := 0; i < p.NumSites; i++ {
		id := model.SiteID(i + 1)
		c.siteIDs = append(c.siteIDs, id)
		c.sites[id] = &site{
			id:       id,
			overhead: p.SiteOverhead,
			diskRate: p.DiskBytesPerSec,
			jitter:   p.ServiceJitter,
			slowProb: p.SlowProb,
			slowMin:  p.SlowMin,
			slowMax:  p.SlowMax,
			rng:      rand.New(rand.NewSource(p.Seed + 1000 + int64(i))),
			servers:  make([]float64, servers),
		}
		if c.zoneInfos != nil {
			c.zoneInfos[id] = model.SiteInfo{ID: id, Zone: c.zoneOf(id)}
		}
	}
	c.catalog = metadata.NewCatalog(c.siteIDs)
	c.planner = placement.NewPlanner(placement.PlannerConfig{
		Strategy: opt.Strategy,
		Delta:    opt.Delta,
		Seed:     p.Seed + 2,
	})
	c.planner.LimitExact(p.ExactSolvesPerInterval)
	if opt.Mover {
		// Paper calibration: w2 = 3 when avg(o_j) = 5, i.e. w2 =
		// 0.6*avg(o_j); adaptive scaling tracks o_j in seconds.
		w2 := p.MoverW2
		if w2 == 0 {
			w2 = 0.6
		}
		c.mover = placement.NewMover(placement.MoverConfig{
			W1:                 placement.DefaultW1,
			W2:                 w2,
			W2Adaptive:         true,
			MaxCandidateBlocks: 8,
			MaxPartners:        4,
			MaxEvaluations:     48,
			MinScoreFracOfAvgO: 0.1,
			Seed:               p.Seed + 3,
		})
	}
	if c.p.CoAccessSampleEvery <= 0 {
		c.p.CoAccessSampleEvery = 1
	}
	if opt.CacheBytes > 0 {
		c.blockCache = cache.New(cache.Config{
			MaxBytes: opt.CacheBytes,
			Seed:     p.Seed + 6,
			Hotness:  c.co,
			Clock: func() time.Time {
				return time.Unix(0, 0).Add(time.Duration(c.eng.Now() * float64(time.Second)))
			},
		})
	}
	return c, nil
}

// defaultO is the unloaded probe round trip in seconds, the seed value of
// every o_j estimate.
func (c *Cluster) defaultO() float64 {
	return 2*c.p.NetOneWay + c.p.SiteOverhead
}

// defaultM is the per-byte read cost in seconds.
func (c *Cluster) defaultM() float64 { return 1 / c.p.DiskBytesPerSec }

// costs materializes the current cost model, dithering o_j slightly so
// concurrent planners do not herd onto the momentarily cheapest sites (the
// probe signal in a real deployment is likewise noisy per client).
func (c *Cluster) costs() *model.SiteCosts {
	sc := c.probes.Costs(c.defaultO(), c.defaultM())
	// Deterministic iteration: dither consumes the cluster RNG, so the
	// order must not depend on map layout.
	for _, id := range c.siteIDs {
		if o, ok := sc.O[id]; ok {
			sc.O[id] = o * (1 + 0.3*(c.rng.Float64()-0.5))
		}
	}
	return sc
}

// available reports whether a site is up.
func (c *Cluster) available(s model.SiteID) bool {
	st := c.sites[s]
	return st != nil && !st.failed
}

// net samples a one-way network latency.
func (c *Cluster) net() float64 {
	if c.p.NetJitter == 0 {
		return c.p.NetOneWay
	}
	return c.p.NetOneWay + c.p.NetJitter*(2*c.netRNG.Float64()-1)
}

// Populate registers n blocks of the given sizes with random placement
// (all configurations start from the same random layout, as in Section
// VI-A). sizeFor(i) returns block i's size in bytes.
func (c *Cluster) Populate(n int, sizeFor func(int) int64) ([]model.BlockID, error) {
	placer, err := placement.NewPlacer(placement.PlaceRandom, nil, c.p.Seed+4)
	if err != nil {
		return nil, err
	}
	ids := make([]model.BlockID, n)
	total := c.opt.K + c.opt.R
	k := c.opt.K
	if c.opt.Scheme == model.SchemeReplicated {
		total = c.opt.R + 1
		k = 1
	}
	for i := 0; i < n; i++ {
		id := model.BlockID(fmt.Sprintf("b%07d", i))
		ids[i] = id
		size := sizeFor(i)
		chunkSize := (size + int64(k) - 1) / int64(k)
		rule := placement.Eligibility{Infos: c.zoneInfos}.ForBlock(nil, -1, model.MaxChunksPerZone(total-k))
		sites, err := placer.Place(c.siteIDs, total, rule)
		if err != nil {
			return nil, err
		}
		meta := &model.BlockMeta{
			ID:        id,
			Scheme:    c.opt.Scheme,
			Size:      size,
			K:         k,
			R:         c.opt.R,
			ChunkSize: chunkSize,
			Sites:     sites,
		}
		if c.opt.Scheme == model.SchemeReplicated {
			meta.R = total - 1
		}
		if err := c.catalog.Register(meta); err != nil {
			return nil, err
		}
		for _, s := range sites {
			c.sites[s].chunkCount++
		}
		c.sizes[id] = size
	}
	return ids, nil
}

// FailSites marks n distinct sites failed (Figure 4f), chosen by the
// cluster's deterministic RNG.
func (c *Cluster) FailSites(n int) []model.SiteID {
	perm := c.rng.Perm(len(c.siteIDs))
	failed := make([]model.SiteID, 0, n)
	for _, idx := range perm[:n] {
		id := c.siteIDs[idx]
		c.sites[id].failed = true
		failed = append(failed, id)
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i] < failed[j] })
	return failed
}

// zoneOf returns a site's failure-zone label ("" without zones).
func (c *Cluster) zoneOf(id model.SiteID) string {
	if c.opt.Zones <= 0 {
		return ""
	}
	return fmt.Sprintf("z%d", (int(id)-1)%c.opt.Zones)
}

// FailZone fails every site in one zone at once (a whole-zone outage)
// and returns the failed sites, sorted.
func (c *Cluster) FailZone(zone string) []model.SiteID {
	var failed []model.SiteID
	for _, id := range c.siteIDs {
		if c.zoneOf(id) == zone {
			c.sites[id].failed = true
			failed = append(failed, id)
		}
	}
	sort.Slice(failed, func(i, j int) bool { return failed[i] < failed[j] })
	return failed
}

// Workload produces multi-block read requests.
type Workload interface {
	// NextRequest returns the block ids of one client request.
	NextRequest(rng *rand.Rand) []model.BlockID
}

// request tracks one in-flight client read.
type request struct {
	start     float64
	planDone  float64
	needs     map[model.BlockID]int // remaining chunks per block
	remaining int                   // blocks not yet satisfied
	bytes     float64               // total logical block bytes (decode cost)
	factor    float64               // fraction of each block actually read (1 = whole block)
	done      func(ok bool)         // completion callback (closed loop re-issues, open loop records)
}

// rangeFactor samples what fraction of each block this request reads.
// Whole-block requests return 1; a range request draws a fraction around
// RangeMeanFrac and rounds it up to the stripe grid, exactly as
// erasure.Layout.Window widens a byte range to whole stripes.
func (c *Cluster) rangeFactor(rng *rand.Rand) float64 {
	if c.opt.RangeFraction <= 0 || rng.Float64() >= c.opt.RangeFraction {
		return 1
	}
	frac := rng.Float64() * 2 * c.opt.RangeMeanFrac
	if frac > 1 {
		frac = 1
	}
	stripes := float64(c.opt.RangeStripes)
	return math.Ceil(frac*stripes+1e-9) / stripes
}

// Run executes the simulation in the paper's three phases: `warmup`
// seconds of unmeasured traffic with the workload as constructed (the
// uniform warm-up scan of Section VI-B), then a workload change (the
// measured skewed phase begins), then `adapt` unmeasured seconds for the
// control plane to react, then `measure` measured seconds.
//
// Figure 4a passes adapt=0 to expose the adaptation transient; the
// steady-state comparisons (Figures 4b-4h) give the mover time to
// converge, standing in for the paper's 20-minute runs.
func (c *Cluster) Run(wl Workload, warmup, adapt, measure float64) *Result {
	// Control-plane processes.
	c.scheduleStats()
	if c.mover != nil {
		c.scheduleMover()
	}
	c.scheduleDegradedPhases()
	if c.opt.ScrubBytesPerSec > 0 {
		c.scheduleScrub()
	}
	// Clients.
	for i := 0; i < c.p.NumClients; i++ {
		clientRNG := rand.New(rand.NewSource(c.p.Seed + 100 + int64(i)))
		// Stagger arrival to avoid a thundering herd at t=0.
		c.eng.At(float64(i)*0.001, func() { c.issue(wl, clientRNG) })
	}

	c.eng.Run(warmup)
	// Workload change: uniform warm-up ends, skewed access begins.
	if pa, ok := wl.(phaseAware); ok {
		pa.OnMeasureStart()
	}
	c.eng.Run(warmup + adapt)

	c.measureFrom = c.eng.Now()
	c.metrics.startMeasuring(c.measureFrom)
	for id, s := range c.sites {
		c.siteBytesAt[id] = s.totalBytes
	}
	c.cacheStatsAt = c.blockCache.Stats()
	c.eng.Run(warmup + adapt + measure)
	return c.result(measure)
}

// phaseAware mirrors workload.PhaseAware without importing the package.
type phaseAware interface {
	OnMeasureStart()
}

// scheduleStats runs the statistics service (load reports, request rate,
// the planner's exact-solve budget) and the faster probe loop feeding o_j.
func (c *Cluster) scheduleStats() {
	var tick func()
	tick = func() {
		now := c.eng.Now()
		for _, id := range c.siteIDs {
			s := c.sites[id]
			cpu, io := s.drainWindow(now)
			if s.failed {
				continue
			}
			c.loads.Report(id, stats.SiteLoad{CPU: cpu, IOBytesPerSec: io, Chunks: s.chunkCount})
			c.statsReports++
		}
		if dt := now - c.lastWindow; dt > 0 {
			c.reqRate = float64(c.reqInWindow) / dt
		}
		c.reqInWindow = 0
		c.lastWindow = now
		c.planner.LimitExact(c.p.ExactSolvesPerInterval)
		c.eng.After(c.p.StatsInterval, tick)
	}
	c.eng.After(c.p.StatsInterval, tick)

	probeInterval := c.p.ProbeInterval
	if probeInterval <= 0 {
		probeInterval = c.p.StatsInterval
	}
	var probe func()
	probe = func() {
		now := c.eng.Now()
		for _, id := range c.siteIDs {
			s := c.sites[id]
			if s.failed {
				continue
			}
			// The probe experiences the site's current queue and
			// degradation, like any other request.
			factor := s.slowFactor
			if factor < 1 {
				factor = 1
			}
			rtt := 2*c.p.NetOneWay + s.queueDelay(now) + s.overhead*factor
			c.probes.Observe(id, rtt)
		}
		c.eng.After(probeInterval, probe)
	}
	c.eng.After(probeInterval, probe)
}

// scheduleDegradedPhases arms each site's degraded-phase process.
func (c *Cluster) scheduleDegradedPhases() {
	if c.p.DegradedEvery <= 0 || c.p.DegradedFactor <= 1 {
		return
	}
	for i, id := range c.siteIDs {
		s := c.sites[id]
		rng := rand.New(rand.NewSource(c.p.Seed + 5000 + int64(i)))
		var arm func()
		arm = func() {
			wait := rng.ExpFloat64() * c.p.DegradedEvery
			c.eng.After(wait, func() {
				s.slowFactor = c.p.DegradedFactor
				dur := c.p.DegradedMin + (c.p.DegradedMax-c.p.DegradedMin)*rng.Float64()
				c.eng.After(dur, func() {
					s.slowFactor = 1
					arm()
				})
			})
		}
		arm()
	}
}

// moverBatch is how many movement plans execute per mover tick: the
// compressed timescale scales the paper's <1 chunk/s throttle.
const moverBatch = 4

// scheduleMover runs the chunk mover at its throttled cadence.
func (c *Cluster) scheduleMover() {
	var tick func()
	tick = func() {
		for i := 0; i < moverBatch; i++ {
			c.moveOnce()
		}
		c.eng.After(c.p.MoverInterval, tick)
	}
	c.eng.After(c.p.MoverInterval, tick)
}

// scheduleScrub runs the background checksum scrubber's read load: every
// tick each live site services ScrubBytesPerSec worth of scrub reads on
// the same disk queues as client traffic, so an unthrottled scrubber
// visibly lengthens the tail.
func (c *Cluster) scheduleScrub() {
	const tick = 0.5
	var scrub func()
	scrub = func() {
		now := c.eng.Now()
		bytes := c.opt.ScrubBytesPerSec * tick
		for _, id := range c.siteIDs {
			s := c.sites[id]
			if s.failed {
				continue
			}
			s.serviceRead(now, bytes)
			c.scrubBytes += bytes
		}
		c.eng.After(tick, scrub)
	}
	c.eng.After(tick, scrub)
}

// moveOnce selects and executes one movement plan in the simulated world:
// a read at the source, a write at the destination, and a CAS placement
// update.
func (c *Cluster) moveOnce() {
	env := placement.MoverEnv{
		Catalog:     c.catalog,
		CoAccess:    c.co,
		Loads:       c.loads,
		Costs:       c.costs(),
		Available:   c.available,
		Infos:       c.zoneInfos,
		RequestRate: c.reqRate,
	}
	plan, ok := c.mover.SelectMovementPlan(env)
	if !ok {
		return
	}
	meta, okMeta := c.catalog.BlockMeta(plan.Block)
	if !okMeta || meta.Sites[plan.Chunk] != plan.From {
		return
	}
	src, dst := c.sites[plan.From], c.sites[plan.To]
	if src == nil || dst == nil || src.failed || dst.failed {
		return
	}
	if _, err := c.catalog.UpdatePlacement(plan.Block, plan.Chunk, plan.To, meta.Version); err != nil {
		return
	}
	// Movement I/O competes with client traffic on both queues.
	now := c.eng.Now()
	bytes := float64(meta.ChunkSize)
	src.serviceRead(now, bytes)
	dst.serviceWrite(now, bytes)
	src.chunkCount--
	dst.chunkCount++
	c.moves++
	// Proportional load-shift bookkeeping (Section IV-C) so the next
	// selection sees the post-move state before fresh reports arrive.
	chunkRate := c.co.Frequency(plan.Block) * c.reqRate * bytes
	c.loads.ApplyShift(plan.From, plan.To, c.loads.LoadShare(plan.From, chunkRate))
}

// issue starts one client request and schedules the next upon completion
// (closed loop, zero think time). A failed attempt (lookup error,
// infeasible plan, every planned site dead) retries after a beat —
// exactly the historical client behaviour.
func (c *Cluster) issue(wl Workload, rng *rand.Rand) {
	ids := wl.NextRequest(rng)
	if len(ids) == 0 {
		c.eng.After(0.001, func() { c.issue(wl, rng) })
		return
	}
	c.startRequest(rng, ids, func(ok bool) {
		if ok {
			c.issue(wl, rng)
			return
		}
		c.eng.After(0.001, func() { c.issue(wl, rng) })
	})
}

// startRequest drives one request through the full pipeline — metadata,
// cache probe, planning, fetch, decode — and calls done exactly once:
// done(true) on completion, done(false) when the attempt failed and no
// response will ever arrive. Both the closed-loop clients (Run) and the
// open-loop gateway model (RunOpenLoop) share this path.
func (c *Cluster) startRequest(rng *rand.Rand, ids []model.BlockID, done func(ok bool)) {
	start := c.eng.Now()
	c.reqSeen++
	if c.reqSeen%int64(c.p.CoAccessSampleEvery) == 0 {
		c.co.Record(ids)
	}
	c.reqInWindow++

	// Metadata access (R1).
	c.eng.After(c.p.MetaAccessTime, func() {
		metas, err := c.catalog.Lookup(ids)
		if err != nil {
			done(false)
			return
		}
		// Cache phase: hits are served from client memory and stripped
		// from planning; a fully cached request never visits a site.
		if c.blockCache != nil {
			metas = c.cachePhase(metas)
			if len(metas) == 0 {
				c.metrics.record(c.eng.Now(), model.Breakdown{Metadata: c.p.MetaAccessTime})
				done(true)
				return
			}
		}
		// Access planning (R2): real strategy code, constant modelled
		// latency.
		plan, err := c.planner.Plan(placement.PlanRequest{Metas: metas, Available: c.available}, c.costs())
		if err != nil {
			// Infeasible under failures.
			done(false)
			return
		}
		factor := c.rangeFactor(rng)
		if factor < 1 && c.eng.Now() >= c.measureFrom {
			c.rangeReqs++
		}
		c.eng.After(c.p.PlanTime, func() {
			c.fetch(start, metas, plan, factor, done)
		})
	})
}

// fetch dispatches the plan's site visits and completes the request when
// every block has k chunks (late binding discards the surplus).
func (c *Cluster) fetch(start float64, metas map[model.BlockID]*model.BlockMeta, plan *model.AccessPlan, factor float64, done func(ok bool)) {
	now := c.eng.Now()
	req := &request{
		start:    start,
		planDone: now,
		needs:    make(map[model.BlockID]int, len(metas)),
		factor:   factor,
		done:     done,
	}
	// Accumulate in sorted block order: req.bytes is a float sum, and
	// float addition is order-sensitive, so map order would leak into
	// the simulated byte counts.
	blockIDs := make([]model.BlockID, 0, len(metas))
	for id := range metas {
		blockIDs = append(blockIDs, id)
	}
	sort.Slice(blockIDs, func(i, j int) bool { return blockIDs[i] < blockIDs[j] })
	for _, id := range blockIDs {
		req.needs[id] = metas[id].RequiredChunks()
		req.bytes += float64(metas[id].Size) * factor
	}
	req.remaining = len(metas)

	dispatched := 0
	for _, siteID := range plan.SortedSites() {
		refs := plan.Reads[siteID]
		s := c.sites[siteID]
		if s == nil || s.failed {
			continue
		}
		dispatched++
		// One site visit: the request arrives after a network hop,
		// occupies one server for its overhead plus all its chunk
		// transfers, and the response returns after another hop.
		var visitBytes float64
		for _, ref := range refs {
			visitBytes += float64(metas[ref.Block].ChunkSize) * req.factor
		}
		arrive := now + c.net()
		refsCopy := append([]model.ChunkRef(nil), refs...)
		c.eng.At(arrive, func() {
			doneAt := s.serviceRead(arrive, visitBytes)
			back := doneAt + c.net()
			c.eng.At(back, func() {
				c.chunkArrived(req, metas, refsCopy)
			})
		})
	}
	if dispatched == 0 {
		// Every planned site failed since planning.
		done(false)
		return
	}
	if c.eng.Now() >= c.measureFrom {
		c.visitsTotal += int64(dispatched)
		c.fetchTotal++
	}
}

// cachePhase probes the decoded-block cache for every looked-up block
// and returns only the misses. Blocks are probed in sorted order: Get
// mutates sketch and LRU state, so map order would leak into admission
// decisions and break run determinism.
func (c *Cluster) cachePhase(metas map[model.BlockID]*model.BlockMeta) map[model.BlockID]*model.BlockMeta {
	ids := make([]model.BlockID, 0, len(metas))
	for id := range metas {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	misses := make(map[model.BlockID]*model.BlockMeta, len(metas))
	for _, id := range ids {
		if _, ok := c.blockCache.Get(id, metas[id].Version); !ok {
			misses[id] = metas[id]
		}
	}
	return misses
}

// cachePopulate admits just-decoded blocks, again in sorted order for
// determinism. Entries carry only sizes (PutSized with a nil payload):
// the simulator never materializes block bytes, but the budget, LRU and
// admission behaviour are exactly the real cache's.
func (c *Cluster) cachePopulate(metas map[model.BlockID]*model.BlockMeta) {
	if c.blockCache == nil {
		return
	}
	ids := make([]model.BlockID, 0, len(metas))
	for id := range metas {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		meta := metas[id]
		c.blockCache.PutSized(id, meta.Version, nil, meta.Size)
	}
}

// chunkArrived processes one site visit's responses.
func (c *Cluster) chunkArrived(req *request, metas map[model.BlockID]*model.BlockMeta, refs []model.ChunkRef) {
	if req.remaining == 0 {
		return // already satisfied: late-binding surplus
	}
	for _, ref := range refs {
		if n := req.needs[ref.Block]; n > 0 {
			req.needs[ref.Block] = n - 1
			if n == 1 {
				req.remaining--
			}
		}
	}
	if req.remaining > 0 {
		return
	}
	// Retrieval complete; decode (R3) and record.
	retrieveDone := c.eng.Now()
	decode := 0.0
	if c.opt.Scheme == model.SchemeErasure {
		decode = req.bytes / c.p.DecodeBytesPerSec
	}
	c.eng.After(decode, func() {
		// Only whole-block reads decode a cacheable block; a range
		// decode yields a window, which the real client never admits.
		if req.factor >= 1 {
			c.cachePopulate(metas)
		}
		bd := model.Breakdown{
			Metadata: c.p.MetaAccessTime,
			Planning: c.p.PlanTime,
			Retrieve: retrieveDone - req.planDone,
			Decode:   decode,
		}
		c.metrics.record(c.eng.Now(), bd)
		req.done(true)
	})
}

package core

import (
	"context"
	"fmt"
	"time"

	"ecstore/internal/health"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/placement"
	"ecstore/internal/stats"
	"ecstore/internal/storage"
	"ecstore/internal/tasks"
)

// ClusterConfig assembles a complete single-process EC-Store deployment:
// N storage services, a metadata catalog, the statistics trackers, a
// client, and optionally the chunk mover and repair service.
type ClusterConfig struct {
	// NumSites is the data-plane size (the paper's testbed uses 32).
	NumSites int
	// Client configures scheme and strategies.
	Client Config
	// EnableMover runs the background chunk mover (the +M configs).
	EnableMover bool
	// MoverInterval throttles movement; zero means 1s.
	MoverInterval time.Duration
	// EnableRepair runs the repair service.
	EnableRepair bool
	// RepairGrace overrides the 15-minute default grace period.
	RepairGrace time.Duration
	// RepairProbeInterval is the liveness sweep cadence; zero means 5s.
	RepairProbeInterval time.Duration
	// EnableScrub runs the periodic checksum scrubber over every active
	// site. Scrub-site tasks can also be enqueued on demand (ScrubSite)
	// without the periodic sweep.
	EnableScrub bool
	// ScrubInterval is the scrub sweep cadence; zero means 1 minute.
	ScrubInterval time.Duration
	// TaskBytesPerSec caps background task I/O (repair, scrub, drain)
	// via the scheduler's shared token bucket; zero disables throttling.
	TaskBytesPerSec int64
	// Zones spreads the sites round-robin over this many failure zones
	// ("z0".."zN-1") and enables zone-aware placement: writes, repair
	// and drain then cap chunks per zone at model.MaxChunksPerZone(R).
	// Zero leaves every site zone-less.
	Zones int
	// StatsInterval is the load-report collection period; zero means 2s.
	StatsInterval time.Duration
	// ReadDelayPerByte/ReadDelayFixed emulate storage media on each site.
	ReadDelayPerByte time.Duration
	ReadDelayFixed   time.Duration
	// Health tunes the shared per-site breaker set (failure thresholds,
	// recovery backoff). The zero value uses the package defaults; the
	// Metrics field is always overridden with the cluster registry.
	Health health.Config
	// Metrics optionally instruments every component (sites, catalog,
	// client, planner, mover, repair) with one shared registry and
	// enables per-request tracing. Nil disables observability at zero
	// cost on the hot path.
	Metrics *obs.Registry
	// Pressure optionally couples the client's hedging policy to an
	// access tier (see Deps.Pressure). Nil disables it.
	Pressure *health.Pressure
}

// Cluster is a fully wired in-process EC-Store instance: every paper
// component (storage sites, metadata catalog, statistics trackers, client,
// chunk mover, repair service) sharing one address space. Examples and
// integration tests use it directly; cmd/ binaries wire the same pieces
// over RPC instead.
type Cluster struct {
	Catalog  *metadata.Catalog
	Services map[model.SiteID]*storage.Service
	Client   *Client
	CoAccess *stats.CoAccessTracker
	Loads    *stats.LoadTracker
	Probes   *stats.ProbeEstimator
	Mover    *MoverRunner
	Repair   *Repairer
	// Tasks is the unified background scheduler: repair, movement,
	// scrubbing and drains all run as its task types.
	Tasks *tasks.Scheduler
	// Scrub verifies at-rest checksums site by site (scrub-site tasks).
	Scrub *Scrubber
	// Health is the breaker set shared by client, mover and repair.
	Health *health.Tracker
	// Metrics is the shared registry (nil when observability is off) and
	// Tracer the per-request trace collector backed by it.
	Metrics *obs.Registry
	Tracer  *obs.Tracer

	drainer       *Drainer
	sources       []func(ctx context.Context)
	statsInterval time.Duration
	moverInterval time.Duration
	started       bool
}

// NewCluster builds and wires a cluster.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.NumSites < 2 {
		return nil, fmt.Errorf("core: need at least 2 sites, got %d", cfg.NumSites)
	}
	siteIDs := make([]model.SiteID, cfg.NumSites)
	for i := range siteIDs {
		siteIDs[i] = model.SiteID(i + 1)
	}

	var tracer *obs.Tracer
	if cfg.Metrics != nil {
		tracer = obs.NewTracer(128, cfg.Metrics)
	}

	catalog := metadata.NewCatalog(siteIDs)
	if cfg.Metrics != nil {
		catalog.EnableMetrics(cfg.Metrics)
	}
	services := make(map[model.SiteID]*storage.Service, cfg.NumSites)
	apis := make(map[model.SiteID]storage.SiteAPI, cfg.NumSites)
	for _, id := range siteIDs {
		svc := storage.NewService(storage.ServiceConfig{
			Site:             id,
			ReadDelayPerByte: cfg.ReadDelayPerByte,
			ReadDelayFixed:   cfg.ReadDelayFixed,
			Metrics:          cfg.Metrics,
		}, storage.NewMemStore())
		services[id] = svc
		apis[id] = svc
	}

	coaccess := stats.NewCoAccessTracker(0)
	loads := stats.NewLoadTracker()
	probes := stats.NewProbeEstimator(0.3)
	healthCfg := cfg.Health
	healthCfg.Metrics = cfg.Metrics
	tracker := health.NewTracker(healthCfg)

	client, err := NewClient(cfg.Client, Deps{
		Meta:     catalog,
		Sites:    apis,
		CoAccess: coaccess,
		Probes:   probes,
		Loads:    loads,
		Health:   tracker,
		Pressure: cfg.Pressure,
		Metrics:  cfg.Metrics,
		Tracer:   tracer,
		Zones:    catalog.SiteInfos,
	})
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		Catalog:       catalog,
		Services:      services,
		Client:        client,
		CoAccess:      coaccess,
		Loads:         loads,
		Probes:        probes,
		Health:        tracker,
		Metrics:       cfg.Metrics,
		Tracer:        tracer,
		statsInterval: cfg.StatsInterval,
		moverInterval: cfg.MoverInterval,
	}
	if c.statsInterval == 0 {
		c.statsInterval = 2 * time.Second
	}
	if c.moverInterval == 0 {
		c.moverInterval = time.Second
	}

	// The unified scheduler coordinates through the catalog's durable
	// task table, so tasks survive restarts and CLIs can enqueue work.
	c.Tasks = tasks.New(tasks.Config{
		Store:       catalog,
		BytesPerSec: cfg.TaskBytesPerSec,
		Metrics:     cfg.Metrics,
	})

	if cfg.EnableMover {
		c.Mover = NewMoverRunner(MoverRunnerConfig{
			DefaultO: cfg.Client.DefaultO,
			DefaultM: cfg.Client.DefaultM,
			Metrics:  cfg.Metrics,
		}, catalog, apis, tracker, coaccess, loads, probes)
	}
	if cfg.EnableRepair {
		c.Repair = NewRepairer(catalog, apis, loads, tracker, cfg.RepairGrace, cfg.Metrics)
	}
	c.Scrub = NewScrubber(catalog, apis, c.Tasks.Enqueue, cfg.Metrics)
	c.drainer = NewDrainer(catalog, apis, loads, tracker, cfg.Metrics)
	scrubEvery := time.Duration(0)
	if cfg.EnableScrub {
		scrubEvery = cfg.ScrubInterval
		if scrubEvery <= 0 {
			scrubEvery = time.Minute
		}
	}
	c.sources = BuildTaskPlane(c.Tasks, TaskPlaneOptions{
		Repair:              c.Repair,
		RepairProbeInterval: cfg.RepairProbeInterval,
		Mover:               c.Mover,
		MoverInterval:       c.moverInterval,
		Scrub:               c.Scrub,
		ScrubInterval:       scrubEvery,
		Meta:                catalog,
		Drain:               c.drainer,
		Stats:               c.CollectStats,
		StatsInterval:       c.statsInterval,
	})

	if cfg.Zones > 0 {
		if err := c.SetZones(cfg.Zones); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Start launches the background control plane: one scheduler loop whose
// sources (stats collection, repair sweeps, move planning, scrub sweeps)
// fire at their own cadence and whose tasks run under the shared
// concurrency caps and byte throttle. The cluster is usable without
// Start; Tick drives one full round synchronously instead. The ctx
// parameter is retained for signature compatibility; task contexts come
// from the scheduler.
func (c *Cluster) Start(ctx context.Context) {
	_ = ctx
	if c.started {
		return
	}
	c.started = true
	c.Tasks.Start()
}

// Close stops the background control plane and releases resources.
func (c *Cluster) Close() {
	if c.started {
		c.Tasks.Stop()
		c.started = false
	}
	c.Client.Close()
}

// CollectStats performs one statistics round: every live site's load
// report feeds the load tracker, and a probe round refreshes o_j.
func (c *Cluster) CollectStats(ctx context.Context) {
	for id, svc := range c.Services {
		load, err := svc.LoadReport(ctx)
		if err != nil {
			continue // failed sites keep their last report
		}
		c.Loads.Report(id, load)
	}
	c.Client.ProbeAllContext(ctx)
}

// Tick drives one synchronous control-plane round: every source fires
// regardless of cadence (stats collection, repair sweep, move planning,
// scrub sweep — duplicate enqueues deduplicate against live task rows),
// then the scheduler runs the queue to quiescence. Deterministic
// alternative to Start for tests.
func (c *Cluster) Tick(ctx context.Context) {
	for _, fn := range c.sources {
		fn(ctx)
	}
	c.Tasks.RunOnce(ctx)
}

// FailSite injects a failure at a site.
func (c *Cluster) FailSite(id model.SiteID) {
	if svc, ok := c.Services[id]; ok {
		svc.Fail()
		c.Client.MarkFailed(id)
	}
}

// RecoverSite heals a previously failed site.
func (c *Cluster) RecoverSite(id model.SiteID) {
	if svc, ok := c.Services[id]; ok {
		svc.Recover()
		c.Client.MarkAvailable(id)
	}
}

// TotalStoredBytes sums stored bytes across sites.
func (c *Cluster) TotalStoredBytes() int64 {
	var total int64
	for _, svc := range c.Services {
		n, err := svc.StoredBytes()
		if err == nil {
			total += n
		}
	}
	return total
}

// SiteChunkCounts returns the number of chunks per site.
func (c *Cluster) SiteChunkCounts(ctx context.Context) map[model.SiteID]int {
	out := make(map[model.SiteID]int, len(c.Services))
	for id, svc := range c.Services {
		refs, err := svc.ListChunks(ctx)
		if err != nil {
			out[id] = 0
			continue
		}
		out[id] = len(refs)
	}
	return out
}

// Strategy returns the client's access strategy (for reporting).
func (c *Cluster) Strategy() placement.Strategy { return c.Client.plan.Strategy() }

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
	"ecstore/internal/storage"
)

// ClusterConfig assembles a complete single-process EC-Store deployment:
// N storage services, a metadata catalog, the statistics trackers, a
// client, and optionally the chunk mover and repair service. NewControl
// reads its background-plane fields, so ecstore-control configures its
// plane with the same type.
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
	// StatsInterval is the probe round's period (breakers, o_j, load
	// reports and the repair sweep); zero means 2s.
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
// integration tests use it directly; the cmd/ binaries wire the same
// pieces over RPC, ecstore-control through the same NewControl.
type Cluster struct {
	// Control is the background plane; its statistics trackers (CoAccess,
	// Loads, Probes), Health, Tasks, Mover, Repair and Scrub are shared
	// with Client by pointer.
	*Control
	Catalog  *metadata.Catalog
	Services map[model.SiteID]*storage.Service
	Client   *Client
	// Metrics is the shared registry (nil when observability is off) and
	// Tracer the per-request trace collector backed by it.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
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

	// The control plane's scheduler coordinates through the catalog's
	// durable task table, so tasks survive restarts and CLIs can enqueue
	// work. The client shares its statistics and breakers by pointer.
	ctl := NewControl(cfg, catalog, apis)
	client, err := NewClient(cfg.Client, Deps{
		Meta:     catalog,
		Sites:    apis,
		CoAccess: ctl.CoAccess,
		Probes:   ctl.Probes,
		Health:   ctl.Health,
		Pressure: cfg.Pressure,
		Metrics:  cfg.Metrics,
		Tracer:   tracer,
		Zones:    catalog.SiteInfos,
	})
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		Control:  ctl,
		Catalog:  catalog,
		Services: services,
		Client:   client,
		Metrics:  cfg.Metrics,
		Tracer:   tracer,
	}
	if cfg.Zones > 0 {
		if err := c.SetZones(cfg.Zones); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Close stops the background control plane and releases resources.
func (c *Cluster) Close() {
	c.Stop()
	c.Client.Close()
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

package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ecstore/internal/health"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/stats"
	"ecstore/internal/storage"
	"ecstore/internal/tasks"
)

// Control is EC-Store's background plane (Section V): the statistics
// service, the per-site breaker set, and the unified task scheduler with
// the move, repair, scrub and drain executors and their periodic sources.
// The in-process Cluster and the ecstore-control daemon both build it
// with NewControl — over in-process services and over RPC site clients
// respectively — so the two deployments run one plane.
type Control struct {
	// Aggregator is the statistics state: the co-access window, the load
	// tracker and the o_j estimator (CoAccess, Loads, Probes).
	*stats.Aggregator
	// Health is the breaker set shared by every background executor (and
	// by the in-process cluster's client). The probe round feeds it.
	Health *health.Tracker
	// Tasks is the unified background scheduler: repair, movement,
	// scrubbing and drains all run as its task types.
	Tasks *tasks.Scheduler
	// Mover and Repair are nil unless enabled.
	Mover  *MoverRunner
	Repair *Repairer
	// Scrub verifies at-rest checksums site by site (scrub-site tasks).
	Scrub *Scrubber

	meta    metadata.Service
	sites   map[model.SiteID]storage.SiteAPI
	drainer *Drainer
	probe   *prober
}

// NewControl builds the background plane over a catalog and a set of
// sites. It reads the control-plane fields of cfg (the Enable* switches,
// intervals, RepairGrace, TaskBytesPerSec, Health, Metrics) and, from
// cfg.Client, the probe settings and cost-model defaults; NumSites and
// the data-path knobs are the Cluster's. Sources:
//
//   - probe (every StatsInterval, default 2s): one probe round — breaker
//     outcomes, o_j and load reports — then the repair sweep over the
//     breaker state it leaves;
//   - move-plan (every MoverInterval, default 1s) when the mover is on;
//   - scrub-sweep (every ScrubInterval, default 1 minute) when EnableScrub
//     is set; scrub-site tasks can always be enqueued on demand.
func NewControl(cfg ClusterConfig, meta metadata.Service, sites map[model.SiteID]storage.SiteAPI) *Control {
	client := cfg.Client.withDefaults()
	healthCfg := cfg.Health
	healthCfg.Metrics = cfg.Metrics
	c := &Control{
		Aggregator: stats.NewAggregator(0),
		Health:     health.NewTracker(healthCfg),
		Tasks: tasks.New(tasks.Config{
			Store:       meta,
			BytesPerSec: cfg.TaskBytesPerSec,
			Metrics:     cfg.Metrics,
		}),
		meta:  meta,
		sites: sites,
	}
	c.EnableMetrics(cfg.Metrics)
	c.probe = &prober{cfg: client, sites: sites, health: c.Health,
		retry: newRetrier(client, cfg.Metrics), observe: c.ObserveProbe, load: c.ReportLoad}

	c.Scrub = NewScrubber(meta, sites, c.Tasks.Enqueue, cfg.Metrics)
	c.Tasks.Register(model.TaskTypeScrubSite, c.Scrub.Run)
	c.drainer = NewDrainer(meta, sites, c.Loads, c.Health, cfg.Metrics)
	c.Tasks.Register(model.TaskTypeDrainSite, c.drainer.Run)
	if cfg.EnableRepair {
		c.Repair = NewRepairer(meta, sites, c.Loads, c.Health, cfg.RepairGrace, cfg.Metrics)
		c.Tasks.Register(model.TaskTypeRepairSite, c.Repair.RunSite)
		c.Tasks.Register(model.TaskTypeRepairChunk, c.Repair.RunChunk)
	}
	c.Tasks.AddSource("probe", orDefault(cfg.StatsInterval, 2*time.Second), c.probeSource)

	if cfg.EnableMover {
		c.Mover = NewMoverRunner(MoverRunnerConfig{
			DefaultO: client.DefaultO,
			DefaultM: client.DefaultM,
			Metrics:  cfg.Metrics,
		}, meta, sites, c.Health, c.CoAccess, c.Loads, c.Probes)
		c.Tasks.Register(model.TaskTypeMove, c.Mover.Run)
		c.Tasks.AddSource("move-plan", orDefault(cfg.MoverInterval, time.Second), c.planMove)
	}
	if cfg.EnableScrub {
		c.Tasks.AddSource("scrub-sweep", orDefault(cfg.ScrubInterval, time.Minute), func(context.Context) {
			_, _ = EnqueueScrub(meta, c.Tasks, model.NoSite)
		})
	}
	return c
}

func orDefault(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

// Start launches the scheduler loop: each source fires at its own cadence
// and tasks run under the shared concurrency caps and byte throttle.
// Idempotent. Tick drives one round synchronously instead.
func (c *Control) Start() { c.Tasks.Start() }

// Stop halts the scheduler loop and waits for in-flight tasks; idempotent.
func (c *Control) Stop() { c.Tasks.Stop() }

// Tick drives one synchronous round: every source fires exactly once
// regardless of cadence (duplicate enqueues deduplicate against live task
// rows), then the scheduler runs the queue to quiescence. Deterministic
// alternative to Start for tests and examples.
func (c *Control) Tick(ctx context.Context) { c.Tasks.RunRound(ctx) }

// ScrubSite enqueues an immediate scrub of one site (ahead of the
// periodic sweep).
func (c *Control) ScrubSite(id model.SiteID) error {
	_, err := EnqueueScrub(c.meta, c.Tasks, id)
	return err
}

// DrainSite starts draining a site: no new chunks land on it, and a
// drain task migrates its chunks away and finally decommissions it.
func (c *Control) DrainSite(id model.SiteID) error {
	if _, ok := c.sites[id]; !ok {
		return fmt.Errorf("core: unknown site %d", id)
	}
	return EnqueueDrain(c.meta, c.Tasks, id)
}

// probeSource is the probe source: one probe round, then — with repair on
// — the repair sweep over the breaker state the round leaves. The sweep
// sends no RPC of its own.
func (c *Control) probeSource(ctx context.Context) {
	c.probe.round(ctx)
	if c.Repair == nil {
		return
	}
	for _, id := range c.Repair.DueForRepair() {
		_, _ = c.Tasks.Enqueue(&model.TaskRecord{
			ID:       repairSiteTaskID(id),
			Type:     model.TaskTypeRepairSite,
			Site:     id,
			Priority: model.PriorityRepair,
		})
	}
}

// planMove is the move-plan source: the mover's best plan, if any, becomes
// a move task.
func (c *Control) planMove(context.Context) {
	plan, ok := c.Mover.SelectPlan()
	if !ok {
		return
	}
	_, _ = c.Tasks.Enqueue(&model.TaskRecord{
		ID:       moveTaskID(plan),
		Type:     model.TaskTypeMove,
		Site:     plan.From,
		Dest:     plan.To,
		Block:    plan.Block,
		Chunk:    plan.Chunk,
		Priority: model.PriorityMove,
	})
}

// prober runs the probe round both deployments share (Section V-B3: o_j
// is the average response time of periodic load-status requests): the
// client's ProbeAllContext, and Control's probe source.
type prober struct {
	cfg     Config // Retry and DefaultO
	sites   map[model.SiteID]storage.SiteAPI
	health  *health.Tracker
	retry   *retrier
	observe func(model.SiteID, float64)
	// load, when set, receives each answering site's load report.
	load func(model.SiteID, stats.SiteLoad)
}

// round probes every site its breaker admits, in parallel: closed sites
// always, open ones only once their backoff admits a half-open recovery
// probe, so a down site is not hammered. Each probe carries probeTimeout
// and the retry policy. The outcome feeds the breaker; a success's round
// trip, scaled into cost-model units, feeds observe, and the site's load
// report follows.
func (p *prober) round(ctx context.Context) {
	var wg sync.WaitGroup
	for _, id := range model.SortedSites(p.sites) {
		api := p.sites[id]
		if api == nil || !p.health.AllowProbe(id) {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for attempt := 0; attempt < p.cfg.Retry.MaxAttempts; attempt++ {
				if attempt > 0 && !p.retry.wait(ctx, attempt) {
					break
				}
				pctx, cancel := context.WithTimeout(ctx, probeTimeout)
				start := time.Now()
				err := api.Probe(pctx)
				if err == nil {
					p.health.ReportSuccess(id)
					p.observe(id, scaleRTT(time.Since(start).Seconds(), p.cfg.DefaultO))
					if p.load != nil {
						if load, err := api.LoadReport(pctx); err == nil {
							p.load(id, load)
						}
					}
					cancel()
					return
				}
				cancel()
				if !retryable(err) {
					break
				}
			}
			p.health.ReportFailure(id)
		}()
	}
	wg.Wait()
}

// scaleRTT converts a measured probe RTT in seconds into cost-model units,
// normalizing so an idle-probe RTT of ~1ms maps near DefaultO (the
// paper's calibration: m_j = 1 when o_j ≈ 5).
func scaleRTT(rttSeconds, defaultO float64) float64 {
	return rttSeconds / 0.001 * defaultO
}

package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"ecstore/internal/health"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/stats"
	"ecstore/internal/storage"
	"ecstore/internal/tasks"
)

// This file wires every background activity — repair, chunk movement,
// scrubbing, drain/decommission — onto the unified scheduler in
// internal/tasks. No component owns a goroutine: periodic sources turn
// their planning steps into durable task rows, and executors registered
// here run them under the scheduler's concurrency caps and shared byte
// throttle. Every executor that relocates a chunk does so through the
// one engine in relocate.go.

// Task ID builders. IDs are stable per target so a sweep firing twice
// enqueues once (tasks.Scheduler.Enqueue dedupes against live rows).
func repairSiteTaskID(s model.SiteID) string { return fmt.Sprintf("repair-site-%d", s) }
func scrubSiteTaskID(s model.SiteID) string  { return fmt.Sprintf("scrub-site-%d", s) }
func drainSiteTaskID(s model.SiteID) string  { return fmt.Sprintf("drain-site-%d", s) }
func repairChunkTaskID(ref model.ChunkRef) string {
	return fmt.Sprintf("repair-chunk-%s.%d", ref.Block, ref.Chunk)
}
func moveTaskID(p model.MovePlan) string {
	return fmt.Sprintf("move-%s.%d", p.Block, p.Chunk)
}

// scrubKey is the scrubber's cursor coordinate: refs are swept in
// ascending key order and the cursor stores the last key verified, so a
// resumed sweep skips straight past completed work.
func scrubKey(ref model.ChunkRef) string {
	return fmt.Sprintf("%s#%08d", ref.Block, ref.Chunk)
}

// scrubObs is the scrubber's instrument set; every field is nil-safe.
type scrubObs struct {
	sweeps   *obs.Counter
	chunks   *obs.Counter
	corrupt  *obs.Counter
	missing  *obs.Counter
	enqueued *obs.Counter
}

func newScrubObs(reg *obs.Registry) scrubObs {
	if reg == nil {
		return scrubObs{}
	}
	return scrubObs{
		sweeps:   reg.Counter("scrub_sweeps_total", "completed site scrub sweeps"),
		chunks:   reg.Counter("scrub_chunks_total", "chunks checksum-verified by the scrubber"),
		corrupt:  reg.Counter("scrub_corrupt_detected_total", "corrupt chunks detected (and quarantined) by the scrubber"),
		missing:  reg.Counter("scrub_missing_detected_total", "placed chunks found missing from their site by the scrubber"),
		enqueued: reg.Counter("scrub_repairs_enqueued_total", "chunk repairs enqueued by the scrubber"),
	}
}

// Scrubber sweeps one site's chunks per task, verifying the at-rest
// checksum of each under the scheduler's byte throttle. Corrupt copies
// are deleted (quarantined — the surviving peers still reach k) and a
// repair-chunk task is enqueued; so are chunks the catalog places on the
// site that the site no longer holds. The sweep cursor persists after
// every chunk, so a scrub interrupted by a crash resumes where it
// stopped instead of rescanning the site.
type Scrubber struct {
	meta    metadata.Service
	sites   map[model.SiteID]storage.SiteAPI
	enqueue func(*model.TaskRecord) (bool, error)
	obs     scrubObs
}

// NewScrubber builds a scrubber that reports damage through enqueue
// (normally tasks.Scheduler.Enqueue).
func NewScrubber(meta metadata.Service, sites map[model.SiteID]storage.SiteAPI,
	enqueue func(*model.TaskRecord) (bool, error), reg *obs.Registry) *Scrubber {
	return &Scrubber{meta: meta, sites: sites, enqueue: enqueue, obs: newScrubObs(reg)}
}

// Run executes one scrub-site task.
//
//lint:ignore ctxfirst tasks.Ctx embeds the task's context.Context
func (s *Scrubber) Run(c *tasks.Ctx) error {
	site := c.Record().Site
	api := s.sites[site]
	if api == nil {
		return fmt.Errorf("core: scrub of unknown site %d", site)
	}
	refs, err := api.ListChunks(c)
	if err != nil {
		return fmt.Errorf("scrub list site %d: %w", site, err)
	}
	sort.Slice(refs, func(i, j int) bool { return scrubKey(refs[i]) < scrubKey(refs[j]) })

	held := make(map[model.ChunkRef]bool, len(refs))
	cursor := c.Record().Cursor
	for _, ref := range refs {
		held[ref] = true
		if cursor != "" && scrubKey(ref) <= cursor {
			continue // already verified before the restart
		}
		check, err := api.VerifyChunk(c, ref)
		s.obs.chunks.Inc()
		switch {
		case errors.Is(err, storage.ErrCorruptChunk):
			s.obs.corrupt.Inc()
			// Quarantine the damaged copy, then re-protect from peers.
			_ = api.DeleteChunk(c, ref)
			s.enqueueRepair(ref, site)
		case errors.Is(err, storage.ErrChunkNotFound):
			// Deleted between listing and verify; the catalog diff below
			// decides whether that is damage.
		case err != nil:
			return fmt.Errorf("scrub verify %s at site %d: %w", ref, site, err)
		default:
			if err := c.Throttle(check.Length); err != nil {
				return err
			}
		}
		if err := c.SaveCursor(scrubKey(ref)); err != nil {
			return err
		}
	}

	// Catalog diff: chunks placed on this site that the site does not
	// hold are silent losses a read would only discover under failure.
	for _, blockID := range s.meta.BlocksOnSite(site) {
		metas, err := s.meta.Lookup([]model.BlockID{blockID})
		if metadata.IsNotFound(err) {
			continue // block deleted mid-sweep
		}
		if err != nil {
			return fmt.Errorf("scrub lookup %s: %w", blockID, err)
		}
		for chunk, placed := range metas[blockID].Sites {
			ref := model.ChunkRef{Block: blockID, Chunk: chunk}
			if placed == site && !held[ref] {
				s.obs.missing.Inc()
				s.enqueueRepair(ref, site)
			}
		}
	}
	s.obs.sweeps.Inc()
	return nil
}

func (s *Scrubber) enqueueRepair(ref model.ChunkRef, site model.SiteID) {
	ok, err := s.enqueue(&model.TaskRecord{
		ID:       repairChunkTaskID(ref),
		Type:     model.TaskTypeRepairChunk,
		Site:     site,
		Block:    ref.Block,
		Chunk:    ref.Chunk,
		Priority: model.PriorityRepair,
	})
	if err == nil && ok {
		s.obs.enqueued.Inc()
	}
}

// Drainer empties a site for decommissioning: the drain-site task marks
// the site draining (no new chunks land on it from that point), relocates
// every chunk it holds to eligible sites with the shared engine, and
// finally marks the site decommissioned. The task is re-entrant: progress
// is the catalog's placement state itself, so a resumed drain just
// continues with whatever chunks remain.
type Drainer struct {
	ops     *relocator
	moved   *obs.Counter
	drained *obs.Counter
}

// NewDrainer builds a drainer. Every dependency but the metrics registry
// is required.
func NewDrainer(meta metadata.Service, sites map[model.SiteID]storage.SiteAPI,
	loads *stats.LoadTracker, health *health.Tracker, reg *obs.Registry) *Drainer {
	d := &Drainer{ops: newRelocator(meta, sites, loads, health)}
	if reg != nil {
		d.moved = reg.Counter("drain_chunks_moved_total", "chunks migrated off draining sites")
		d.drained = reg.Counter("drain_sites_completed_total", "sites fully drained and decommissioned")
	}
	return d
}

// Run executes one drain-site task.
//
//lint:ignore ctxfirst tasks.Ctx embeds the task's context.Context
func (d *Drainer) Run(c *tasks.Ctx) error {
	site := c.Record().Site
	if d.ops.sites[site] == nil {
		return fmt.Errorf("core: drain of unknown site %d", site)
	}
	meta := d.ops.meta
	info := meta.SiteInfos()[site]
	info.ID = site
	if info.State == model.SiteActive {
		info.State = model.SiteDraining
		if err := meta.SetSiteInfo(info); err != nil {
			return err
		}
	}

	for _, blockID := range meta.BlocksOnSite(site) {
		block, err := d.ops.lookup(blockID)
		if err != nil {
			return fmt.Errorf("drain site %d: %w", site, err)
		}
		if block == nil {
			continue // deleted mid-drain
		}
		for _, chunk := range block.ChunksAt(site) {
			dst, err := d.ops.pick(block, chunk)
			if err != nil {
				return fmt.Errorf("drain site %d: %w", site, err)
			}
			version, err := d.ops.relocate(c, block, chunk, dst)
			if err != nil {
				return fmt.Errorf("drain site %d: %w", site, err)
			}
			block.Sites[chunk], block.Version = dst, version
			d.moved.Inc()
		}
	}

	if rest := meta.BlocksOnSite(site); len(rest) != 0 {
		return fmt.Errorf("core: drain of site %d left %d blocks", site, len(rest))
	}
	info.State = model.SiteDecommissioned
	if err := meta.SetSiteInfo(info); err != nil {
		return err
	}
	d.drained.Inc()
	return nil
}

// TaskPlaneOptions selects which components BuildTaskPlane wires onto a
// scheduler. Nil components are skipped.
type TaskPlaneOptions struct {
	// Repair enables repair-site/repair-chunk executors plus the
	// liveness sweep source (cadence RepairProbeInterval, default 5s).
	Repair              *Repairer
	RepairProbeInterval time.Duration
	// Mover enables the move executor plus the planning source (cadence
	// MoverInterval, default 1s).
	Mover         *MoverRunner
	MoverInterval time.Duration
	// Scrub enables the scrub-site executor. ScrubInterval > 0
	// additionally installs the periodic sweep source enqueueing a scrub
	// of every active site (Meta supplies the site list); zero leaves
	// scrubbing on-demand only.
	Scrub         *Scrubber
	ScrubInterval time.Duration
	Meta          metadata.Service
	// Drain enables the drain-site executor.
	Drain *Drainer
	// Stats optionally runs as a source every StatsInterval (default 2s).
	Stats         func(ctx context.Context)
	StatsInterval time.Duration
}

// BuildTaskPlane registers every executor and periodic source on the
// scheduler and returns the source functions, so a synchronous driver
// (Cluster.Tick, tests) can force them regardless of cadence. Both the
// in-process Cluster and ecstore-control (which runs against RPC clients)
// wire their control planes through it.
func BuildTaskPlane(s *tasks.Scheduler, o TaskPlaneOptions) []func(ctx context.Context) {
	var sources []func(ctx context.Context)
	addSource := func(name string, every time.Duration, fn func(ctx context.Context)) {
		s.AddSource(name, every, fn)
		sources = append(sources, fn)
	}

	if o.Stats != nil {
		every := o.StatsInterval
		if every <= 0 {
			every = 2 * time.Second
		}
		addSource("stats", every, o.Stats)
	}

	if o.Repair != nil {
		rep := o.Repair
		s.Register(model.TaskTypeRepairSite, rep.RunSite)
		s.Register(model.TaskTypeRepairChunk, rep.RunChunk)
		probeEvery := o.RepairProbeInterval
		if probeEvery <= 0 {
			probeEvery = 5 * time.Second
		}
		addSource("repair-sweep", probeEvery, func(ctx context.Context) {
			for _, id := range rep.DueForRepair(ctx) {
				_, _ = s.Enqueue(&model.TaskRecord{
					ID:       repairSiteTaskID(id),
					Type:     model.TaskTypeRepairSite,
					Site:     id,
					Priority: model.PriorityRepair,
				})
			}
		})
	}

	if o.Mover != nil {
		mover := o.Mover
		s.Register(model.TaskTypeMove, mover.Run)
		moveEvery := o.MoverInterval
		if moveEvery <= 0 {
			moveEvery = time.Second
		}
		addSource("move-plan", moveEvery, func(context.Context) {
			plan, ok := mover.SelectPlan()
			if !ok {
				return
			}
			_, _ = s.Enqueue(&model.TaskRecord{
				ID:       moveTaskID(plan),
				Type:     model.TaskTypeMove,
				Site:     plan.From,
				Dest:     plan.To,
				Block:    plan.Block,
				Chunk:    plan.Chunk,
				Priority: model.PriorityMove,
			})
		})
	}

	if o.Scrub != nil {
		s.Register(model.TaskTypeScrubSite, o.Scrub.Run)
		if o.ScrubInterval > 0 && o.Meta != nil {
			meta := o.Meta
			addSource("scrub-sweep", o.ScrubInterval, func(ctx context.Context) {
				infos := meta.SiteInfos()
				for _, id := range meta.Sites() {
					if infos[id].State != model.SiteActive {
						continue
					}
					_, _ = s.Enqueue(&model.TaskRecord{
						ID:       scrubSiteTaskID(id),
						Type:     model.TaskTypeScrubSite,
						Site:     id,
						Priority: model.PriorityScrub,
					})
				}
			})
		}
	}

	if o.Drain != nil {
		s.Register(model.TaskTypeDrainSite, o.Drain.Run)
	}
	return sources
}

// ScrubSite enqueues an immediate scrub of one site (ahead of the
// periodic sweep).
func (c *Cluster) ScrubSite(id model.SiteID) error {
	if c.Scrub == nil {
		return errors.New("core: scrubbing not enabled")
	}
	_, err := c.Tasks.Enqueue(&model.TaskRecord{
		ID:       scrubSiteTaskID(id),
		Type:     model.TaskTypeScrubSite,
		Site:     id,
		Priority: model.PriorityScrub,
	})
	return err
}

// DrainSite starts draining a site: no new chunks land on it, and a
// drain task migrates its chunks away and finally decommissions it.
func (c *Cluster) DrainSite(id model.SiteID) error {
	if _, ok := c.Services[id]; !ok {
		return fmt.Errorf("core: unknown site %d", id)
	}
	info := c.Catalog.SiteInfos()[id]
	info.ID = id
	if info.State == model.SiteActive {
		info.State = model.SiteDraining
		if err := c.Catalog.SetSiteInfo(info); err != nil {
			return err
		}
	}
	_, err := c.Tasks.Enqueue(&model.TaskRecord{
		ID:       drainSiteTaskID(id),
		Type:     model.TaskTypeDrainSite,
		Site:     id,
		Priority: model.PriorityDrain,
	})
	return err
}

// SetZones labels every site with a zone, round-robin over `zones` names
// ("z0".."zN-1"), enabling zone-aware placement on writes, repair and
// drain destinations.
func (c *Cluster) SetZones(zones int) error {
	if zones <= 0 {
		return nil
	}
	ids := c.Catalog.Sites()
	for i, id := range ids {
		info := c.Catalog.SiteInfos()[id]
		info.ID = id
		info.Zone = fmt.Sprintf("z%d", i%zones)
		if err := c.Catalog.SetSiteInfo(info); err != nil {
			return err
		}
	}
	return nil
}

// ZoneSites returns the sites labeled with the given zone, sorted.
func (c *Cluster) ZoneSites(zone string) []model.SiteID {
	var out []model.SiteID
	infos := c.Catalog.SiteInfos()
	for _, id := range c.Catalog.Sites() {
		if infos[id].Zone == zone {
			out = append(out, id)
		}
	}
	return out
}

// FailZone fails every site in a zone at once (whole-zone outage).
func (c *Cluster) FailZone(zone string) {
	for _, id := range c.ZoneSites(zone) {
		c.FailSite(id)
	}
}

package core

import (
	"errors"
	"fmt"
	"sort"

	"ecstore/internal/health"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/stats"
	"ecstore/internal/storage"
	"ecstore/internal/tasks"
)

// This file holds the scrub and drain executors, the task ids every
// background activity uses, and the enqueue helpers the in-process
// cluster and ecstore-control's subcommands share. No component owns a
// goroutine: Control (control.go) turns planning steps into durable task
// rows on the unified scheduler in internal/tasks, and the executors run
// them under its concurrency caps and shared byte throttle. Every
// executor that relocates a chunk does so through the one engine in
// relocate.go.

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
	info, err := markDraining(meta, site)
	if err != nil {
		return err
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

// EnqueueScrub enqueues a scrub-site task for one site, or for every
// active site when site is not a site id (≤ 0: the periodic sweep), and
// returns how many sites it covered.
func EnqueueScrub(meta metadata.Service, s *tasks.Scheduler, site model.SiteID) (int, error) {
	targets := []model.SiteID{site}
	if site <= 0 {
		targets = targets[:0]
		infos := meta.SiteInfos()
		for _, id := range meta.Sites() {
			if infos[id].State == model.SiteActive {
				targets = append(targets, id)
			}
		}
	}
	for _, id := range targets {
		if _, err := s.Enqueue(&model.TaskRecord{
			ID:       scrubSiteTaskID(id),
			Type:     model.TaskTypeScrubSite,
			Site:     id,
			Priority: model.PriorityScrub,
		}); err != nil {
			return 0, fmt.Errorf("enqueue scrub of site %d: %w", id, err)
		}
	}
	return len(targets), nil
}

// EnqueueDrain marks a site draining — no new chunks land on it from then
// on — and enqueues the drain-site task that migrates its chunks away and
// finally decommissions it.
func EnqueueDrain(meta metadata.Service, s *tasks.Scheduler, site model.SiteID) error {
	if _, err := markDraining(meta, site); err != nil {
		return err
	}
	if _, err := s.Enqueue(&model.TaskRecord{
		ID:       drainSiteTaskID(site),
		Type:     model.TaskTypeDrainSite,
		Site:     site,
		Priority: model.PriorityDrain,
	}); err != nil {
		return fmt.Errorf("enqueue drain of site %d: %w", site, err)
	}
	return nil
}

// markDraining moves an active site to draining and returns its record.
func markDraining(meta metadata.Service, site model.SiteID) (model.SiteInfo, error) {
	info := meta.SiteInfos()[site]
	info.ID = site
	if info.State != model.SiteActive {
		return info, nil
	}
	info.State = model.SiteDraining
	if err := meta.SetSiteInfo(info); err != nil {
		return info, fmt.Errorf("mark site %d draining: %w", site, err)
	}
	return info, nil
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

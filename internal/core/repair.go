package core

import (
	"fmt"
	"sync"
	"time"

	"ecstore/internal/health"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/stats"
	"ecstore/internal/storage"
	"ecstore/internal/tasks"
)

// defaultRepairGrace is how long a site must stay unresponsive before
// its chunks are rebuilt elsewhere (15 minutes in GFS and the paper).
const defaultRepairGrace = 15 * time.Minute

// Repairer is EC-Store's repair service (Section V-C) on the task plane.
// Its failure detector sends no RPC of its own: after each probe round
// (Control's probe source) it reads the shared breakers, remembers since
// when each site has been down and reports the ones whose grace period
// has expired. The repair-site and repair-chunk executors then rebuild
// lost chunks from surviving peers with the engine every background
// relocation shares.
type Repairer struct {
	ops   *relocator
	grace time.Duration
	clock func() time.Time

	mu          sync.Mutex
	failedSince map[model.SiteID]time.Time
	repaired    int64

	checksC     *obs.Counter
	repairedC   *obs.Counter
	errorsC     *obs.Counter
	failedSites *obs.Gauge
}

// NewRepairer wires the repair service. Every dependency but the metrics
// registry is required. grace zero means 15 minutes; a negative grace
// repairs on the first failed probe.
func NewRepairer(meta metadata.Service, sites map[model.SiteID]storage.SiteAPI,
	loads *stats.LoadTracker, tracker *health.Tracker, grace time.Duration, reg *obs.Registry) *Repairer {
	if grace == 0 {
		grace = defaultRepairGrace
	}
	r := &Repairer{
		ops:         newRelocator(meta, sites, loads, tracker),
		grace:       grace,
		clock:       time.Now,
		failedSince: make(map[model.SiteID]time.Time),
	}
	if reg != nil {
		r.checksC = reg.Counter("repair_checks_total", "liveness sweeps over all sites")
		r.repairedC = reg.Counter("repair_repaired_chunks_total", "chunks reconstructed onto healthy sites")
		r.errorsC = reg.Counter("repair_errors_total", "failed repair task attempts")
		r.failedSites = reg.Gauge("repair_failed_sites", "sites currently marked unavailable by the repair sweep")
	}
	return r
}

// Repaired returns the number of chunks reconstructed so far.
func (r *Repairer) Repaired() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.repaired
}

// FailedSites lists sites currently marked unavailable, sorted.
func (r *Repairer) FailedSites() []model.SiteID {
	r.mu.Lock()
	defer r.mu.Unlock()
	return model.SortedSites(r.failedSince)
}

// DueForRepair updates failure marks from the shared breakers — a site is
// down when its breaker is not closed — and returns the sites whose grace
// period has expired, in id order. Returned sites have their failure
// clock reset so a still-down site comes due again only a full grace
// period later — the caller owns enqueueing repair for each returned site
// exactly once.
func (r *Repairer) DueForRepair() []model.SiteID {
	now := r.clock()
	var due []model.SiteID
	r.checksC.Inc()

	r.mu.Lock()
	for _, id := range r.ops.siteIDs {
		if r.ops.health.Available(id) {
			delete(r.failedSince, id)
			continue
		}
		if _, already := r.failedSince[id]; !already {
			r.failedSince[id] = now
		}
		if now.Sub(r.failedSince[id]) >= r.grace {
			due = append(due, id)
			r.failedSince[id] = now
		}
	}
	r.failedSites.Set(int64(len(r.failedSince)))
	r.mu.Unlock()
	return due
}

// RunSite executes one repair-site task: every chunk the failed site
// held is rebuilt from its block's survivors onto an eligible site. One
// unrepairable block does not stop the sweep; the first error fails the
// task so the remainder is retried.
//
//lint:ignore ctxfirst tasks.Ctx embeds the task's context.Context
func (r *Repairer) RunSite(tc *tasks.Ctx) error {
	failed := tc.Record().Site
	var firstErr error
	for _, id := range r.ops.meta.BlocksOnSite(failed) {
		if err := r.repairBlock(tc, id, failed); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("repair %s: %w", id, err)
		}
	}
	return r.outcome(firstErr)
}

// repairBlock rebuilds the chunks of one block lost at `failed`.
func (r *Repairer) repairBlock(tc taskCtx, id model.BlockID, failed model.SiteID) error {
	meta, err := r.ops.lookup(id)
	if meta == nil {
		return err // nil when the block was deleted since the listing
	}
	for _, chunk := range meta.ChunksAt(failed) {
		data, err := r.ops.rebuild(tc, meta, chunk)
		if err != nil {
			return err
		}
		dst, err := r.ops.pick(meta, chunk)
		if err != nil {
			return err
		}
		version, err := r.ops.commit(tc, model.ChunkRef{Block: id, Chunk: chunk}, data, dst, meta.Version)
		if err != nil {
			return err
		}
		meta.Sites[chunk], meta.Version = dst, version
		r.countRepaired()
	}
	return nil
}

// RunChunk executes one repair-chunk task, the scrubber's repair unit:
// the chunk whose stored copy is corrupt or missing is rebuilt from its
// peers and rewritten, preferring the site the placement already names so
// the catalog stays untouched; if that site is unavailable the chunk is
// relocated like any other. A stale ref (chunk since moved or block
// deleted) is not an error — the damage no longer exists.
//
//lint:ignore ctxfirst tasks.Ctx embeds the task's context.Context
func (r *Repairer) RunChunk(tc *tasks.Ctx) error {
	rec := tc.Record()
	return r.outcome(r.repairChunk(tc, model.ChunkRef{Block: rec.Block, Chunk: rec.Chunk}, rec.Site))
}

func (r *Repairer) repairChunk(tc taskCtx, ref model.ChunkRef, onSite model.SiteID) error {
	meta, err := r.ops.lookup(ref.Block)
	if meta == nil {
		return err // nil when the block was deleted since the scrub
	}
	if ref.Chunk < 0 || ref.Chunk >= len(meta.Sites) || meta.Sites[ref.Chunk] != onSite {
		return nil // chunk moved since the scrub: the bad copy is unreachable
	}
	data, err := r.ops.rebuild(tc, meta, ref.Chunk)
	if err != nil {
		return err
	}
	// Rewrite in place when the owning site still accepts writes; Put
	// replaces the damaged frame with a freshly sealed one.
	if r.ops.health.Available(onSite) && r.ops.store(tc, onSite, ref, data) == nil {
		r.countRepaired()
		return nil
	}
	dst, err := r.ops.pick(meta, ref.Chunk)
	if err != nil {
		return err
	}
	if _, err := r.ops.commit(tc, ref, data, dst, meta.Version); err != nil {
		return err
	}
	r.countRepaired()
	return nil
}

func (r *Repairer) countRepaired() {
	r.mu.Lock()
	r.repaired++
	r.mu.Unlock()
	r.repairedC.Inc()
}

// outcome counts a failed task attempt.
func (r *Repairer) outcome(err error) error {
	if err != nil {
		r.errorsC.Inc()
	}
	return err
}

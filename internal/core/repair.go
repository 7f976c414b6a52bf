package core

import (
	"context"
	"fmt"
	"sort"
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

// repairProbeTimeout bounds each liveness probe so one hung site cannot
// stall a sweep.
const repairProbeTimeout = 2 * time.Second

// defaultRepairGrace is how long a site must stay unresponsive before
// its chunks are rebuilt elsewhere (15 minutes in GFS and the paper).
const defaultRepairGrace = 15 * time.Minute

// Repairer is EC-Store's repair service (Section V-C) on the task plane.
// Its failure detector is the state behind the repair-sweep source: it
// probes every site, remembers since when each has been unresponsive and
// reports the ones whose grace period has expired. The repair-site and
// repair-chunk executors then rebuild lost chunks from surviving peers
// with the engine every background relocation shares.
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
		r.checksC = reg.Counter("repair_checks_total", "probe sweeps over all sites")
		r.repairedC = reg.Counter("repair_repaired_chunks_total", "chunks reconstructed onto healthy sites")
		r.errorsC = reg.Counter("repair_errors_total", "failed repair task attempts")
		r.failedSites = reg.Gauge("repair_failed_sites", "sites currently marked unavailable by the repair prober")
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
	out := make([]model.SiteID, 0, len(r.failedSince))
	for id := range r.failedSince {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// probeAll probes every site in parallel, each under the per-probe
// timeout, and returns which are up. The shared breaker set gates the
// sweep: an open breaker means the site is known-down and counts as
// failed without an RPC, and a half-open site with a client recovery
// probe already in flight is not double-probed — AllowProbe hands out
// exactly one probation slot, and reporting a second outcome would
// corrupt the breaker's probation accounting. Outcomes feed the breaker
// only when the probe was actually admitted.
func (r *Repairer) probeAll(ctx context.Context) map[model.SiteID]bool {
	up := make(map[model.SiteID]bool, len(r.ops.sites))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for id, api := range r.ops.sites {
		if !r.ops.health.AllowProbe(id) {
			mu.Lock()
			up[id] = false
			mu.Unlock()
			continue
		}
		wg.Add(1)
		go func(id model.SiteID, api storage.SiteAPI) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(ctx, repairProbeTimeout)
			defer cancel()
			err := api.Probe(ctx)
			if err != nil {
				r.ops.health.ReportFailure(id)
			} else {
				r.ops.health.ReportSuccess(id)
			}
			mu.Lock()
			up[id] = err == nil
			mu.Unlock()
		}(id, api)
	}
	wg.Wait()
	return up
}

// DueForRepair probes every site, updates failure marks, and returns the
// sites whose grace period has expired, sorted. Returned sites have their
// failure clock reset so a still-down site comes due again only a full
// grace period later — the caller owns enqueueing repair for each
// returned site exactly once.
func (r *Repairer) DueForRepair(ctx context.Context) []model.SiteID {
	now := r.clock()
	var due []model.SiteID
	r.checksC.Inc()

	up := r.probeAll(ctx)
	r.mu.Lock()
	for id, ok := range up {
		if ok {
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

	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
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

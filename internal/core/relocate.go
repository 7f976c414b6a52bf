package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/erasure"
	"ecstore/internal/health"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/placement"
	"ecstore/internal/stats"
	"ecstore/internal/storage"
)

// Errors of the background plane.
var (
	// ErrUnrepairable reports that fewer than k chunks of a block could
	// be read, so a lost chunk cannot be rebuilt.
	ErrUnrepairable = errors.New("core: not enough surviving chunks")
	// ErrNoDestination reports that no site may take a relocated chunk.
	ErrNoDestination = errors.New("core: no eligible destination site")
)

// relocateOpTimeout bounds each chunk read, write and delete a background
// task issues, so a hung site fails the task instead of stalling the
// scheduler slot.
const relocateOpTimeout = 30 * time.Second

// relocateSeed seeds the background placer. It is a different stream from
// the client's write placer, so background work never perturbs where
// writes land.
const relocateSeed = 0x0ec5

// taskCtx is the part of *tasks.Ctx the engine needs: the task's
// cancellation plus the scheduler's shared background byte budget.
type taskCtx interface {
	context.Context
	Throttle(n int64) error
}

// relocator is the one engine behind every background task that puts a
// chunk somewhere: repair-site, repair-chunk, drain-site and move are
// compositions of its fetch / rebuild / pick / commit steps, so each
// obeys the same fault-tolerance, zone, drain, health, throttle and
// timeout rules by construction.
//
//	move         = fetch + commit(plan's destination) + delete source
//	drain-site   = fetch + pick + commit + delete source, per chunk
//	repair-site  = rebuild + pick + commit, per lost chunk
//	repair-chunk = rebuild + (rewrite in place | pick + commit)
type relocator struct {
	meta    metadata.Service
	sites   map[model.SiteID]storage.SiteAPI
	siteIDs []model.SiteID
	health  *health.Tracker
	placer  *placement.Placer

	mu     sync.Mutex
	codecs map[[2]int]*erasure.Codec
}

// newRelocator wires the engine. Every dependency is required.
func newRelocator(meta metadata.Service, sites map[model.SiteID]storage.SiteAPI,
	loads *stats.LoadTracker, tracker *health.Tracker) *relocator {
	placer, err := placement.NewPlacer(placement.PlaceLoadAware, loads, relocateSeed)
	if err != nil {
		panic(fmt.Sprintf("core: background placer: %v", err)) // nil load tracker: a wiring bug
	}
	return &relocator{
		meta:    meta,
		sites:   sites,
		siteIDs: sortedSiteIDs(sites),
		health:  tracker,
		placer:  placer,
		codecs:  make(map[[2]int]*erasure.Codec),
	}
}

// lookup fetches a block's current metadata. A block that no longer
// exists is (nil, nil) — the work concerning it is moot; any other
// failure (a metadata outage) is an error, so the task fails and the
// scheduler's retry limit applies instead of the work being forgotten.
func (e *relocator) lookup(id model.BlockID) (*model.BlockMeta, error) {
	metas, err := e.meta.Lookup([]model.BlockID{id})
	if metadata.IsNotFound(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lookup %s: %w", id, err)
	}
	return metas[id], nil
}

// rule scopes the shared eligibility rule to re-placing one chunk of a
// block under the current zone, drain and breaker view.
func (e *relocator) rule(meta *model.BlockMeta, chunk int) *placement.BlockRule {
	return placement.Eligibility{Infos: e.meta.SiteInfos(), Available: e.health.Available}.
		ForBlock(meta.Sites, chunk, model.MaxChunksPerZone(meta.R))
}

// pick chooses the destination for one chunk of a block through the
// load-aware placer: an eligible, lightly loaded site, drawn at random
// from the cold half so a burst of relocations spreads out.
func (e *relocator) pick(meta *model.BlockMeta, chunk int) (model.SiteID, error) {
	chosen, err := e.placer.Place(e.siteIDs, 1, e.rule(meta, chunk))
	if err != nil {
		return model.NoSite, fmt.Errorf("%w for %s chunk %d", ErrNoDestination, meta.ID, chunk)
	}
	return chosen[0], nil
}

// fetch reads one chunk under the op timeout and charges it to the byte
// budget (after the read: the size is unknown before; the bucket still
// bounds the average background rate). The caller owns the returned
// buffer and releases it with bufpool.Put.
func (e *relocator) fetch(tc taskCtx, site model.SiteID, ref model.ChunkRef) ([]byte, error) {
	api := e.sites[site]
	if api == nil {
		return nil, fmt.Errorf("%w: site %d", ErrNoSites, site)
	}
	ctx, cancel := context.WithTimeout(tc, relocateOpTimeout)
	defer cancel()
	data, err := api.GetChunk(ctx, ref)
	if err != nil {
		return nil, fmt.Errorf("read %s at site %d: %w", ref, site, err)
	}
	if err := tc.Throttle(int64(len(data))); err != nil {
		bufpool.Put(data)
		return nil, err
	}
	return data, nil
}

// store writes one chunk under the op timeout, charging the byte budget
// first.
func (e *relocator) store(tc taskCtx, site model.SiteID, ref model.ChunkRef, data []byte) error {
	api := e.sites[site]
	if api == nil {
		return fmt.Errorf("%w: site %d", ErrNoSites, site)
	}
	if err := tc.Throttle(int64(len(data))); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(tc, relocateOpTimeout)
	defer cancel()
	if err := api.PutChunk(ctx, ref, data); err != nil {
		return fmt.Errorf("write %s to site %d: %w", ref, site, err)
	}
	return nil
}

// remove best-effort deletes a chunk copy the catalog does not (or no
// longer) reference.
func (e *relocator) remove(tc taskCtx, site model.SiteID, ref model.ChunkRef) {
	if api := e.sites[site]; api != nil {
		ctx, cancel := context.WithTimeout(tc, relocateOpTimeout)
		defer cancel()
		_ = api.DeleteChunk(ctx, ref)
	}
}

// commit lands data as chunk ref on dst and swings the placement to it
// with a CAS against expectVersion — the background plane's only
// placement update. A lost CAS (a concurrent relocation or delete won)
// rolls the new copy back. It returns the block's new version. Deleting
// the old copy, where one exists, is the caller's step and comes only
// after commit returns: until the CAS lands readers are still sent there.
func (e *relocator) commit(tc taskCtx, ref model.ChunkRef, data []byte, dst model.SiteID, expectVersion uint64) (uint64, error) {
	if err := e.store(tc, dst, ref, data); err != nil {
		return 0, err
	}
	version, err := e.meta.UpdatePlacement(ref.Block, ref.Chunk, dst, expectVersion)
	if err != nil {
		e.remove(tc, dst, ref)
		return 0, fmt.Errorf("commit %s to site %d: %w", ref, dst, err)
	}
	return version, nil
}

// rebuild reconstructs one chunk of a block from any k of its other
// chunks, skipping peers that cannot be read.
func (e *relocator) rebuild(tc taskCtx, meta *model.BlockMeta, chunk int) ([]byte, error) {
	need := meta.RequiredChunks()
	survivors := make(map[int][]byte, need)
	defer func() {
		for _, data := range survivors {
			bufpool.Put(data)
		}
	}()
	for peer, site := range meta.Sites {
		if len(survivors) == need {
			break
		}
		if peer == chunk {
			continue
		}
		data, err := e.fetch(tc, site, model.ChunkRef{Block: meta.ID, Chunk: peer})
		if err != nil {
			if tc.Err() != nil {
				return nil, tc.Err()
			}
			continue
		}
		survivors[peer] = data
	}
	if len(survivors) < need {
		return nil, fmt.Errorf("%w: %s has %d of %d", ErrUnrepairable, meta.ID, len(survivors), need)
	}
	if meta.Scheme == model.SchemeReplicated {
		for _, data := range survivors {
			return append([]byte(nil), data...), nil
		}
	}
	codec, err := e.codec(meta.K, meta.R)
	if err != nil {
		return nil, err
	}
	return codec.ReconstructChunk(survivors, chunk)
}

func (e *relocator) codec(k, r int) (*erasure.Codec, error) {
	key := [2]int{k, r}
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.codecs[key]; ok {
		return c, nil
	}
	c, err := erasure.NewCodec(k, r)
	if err != nil {
		return nil, err
	}
	e.codecs[key] = c
	return c, nil
}

// relocate moves one chunk of a block off the site that holds it: fetch
// it, commit it on dst, delete the source copy. It returns the block's
// new version.
func (e *relocator) relocate(tc taskCtx, meta *model.BlockMeta, chunk int, dst model.SiteID) (uint64, error) {
	ref := model.ChunkRef{Block: meta.ID, Chunk: chunk}
	from := meta.Sites[chunk]
	data, err := e.fetch(tc, from, ref)
	if err != nil {
		return 0, err
	}
	defer bufpool.Put(data)
	version, err := e.commit(tc, ref, data, dst, meta.Version)
	if err != nil {
		return 0, err
	}
	// The old copy is unreachable once metadata points at the destination.
	e.remove(tc, from, ref)
	return version, nil
}

// sortedSiteIDs returns the ids of a site map in ascending order.
func sortedSiteIDs(sites map[model.SiteID]storage.SiteAPI) []model.SiteID {
	out := make([]model.SiteID, 0, len(sites))
	for id := range sites {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

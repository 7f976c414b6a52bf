package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/cache"
	"ecstore/internal/erasure"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/placement"
	"ecstore/internal/storage"
)

// ErrRangeOutOfBounds reports a byte range outside a block.
var ErrRangeOutOfBounds = erasure.ErrRangeOutOfBounds

// blockRead is the read engine's one descriptor. Every read — a whole
// block, a byte range, the members of a pack container — names the block
// whose chunks are read, the window [lo, hi) fetched from each chunk
// used, and the block bytes [off, off+n) handed back. A whole block is
// the window [0, ChunkSize) and the bytes [0, Size).
type blockRead struct {
	// meta owns the chunks: for pack members, a view of their container.
	meta   *model.BlockMeta
	lo, hi int64
	off, n int64
}

func wholeBlock(meta *model.BlockMeta) blockRead {
	return blockRead{meta: meta, hi: meta.ChunkSize, n: meta.Size}
}

// rangeOf describes the read of meta's bytes [off, off+n), which the
// caller has checked against the block's size. An erasure-coded block
// maps the range to the chunk window of the stripes it touches; a replica
// holds the whole block, so its window is the range itself.
func rangeOf(meta *model.BlockMeta, off, n int64) (blockRead, error) {
	r := blockRead{meta: meta, lo: off, hi: off + n, off: off, n: n}
	if meta.Scheme == model.SchemeReplicated {
		return r, nil
	}
	var err error
	r.lo, r.hi, err = layoutOf(meta).Window(off, n)
	return r, err
}

// cover widens r to include the bytes [off, off+n) of the same block.
func (r blockRead) cover(off, n int64) (blockRead, error) {
	end := max(r.off+r.n, off+n)
	off = min(r.off, off)
	return rangeOf(r.meta, off, end-off)
}

// wholeChunks reports whether the window is the whole stored chunk.
func (r blockRead) wholeChunks() bool {
	return r.lo == 0 && r.hi == r.meta.ChunkSize
}

// planMeta is the metadata the planner sees for r: the window length
// stands in for the chunk size, because Eq. 1's z_i is the bytes a chunk
// read moves.
func (r blockRead) planMeta() *model.BlockMeta {
	if r.wholeChunks() {
		return r.meta
	}
	v := *r.meta
	v.ChunkSize = r.hi - r.lo
	return &v
}

// readSet is what one pass of the engine reads. metas names every block
// and is what the planner sees; windows describes the blocks read
// narrower than whole, for which metas holds planMeta.
type readSet struct {
	metas   map[model.BlockID]*model.BlockMeta
	windows map[model.BlockID]blockRead
}

func newReadSet(whole map[model.BlockID]*model.BlockMeta, windows map[model.BlockID]blockRead) readSet {
	if len(windows) == 0 {
		return readSet{metas: whole}
	}
	s := readSet{metas: make(map[model.BlockID]*model.BlockMeta, len(whole)+len(windows)), windows: windows}
	for id, meta := range whole {
		s.metas[id] = meta
	}
	for id, r := range windows {
		s.metas[id] = r.planMeta()
	}
	return s
}

func (s readSet) read(id model.BlockID) blockRead {
	if r, ok := s.windows[id]; ok {
		return r
	}
	return wholeBlock(s.metas[id])
}

// Get retrieves one block.
//
//lint:ignore ctxfirst context-free convenience entry over GetContext; timeouts still apply via cfg.RequestTimeout
func (c *Client) Get(id model.BlockID) ([]byte, error) {
	return c.GetContext(context.Background(), id)
}

// GetContext retrieves one block under a caller-supplied context. The
// returned bytes are read-only (see GetMultiContext).
func (c *Client) GetContext(ctx context.Context, id model.BlockID) ([]byte, error) {
	res, _, err := c.GetMultiContext(ctx, []model.BlockID{id})
	if err != nil {
		return nil, err
	}
	return res[id], nil
}

// GetMulti retrieves a set of blocks (read path R1-R3) and returns the
// per-phase response-time breakdown the paper's evaluation reports.
//
//lint:ignore ctxfirst context-free convenience entry over GetMultiContext; timeouts still apply via cfg.RequestTimeout
func (c *Client) GetMulti(ids []model.BlockID) (map[model.BlockID][]byte, model.Breakdown, error) {
	return c.GetMultiContext(context.Background(), ids)
}

// GetMultiContext is GetMulti under a caller-supplied context; the
// configured RequestTimeout is additionally applied when set.
//
// Every block a Get* method returns is an immutable shared value: the
// same slice may be resident in the decoded-block cache and in the hands
// of every other reader of that block — concurrent requests coalesced
// onto one fetch, and all later cache hits. Callers must not modify it;
// one that needs a scratch copy makes its own.
func (c *Client) GetMultiContext(ctx context.Context, ids []model.BlockID) (map[model.BlockID][]byte, model.Breakdown, error) {
	var bd model.Breakdown
	if len(ids) == 0 {
		return nil, bd, nil
	}
	ctx, cancel := c.requestCtx(ctx)
	defer cancel()
	c.obs.requests.Inc()
	c.obs.blocks.Add(int64(len(ids)))
	tstart := time.Now()
	defer func() { c.obs.requestH.ObserveSince(tstart) }()
	tr := c.tracer.Start("get")
	defer tr.Finish()

	// Small blocks still staged for packing live only in this client's
	// packer — the catalog has never heard of them, so they must be
	// served (read-through) before the all-or-nothing Lookup.
	out := make(map[model.BlockID][]byte, len(ids))
	if c.packer != nil {
		remaining := make([]model.BlockID, 0, len(ids))
		for _, id := range ids {
			if data, ok := c.packer.get(id); ok {
				out[id] = data
			} else {
				remaining = append(remaining, id)
			}
		}
		ids = remaining
		if len(ids) == 0 {
			return out, bd, nil
		}
	}

	// R1: metadata access.
	t0 := time.Now()
	sp := tr.StartSpan("metadata")
	metas, err := c.meta.Lookup(ids)
	sp.End()
	if err != nil {
		return nil, bd, fmt.Errorf("metadata lookup: %w", err)
	}
	bd.Metadata = time.Since(t0).Seconds()
	c.obs.metadataH.Observe(bd.Metadata)

	// Feed co-access statistics (sampled request stream).
	if c.coaccess != nil {
		c.coaccess.Record(ids)
	}

	// Sealed pack members resolve to synthesized metadata (PackedIn set):
	// their bytes are a range of their container's. They leave metas, and
	// the members of one container share one read of the window that
	// covers them all, planned and fetched beside the request's whole
	// blocks. A container the request also names whole covers its members
	// itself.
	var members []*model.BlockMeta
	var windows map[model.BlockID]blockRead
	for id, meta := range metas {
		if !meta.Packed() {
			continue
		}
		delete(metas, id)
		if meta.Size == 0 {
			out[id] = []byte{}
			continue
		}
		members = append(members, meta)
		if _, whole := metas[meta.PackedIn]; whole {
			continue
		}
		r, joined := windows[meta.PackedIn]
		if joined {
			r, err = r.cover(meta.PackedOff, meta.Size)
		} else {
			r, err = rangeOf(containerView(meta), meta.PackedOff, meta.Size)
		}
		if err != nil {
			return nil, bd, fmt.Errorf("read packed %s: %w", id, err)
		}
		if windows == nil {
			windows = make(map[model.BlockID]blockRead)
		}
		windows[meta.PackedIn] = r
	}
	if len(metas) == 0 && len(members) == 0 {
		return out, bd, nil
	}
	req := placement.PlanRequest{Metas: metas}

	// Cache tier: serve decoded hits from local memory and strip them
	// from the plan request — a hit accesses no sites at all, which can
	// only lower the request's Eq. 1 cost. Entries are keyed by the
	// placement version just looked up, so a block moved or rewritten
	// since it was cached misses here and is re-fetched.
	if c.cache != nil {
		sp = tr.StartSpan("cache")
		var hits []model.BlockID
		for id, meta := range metas {
			if data, ok := c.cache.Get(id, meta.Version); ok {
				out[id] = data
				hits = append(hits, id)
			}
		}
		req = req.Without(hits)
		sp.End()
		if len(req.Metas) == 0 && len(members) == 0 {
			return out, bd, nil
		}
	}

	got, err := c.readMisses(ctx, req.Metas, windows, tr, &bd)
	for id := range req.Metas {
		if data, ok := got[id]; ok {
			out[id] = data
		}
	}
	if err != nil {
		// Stale-if-error: when a missing block currently cannot be
		// reconstructed (too few of its sites are healthy), a
		// bounded-stale cache entry beats failing the whole request.
		// Any other failure — or any missing block without a fresh
		// enough entry — still fails the read.
		for id, meta := range req.Metas {
			if _, ok := out[id]; ok {
				continue
			}
			if !c.blockUnreadable(meta) {
				return nil, bd, err
			}
			data, _, ok := c.cache.GetStale(id)
			if !ok {
				return nil, bd, err
			}
			out[id] = data
		}
	}

	// A pack member is a slice of what was read of its container.
	for _, m := range members {
		data, base := out[m.PackedIn], int64(0)
		if r, ok := windows[m.PackedIn]; ok {
			data, base = got[m.PackedIn], r.off
		}
		if data == nil {
			return nil, bd, fmt.Errorf("read packed %s: %w", m.ID, err)
		}
		out[m.ID] = data[m.PackedOff-base:][:m.Size:m.Size]
	}
	return out, bd, nil
}

// GetRange reads n bytes of a block starting at byte offset off without
// assembling the whole block. It is the read GetMulti performs with a
// narrower window: the range is mapped to the per-chunk window of
// stripes it touches (erasure.Layout.Window), that window of k+Delta
// chunks is planned under the cost model and fetched with late binding,
// hedging and replanning, and the decoded window is gathered into the
// requested bytes. For a striped block a small range therefore reads and
// decodes a small fraction of its stripes; for a contiguous block a
// range inside one data chunk stays tight and a chunk-crossing range
// reads whole chunks. Range reads consult the decoded-block cache — a
// resident block is sliced without any site access or copy — but never
// populate it. Like every block the client returns, the result may share
// memory with the cache and other readers and must not be modified.
func (c *Client) GetRange(ctx context.Context, id model.BlockID, off, n int64) ([]byte, error) {
	ctx, cancel := c.requestCtx(ctx)
	defer cancel()
	c.obs.rangeReads.Inc()
	tr := c.tracer.Start("range")
	defer tr.Finish()

	// A block still staged in the packer is read through; the catalog
	// describes every other.
	var meta *model.BlockMeta
	var staged []byte
	isStaged := false
	if c.packer != nil {
		staged, isStaged = c.packer.get(id)
	}
	size := int64(len(staged))
	if !isStaged {
		sp := tr.StartSpan("metadata")
		metas, err := c.meta.Lookup([]model.BlockID{id})
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("metadata lookup: %w", err)
		}
		meta = metas[id]
		size = meta.Size
	}
	// The one bounds check, ahead of any slice or site access and in a
	// form off+n cannot overflow: both arrive as untrusted 64-bit values
	// from the gateway's fronts.
	if off < 0 || n < 0 || off > size || n > size-off {
		return nil, fmt.Errorf("%w: [%d,+%d) of %d-byte block %s", ErrRangeOutOfBounds, off, n, size, id)
	}
	if isStaged {
		c.obs.rangeBytes.Add(n)
		return staged[off : off+n : off+n], nil
	}
	if n == 0 {
		return []byte{}, nil
	}
	// A pack member's bytes are a range of its container: shift the
	// offset and read the container's chunks instead.
	if meta.Packed() {
		off += meta.PackedOff
		meta = containerView(meta)
	}
	r, err := rangeOf(meta, off, n)
	if err != nil {
		return nil, err
	}
	// A cached decoded block already holds every byte: slice the resident
	// block without touching any site. Entries are version-keyed, so a
	// moved or rewritten block cannot serve stale ranges.
	data, ok := c.cache.Get(meta.ID, meta.Version)
	if ok && off+n <= int64(len(data)) {
		c.obs.rangeCacheHit.Inc()
		data = data[off : off+n : off+n]
	} else {
		var bd model.Breakdown
		got, err := c.fetchBlocks(ctx, newReadSet(nil, map[model.BlockID]blockRead{meta.ID: r}), tr, &bd)
		if err != nil {
			return nil, err
		}
		data = got[meta.ID]
		if meta.Scheme == model.SchemeErasure {
			c.obs.rangeStripes.Add(layoutOf(meta).WindowStripes(r.lo, r.hi))
		}
	}
	c.obs.rangeBytes.Add(n)
	return data, nil
}

// containerView turns a synthesized pack-member meta into a readable
// view of its container: chunk refs must name the container, and the
// container's stored capacity stands in for its size, which member
// metadata does not carry (registration guarantees every member range
// fits the real size).
func containerView(meta *model.BlockMeta) *model.BlockMeta {
	v := meta.Clone()
	v.ID = meta.PackedIn
	v.Size = int64(v.K) * v.ChunkSize
	v.PackedIn, v.PackedOff = "", 0
	return v
}

// readMisses retrieves what the cache could not serve: the blocks in
// metas, whole, and the pack-container windows. With the cache enabled,
// concurrent requests for the same (block, version) coalesce onto one
// leader fetch+decode through the singleflight group, and followers
// whose leader failed get one direct fetch round of their own; a window
// is never admitted, so it is not coalesced either and rides with the
// leaders. On error the returned map may hold the reads that did
// succeed.
func (c *Client) readMisses(ctx context.Context, metas map[model.BlockID]*model.BlockMeta, windows map[model.BlockID]blockRead, tr *obs.Trace, bd *model.Breakdown) (map[model.BlockID][]byte, error) {
	if c.cache == nil {
		return c.fetchBlocks(ctx, newReadSet(metas, windows), tr, bd)
	}

	leaders := make(map[model.BlockID]*model.BlockMeta, len(metas))
	flights := make(map[model.BlockID]*cache.Flight, len(metas))
	followers := make(map[model.BlockID]*cache.Flight)
	for id, meta := range metas {
		f, leader := c.cache.Flights.Join(id, meta.Version)
		if leader {
			leaders[id] = meta
			flights[id] = f
		} else {
			followers[id] = f
		}
	}
	c.cache.DedupObserved(len(followers))

	out := make(map[model.BlockID][]byte, len(metas)+len(windows))
	var fetchErr error
	if len(leaders)+len(windows) > 0 {
		data, err := c.fetchBlocks(ctx, newReadSet(leaders, windows), tr, bd)
		for id, f := range flights {
			f.Complete(data[id], err)
		}
		if err != nil {
			fetchErr = err
		} else {
			for id, block := range data {
				out[id] = block
			}
			for id, meta := range leaders {
				c.cache.Put(id, meta.Version, data[id])
			}
		}
	}

	// Collect follower results; a failed or expired leader leaves its
	// followers to one direct fetch round for the remaining blocks.
	direct := make(map[model.BlockID]*model.BlockMeta)
	for id, f := range followers {
		data, err := f.Wait(ctx)
		if err != nil {
			direct[id] = metas[id]
			continue
		}
		out[id] = data
	}
	if len(direct) > 0 {
		data, err := c.fetchBlocks(ctx, newReadSet(direct, nil), tr, bd)
		if err != nil {
			if fetchErr == nil {
				fetchErr = err
			}
		} else {
			for id, meta := range direct {
				out[id] = data[id]
				c.cache.Put(id, meta.Version, data[id])
			}
		}
	}
	return out, fetchErr
}

// fetchBlocks runs read phases R2 (access planning) and R3 (parallel
// retrieval + decode) for the reads in s, accumulating phase durations
// into bd. Cache hits never reach this path.
func (c *Client) fetchBlocks(ctx context.Context, s readSet, tr *obs.Trace, bd *model.Breakdown) (map[model.BlockID][]byte, error) {
	req := placement.PlanRequest{Metas: s.metas, Available: c.available}

	// R2: access planning.
	t1 := time.Now()
	sp := tr.StartSpan("plan")
	plan, err := c.plan.Plan(req, c.costs())
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("plan access: %w", err)
	}
	bd.Planning += time.Since(t1).Seconds()
	c.obs.planH.Observe(time.Since(t1).Seconds())

	// R3: retrieval and decode. Site failures are discovered one fetch
	// at a time (an RPC error opens the site's breaker), so replanning
	// retries while the failure set keeps changing; once it stops
	// changing, another round would reproduce the same plan, so the
	// loop exits with the terminal error instead of spinning.
	t2 := time.Now()
	sp = tr.StartSpan("fetch")
	prevFailed := c.health.Unavailable()
	chunks, err := c.fetch(ctx, plan, s, sp)
	for attempt := 0; err != nil && attempt < len(c.sites); attempt++ {
		if ctx.Err() != nil {
			break // request deadline reached: replanning cannot help
		}
		nowFailed := c.health.Unavailable()
		if slices.Equal(nowFailed, prevFailed) {
			break // failure set stopped changing
		}
		prevFailed = nowFailed
		c.obs.replans.Inc()
		var planErr error
		plan, planErr = c.plan.Plan(req, c.costs())
		if planErr != nil {
			sp.End()
			return nil, fmt.Errorf("replan access: %w", planErr)
		}
		chunks, err = c.fetch(ctx, plan, s, sp)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	bd.Retrieve += time.Since(t2).Seconds()
	c.obs.fetchH.Observe(time.Since(t2).Seconds())

	t3 := time.Now()
	sp = tr.StartSpan("decode")
	// The chunk buffers have served their one hop once the blocks are
	// decoded out of them (or decoding failed): planned, surplus and
	// hedge chunks alike go back to the pool.
	defer releaseChunks(chunks)
	out := make(map[model.BlockID][]byte, len(s.metas))
	for id := range s.metas {
		data, err := c.assemble(s.read(id), chunks[id])
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("decode %s: %w", id, err)
		}
		out[id] = data
	}
	sp.End()
	bd.Decode += time.Since(t3).Seconds()
	c.obs.decodeH.Observe(time.Since(t3).Seconds())
	return out, nil
}

// blockUnreadable reports whether meta's block currently cannot be
// reconstructed: fewer healthy sites hold its chunks than a decode
// needs. Only then may a stale cache entry stand in for the block.
func (c *Client) blockUnreadable(meta *model.BlockMeta) bool {
	return c.health.CountAvailable(meta.Sites) < meta.RequiredChunks()
}

// fetchResult carries one chunk retrieval outcome. data is a bufpool
// buffer owned by whoever holds the result.
type fetchResult struct {
	ref   model.ChunkRef
	site  model.SiteID
	data  []byte
	err   error
	hedge bool
}

// chunkSink carries chunk reads from the goroutines performing them to
// the one collector that started them, and makes sure every chunk buffer
// has exactly one owner even though the collector usually leaves before
// the last read lands (late binding, hedging, errors): until finish the
// collector receives from ch and owns what it receives; from then on
// whatever is or arrives in ch is released by whoever sees it first.
type chunkSink struct {
	// ch is buffered for every read the collector can start, so send
	// never blocks.
	ch   chan fetchResult
	done atomic.Bool
}

func newChunkSink(reads int) *chunkSink {
	return &chunkSink{ch: make(chan fetchResult, reads)}
}

// send delivers one read's outcome. If the collector has already
// finished, the sender releases the buffer itself: either finish's drain
// saw this result, or done was set before the Load below.
func (s *chunkSink) send(res fetchResult) {
	s.ch <- res
	if s.done.Load() {
		s.drain()
	}
}

// finish ends collection: results already queued and every later one
// are released instead of received.
func (s *chunkSink) finish() {
	s.done.Store(true)
	s.drain()
}

func (s *chunkSink) drain() {
	for {
		select {
		case res := <-s.ch:
			bufpool.Put(res.data)
		default:
			return
		}
	}
}

// releaseChunks returns every fetched chunk buffer left in got to the
// pool. assemble removes the one chunk it hands out as a block first.
func releaseChunks(got map[model.BlockID]map[int][]byte) {
	for _, chunks := range got {
		for _, data := range chunks {
			bufpool.Put(data)
		}
	}
}

// fetch executes an access plan: one goroutine per accessed site issues
// that site's chunk reads sequentially (modelling one connection per site),
// and the caller completes as soon as every block has k chunks. In-flight
// reads are canceled the moment the request is satisfied or fails, and
// surplus late-binding responses are released as they trickle in. When
// hedging is enabled, blocks still unsatisfied after the hedge threshold
// get one extra chunk read from the cheapest not-yet-planned site.
//
// On success the caller owns the returned chunk buffers (releaseChunks);
// on error they have all been released already.
func (c *Client) fetch(ctx context.Context, plan *model.AccessPlan, s readSet, span obs.SpanRef) (map[model.BlockID]map[int][]byte, error) {
	total := plan.ChunkCount()
	fetchCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Room for every planned read plus one hedge per block.
	results := newChunkSink(total + len(s.metas))
	defer results.finish()
	for _, site := range plan.SortedSites() {
		refs := plan.Reads[site]
		var siteSpan obs.SpanRef
		if span.Active() {
			siteSpan = span.Child("site " + strconv.FormatInt(int64(site), 10))
		}
		go c.fetchSite(fetchCtx, site, refs, s, siteSpan, results)
	}

	got := make(map[model.BlockID]map[int][]byte, len(s.metas))
	satisfied := 0
	failures := 0
	fetched := 0
	plannedSeen := 0
	hedgesLaunched := 0
	hedgesWon := 0

	var hedgeC <-chan time.Time
	if d := c.hedgeThreshold(); d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		hedgeC = timer.C
	}

	flush := func() {
		c.obs.chunksFetched.Add(int64(fetched))
		c.obs.fetchErrors.Add(int64(failures))
		c.obs.lateDiscarded.Add(int64(total - plannedSeen))
		c.obs.hedges.Add(int64(hedgesLaunched))
		c.obs.hedgesWon.Add(int64(hedgesWon))
		c.obs.hedgesLost.Add(int64(hedgesLaunched - hedgesWon))
	}

	outstanding := total
	for outstanding > 0 && satisfied < len(s.metas) {
		select {
		case res := <-results.ch:
			outstanding--
			if !res.hedge {
				plannedSeen++
			}
			if res.err != nil {
				if errors.Is(res.err, context.Canceled) && ctx.Err() == nil {
					continue // canceled by our own completion; not a failure
				}
				failures++
				if isSiteFailure(res.err) {
					c.health.ReportFailure(res.site)
				}
				continue
			}
			c.health.ReportSuccess(res.site)
			fetched++
			m := got[res.ref.Block]
			if m == nil {
				m = make(map[int][]byte)
				got[res.ref.Block] = m
			}
			if _, dup := m[res.ref.Chunk]; dup {
				bufpool.Put(res.data)
				continue
			}
			need := s.metas[res.ref.Block].RequiredChunks()
			wasSatisfied := len(m) >= need
			m[res.ref.Chunk] = res.data
			if res.hedge && !wasSatisfied {
				hedgesWon++
			}
			if !wasSatisfied && len(m) == need {
				satisfied++
			}

		case <-hedgeC:
			hedgeC = nil
			n := c.launchHedges(fetchCtx, plan, s, got, results)
			hedgesLaunched += n
			outstanding += n

		case <-ctx.Done():
			c.obs.deadlines.Inc()
			flush()
			releaseChunks(got)
			return nil, fmt.Errorf("core: fetch: %w", ctx.Err())
		}
	}
	flush()

	if satisfied < len(s.metas) {
		for id, meta := range s.metas {
			if need := meta.RequiredChunks(); len(got[id]) < need {
				err := fmt.Errorf("%w: %s has %d of %d chunks", ErrBlockUnavailable, id, len(got[id]), need)
				releaseChunks(got)
				return nil, err
			}
		}
	}
	return got, nil
}

// fetchSite issues one site's planned reads sequentially (one connection
// per site). After a site-level failure, the remaining refs fail fast
// instead of being attempted, so a hung site costs at most one per-chunk
// timeout per fetch round rather than one per planned read.
func (c *Client) fetchSite(ctx context.Context, site model.SiteID, refs []model.ChunkRef, s readSet, siteSpan obs.SpanRef, results *chunkSink) {
	defer siteSpan.End()
	api := c.sites[site]
	var down error
	if api == nil {
		down = fmt.Errorf("%w: site %d", ErrNoSites, site)
	}
	for _, ref := range refs {
		if down == nil && ctx.Err() != nil {
			down = ctx.Err()
		}
		if down != nil {
			results.send(fetchResult{ref: ref, site: site, err: down})
			continue
		}
		data, err := c.readChunk(ctx, api, ref, s.read(ref.Block))
		results.send(fetchResult{ref: ref, site: site, data: data, err: err})
		if err != nil && !errors.Is(err, context.Canceled) && isSiteFailure(err) {
			down = err
		}
	}
}

// hedgeThreshold returns the current hedge trigger delay, HedgeDelay.
// Zero disables hedging.
func (c *Client) hedgeThreshold() time.Duration {
	if c.cfg.HedgeDelay <= 0 {
		return 0
	}
	// Under access-tier overload (gateway queue occupied), speculative
	// duplicate reads only add load; shed them first.
	if c.pressure.Overloaded() {
		c.obs.hedgesSuppressed.Inc()
		return 0
	}
	return c.cfg.HedgeDelay
}

// launchHedges issues at most one extra chunk read per unsatisfied block,
// extending late binding: the hedge targets a chunk the plan did not
// select, fetched from the cheapest available holder under the Eq. 1 cost
// model (o_j + m_j x window size). Returns how many hedges were started.
func (c *Client) launchHedges(ctx context.Context, plan *model.AccessPlan, s readSet, got map[model.BlockID]map[int][]byte, results *chunkSink) int {
	costs := c.costs()
	launched := 0
	for id, meta := range s.metas {
		if len(got[id]) >= meta.RequiredChunks() {
			continue
		}
		best := -1
		var bestCost float64
		for chunk, site := range meta.Sites {
			if site == model.NoSite || slices.Contains(plan.Reads[site], model.ChunkRef{Block: id, Chunk: chunk}) {
				continue
			}
			if _, have := got[id][chunk]; have {
				continue
			}
			if c.sites[site] == nil || !c.available(site) {
				continue
			}
			cost := costs.OCost(site) + costs.MCost(site)*float64(meta.ChunkSize)
			if best == -1 || cost < bestCost {
				best, bestCost = chunk, cost
			}
		}
		if best == -1 {
			continue // no unplanned chunk left on an available site
		}
		ref := model.ChunkRef{Block: id, Chunk: best}
		site := meta.Sites[best]
		api := c.sites[site]
		launched++
		//lint:ignore goleak ends with the one read it performs, which honours ctx (canceled when fetch returns); the sink send never blocks
		go func(site model.SiteID, api storage.SiteAPI, ref model.ChunkRef, r blockRead) {
			data, err := c.readChunk(ctx, api, ref, r)
			// The request may have been satisfied (or expired) while
			// this hedge was in flight; the sink then releases the chunk.
			results.send(fetchResult{ref: ref, site: site, data: data, err: err, hedge: true})
		}(site, api, ref, s.read(id))
	}
	return launched
}

// readChunk reads r's window of one chunk under the per-attempt deadline
// and retry policy: the whole chunk through GetChunk, which verifies its
// CRC, anything narrower through GetChunkRange. Missing chunks and
// deadline errors are never retried on the same site: the former cannot
// improve, and the latter already cost a full ChunkTimeout, so the site
// is left to the breaker and replanning.
func (c *Client) readChunk(ctx context.Context, api storage.SiteAPI, ref model.ChunkRef, r blockRead) ([]byte, error) {
	var data []byte
	var err error
	for attempt := 0; attempt < c.cfg.Retry.MaxAttempts; attempt++ {
		if attempt > 0 && !c.retry.wait(ctx, attempt) {
			return nil, ctx.Err()
		}
		cctx, cancel := c.chunkCtx(ctx)
		if r.wholeChunks() {
			data, err = api.GetChunk(cctx, ref)
		} else {
			data, err = api.GetChunkRange(cctx, ref, r.lo, r.hi-r.lo)
			if err == nil && int64(len(data)) != r.hi-r.lo {
				// A short segment means the stored chunk disagrees with the
				// metadata's layout; retrying the same site cannot help.
				cancel()
				bufpool.Put(data)
				return nil, fmt.Errorf("%w: %s [%d,%d) returned %d bytes", storage.ErrShortChunk, ref, r.lo, r.hi, len(data))
			}
		}
		cancel()
		if err == nil || !retryable(err) {
			return data, err
		}
	}
	return nil, err
}

// assemble turns the fetched chunk windows into the block bytes r asks
// for. In general the windows are decoded into one k-window scratch and
// the bytes gathered out of it, which is what undoes a striped block's
// interleaving; a contiguous block read from byte 0 is a prefix of that
// scratch, so it decodes straight into its result.
//
// The bytes it returns are a fresh value nobody else references, ready to
// be shared read-only by the cache and the caller. Under replication
// that value is one of the fetched windows itself: it is removed from
// chunks so the caller's releaseChunks cannot recycle it.
func (c *Client) assemble(r blockRead, chunks map[int][]byte) ([]byte, error) {
	if r.meta.Scheme == model.SchemeReplicated {
		for id, data := range chunks {
			delete(chunks, id)
			return data, nil
		}
		return nil, fmt.Errorf("%w: no replica fetched", ErrBlockUnavailable)
	}
	data := make([]byte, r.n)
	if r.meta.StripeUnit == 0 && r.off == 0 {
		return data, c.codec.DecodeInto(data, chunks)
	}
	// Scratch that lives for this call only; DecodeInto overwrites
	// every byte of it.
	win := bufpool.Get(int(int64(r.meta.K) * (r.hi - r.lo)))
	defer bufpool.Put(win)
	if err := c.codec.DecodeInto(win, chunks); err != nil {
		return nil, err
	}
	if err := layoutOf(r.meta).Gather(data, win, r.lo, r.off); err != nil {
		return nil, err
	}
	return data, nil
}

// layoutOf builds the range-addressing view of a block's chunk layout.
func layoutOf(meta *model.BlockMeta) erasure.Layout {
	return erasure.Layout{
		K:          meta.K,
		BlockSize:  meta.Size,
		ChunkSize:  meta.ChunkSize,
		StripeUnit: meta.StripeUnit,
	}
}

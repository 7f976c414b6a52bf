package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"ecstore/internal/bufpool"
	"ecstore/internal/model"
	"ecstore/internal/storage"
)

// ErrRangeOutOfBounds reports a byte range outside a block.
var ErrRangeOutOfBounds = errors.New("core: range outside block")

// GetRange reads n bytes of a block starting at byte offset off without
// assembling the whole block: the range is mapped to the per-chunk
// window of stripes it touches (erasure.Layout.Window), only those
// chunk segments are fetched via GetChunkRange, and the window is
// decoded and gathered into the requested bytes. For a striped block a
// small range therefore reads and decodes a small fraction of its
// stripes; a legacy contiguous block degrades gracefully (a range
// inside one data chunk stays tight, a chunk-crossing range reads whole
// chunks). Range reads of cached decoded blocks are sliced from the
// cache without any site access or copy; like every block the client
// returns, the result may share memory with the cache and other readers
// and must not be modified.
func (c *Client) GetRange(ctx context.Context, id model.BlockID, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("%w: [%d,+%d)", ErrRangeOutOfBounds, off, n)
	}
	ctx, cancel := c.requestCtx(ctx)
	defer cancel()
	c.obs.rangeReads.Inc()

	// Read-through for blocks still staged in the packer.
	if c.packer != nil {
		if data, ok := c.packer.get(id); ok {
			if off+n > int64(len(data)) {
				return nil, fmt.Errorf("%w: [%d,%d) of %d-byte staged block %s", ErrRangeOutOfBounds, off, off+n, len(data), id)
			}
			c.obs.rangeBytes.Add(n)
			return data[off : off+n : off+n], nil
		}
	}

	metas, err := c.meta.Lookup([]model.BlockID{id})
	if err != nil {
		return nil, fmt.Errorf("metadata lookup: %w", err)
	}
	meta := metas[id]
	if off+n > meta.Size {
		return nil, fmt.Errorf("%w: [%d,%d) of %d-byte block %s", ErrRangeOutOfBounds, off, off+n, meta.Size, id)
	}
	// A pack member's bytes are a sub-range of its container: shift the
	// offset and read the container's chunks instead.
	if meta.Packed() {
		off += meta.PackedOff
		meta = containerView(meta)
	}
	return c.rangeRead(ctx, meta, off, n)
}

// containerView turns a synthesized pack-member meta into a readable
// view of its container: chunk refs must name the container, and the
// member's end offset is a valid lower bound for the container size in
// the window math (registration guarantees PackedOff+Size fits).
func containerView(meta *model.BlockMeta) *model.BlockMeta {
	v := meta.Clone()
	v.ID = meta.PackedIn
	v.Size = meta.PackedOff + meta.Size
	v.PackedIn, v.PackedOff = "", 0
	return v
}

// rangeRead serves [off, off+n) of the (non-packed) block described by
// meta. The caller has bounds-checked the range against meta.Size.
func (c *Client) rangeRead(ctx context.Context, meta *model.BlockMeta, off, n int64) ([]byte, error) {
	if n == 0 {
		return []byte{}, nil
	}
	// A cached decoded block already holds every byte: slice the resident
	// block without touching any site. Entries are version-keyed, so a
	// moved or rewritten block cannot serve stale ranges.
	if c.cache != nil {
		if data, ok := c.cache.Get(meta.ID, meta.Version); ok && off+n <= int64(len(data)) {
			c.obs.rangeCacheHit.Inc()
			c.obs.rangeBytes.Add(n)
			return data[off : off+n : off+n], nil
		}
	}
	if meta.Scheme == model.SchemeReplicated {
		return c.rangeReplica(ctx, meta, off, n)
	}

	lay := layoutOf(meta)
	lo, hi, err := lay.Window(off, n)
	if err != nil {
		return nil, err
	}
	segs, err := c.fetchSegments(ctx, meta, lo, hi)
	if err != nil {
		return nil, err
	}
	defer releaseAll(segs)
	win := bufpool.Get(int(int64(meta.K) * (hi - lo)))
	defer bufpool.Put(win)
	if err := c.codec.DecodeInto(win, segs); err != nil {
		return nil, fmt.Errorf("decode range of %s: %w", meta.ID, err)
	}
	dst := make([]byte, n)
	if err := lay.Gather(dst, win, lo, off); err != nil {
		return nil, fmt.Errorf("gather range of %s: %w", meta.ID, err)
	}
	c.obs.rangeStripes.Add(lay.WindowStripes(lo, hi))
	c.obs.rangeBytes.Add(n)
	return dst, nil
}

// rangeReplica serves a range of a replicated block: every copy holds
// the whole block, so the bytes come straight from the first healthy
// replica that answers.
func (c *Client) rangeReplica(ctx context.Context, meta *model.BlockMeta, off, n int64) ([]byte, error) {
	var lastErr error
	for chunk := 0; chunk < len(meta.Sites); chunk++ {
		site := meta.Sites[chunk]
		api := c.sites[site]
		if site == model.NoSite || api == nil || !c.available(site) {
			continue
		}
		data, err := c.readSegment(ctx, api, model.ChunkRef{Block: meta.ID, Chunk: chunk}, off, n)
		if err != nil {
			c.obs.fetchErrors.Inc()
			if isSiteFailure(err) {
				c.health.ReportFailure(site)
			}
			lastErr = err
			continue
		}
		c.health.ReportSuccess(site)
		c.obs.chunksFetched.Inc()
		c.obs.rangeBytes.Add(n)
		return data, nil
	}
	if lastErr == nil {
		lastErr = ErrNoSites
	}
	return nil, fmt.Errorf("%w: %s: %w", ErrBlockUnavailable, meta.ID, lastErr)
}

// fetchSegments retrieves the window [lo, hi) of any k of meta's chunks
// in parallel. Data chunks are preferred (present data segments decode
// by memcpy; every parity segment costs k kernel passes), breaker-open
// sites are tried only as spares, and each failure promotes the next
// candidate until k segments arrive or the candidates run out. The
// caller owns the returned segment buffers; on error there are none.
func (c *Client) fetchSegments(ctx context.Context, meta *model.BlockMeta, lo, hi int64) (map[int][]byte, error) {
	need := meta.K
	var primary, spare []int
	for chunk, site := range meta.Sites {
		if site == model.NoSite || c.sites[site] == nil {
			continue
		}
		if c.available(site) {
			primary = append(primary, chunk)
		} else {
			spare = append(spare, chunk)
		}
	}
	sort.Ints(primary)
	sort.Ints(spare)
	candidates := append(primary, spare...)
	if len(candidates) < need {
		return nil, fmt.Errorf("%w: %s has %d reachable chunks, need %d", ErrBlockUnavailable, meta.ID, len(candidates), need)
	}

	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := newChunkSink(len(candidates))
	defer results.finish()
	launch := func(chunk int) {
		site := meta.Sites[chunk]
		api := c.sites[site]
		ref := model.ChunkRef{Block: meta.ID, Chunk: chunk}
		//lint:ignore goleak ends with the one read it performs, which honours fctx (canceled when fetchSegments returns); the sink send never blocks
		go func() {
			data, err := c.readSegment(fctx, api, ref, lo, hi-lo)
			results.send(fetchResult{ref: ref, site: site, data: data, err: err})
		}()
	}
	next := 0
	inflight := 0
	for ; next < need; next++ {
		launch(candidates[next])
		inflight++
	}

	segs := make(map[int][]byte, need)
	var lastErr error
	for len(segs) < need && inflight > 0 {
		select {
		case res := <-results.ch:
			inflight--
			if res.err != nil {
				c.obs.fetchErrors.Inc()
				if isSiteFailure(res.err) {
					c.health.ReportFailure(res.site)
				}
				lastErr = res.err
				if next < len(candidates) {
					launch(candidates[next])
					next++
					inflight++
				}
				continue
			}
			c.health.ReportSuccess(res.site)
			c.obs.chunksFetched.Inc()
			segs[res.ref.Chunk] = res.data
		case <-ctx.Done():
			c.obs.deadlines.Inc()
			releaseAll(segs)
			return nil, fmt.Errorf("core: range fetch: %w", ctx.Err())
		}
	}
	if len(segs) < need {
		releaseAll(segs)
		return nil, fmt.Errorf("%w: %s range fetch got %d of %d segments: %w", ErrBlockUnavailable, meta.ID, len(segs), need, lastErr)
	}
	return segs, nil
}

// readSegment performs one chunk-range read under the per-attempt
// deadline and retry policy, mirroring readChunk's classification of
// which failures are worth a second attempt on the same site.
func (c *Client) readSegment(ctx context.Context, api storage.SiteAPI, ref model.ChunkRef, off, n int64) ([]byte, error) {
	var data []byte
	var err error
	for attempt := 0; attempt < c.cfg.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.obs.retries.Inc()
			if !c.backoff(ctx, attempt) {
				return nil, ctx.Err()
			}
		}
		cctx, cancel := c.chunkCtx(ctx)
		data, err = api.GetChunkRange(cctx, ref, off, n)
		cancel()
		if err == nil && int64(len(data)) != n {
			// A short segment means the stored chunk disagrees with the
			// metadata's layout; retrying the same site cannot help.
			bufpool.Put(data)
			return nil, fmt.Errorf("%w: %s [%d,+%d) returned %d bytes", storage.ErrShortChunk, ref, off, n, len(data))
		}
		if err == nil || !retryable(err) {
			return data, err
		}
	}
	return nil, err
}

package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"ecstore/internal/bufpool"
	"ecstore/internal/erasure"
	"ecstore/internal/model"
	"ecstore/internal/storage"
)

// PutReader stores a block of unknown length from r through the
// streaming pipeline: the reader is consumed one stripe (K*StripeUnit
// bytes) at a time, each stripe is erasure-encoded as soon as it is
// read, and its k+r chunk segments are shipped to the sites via
// PutChunkStream while the next stripe is already being read and
// encoded. At most streamDepth stripes are in flight at once, so
// memory stays bounded at depth pooled stripe buffers regardless of the
// block's size. The resulting block is stripe-interleaved
// (BlockMeta.StripeUnit > 0): whole-block reads reassemble it
// transparently, and GetRange fetches only the stripes a byte range
// touches.
//
// The write commits atomically at metadata registration: until Register
// succeeds no reader can observe the block, and on any failure the
// partially written chunks are rolled back best-effort, exactly like
// PutContext. Replicated clients fall back to buffering the reader and
// writing whole copies (replication has no stripes to pipeline).
//
// It returns the number of payload bytes consumed from r.
func (c *Client) PutReader(ctx context.Context, id model.BlockID, r io.Reader) (int64, error) {
	if id == "" {
		return 0, errors.New("core: empty block id")
	}
	if c.cfg.Scheme == model.SchemeReplicated {
		data, err := io.ReadAll(r)
		if err != nil {
			return 0, fmt.Errorf("read stream for %s: %w", id, err)
		}
		if err := c.PutContext(ctx, id, data); err != nil {
			return 0, err
		}
		return int64(len(data)), nil
	}
	return c.streamPut(ctx, id, r, nil)
}

// streamPut is the erasure streaming write shared by PutReader and the
// packer's container seal (which additionally registers the members).
func (c *Client) streamPut(ctx context.Context, id model.BlockID, r io.Reader, members []model.PackedMember) (int64, error) {
	ctx, cancel := c.requestCtx(ctx)
	defer cancel()
	unit := c.cfg.StripeUnit
	k := c.cfg.K
	stripeBytes := int(unit) * k

	chosen, err := c.place(c.totalChunks())
	if err != nil {
		return 0, fmt.Errorf("place %s: %w", id, err)
	}

	// The write pipeline: the loop below reads and encodes stripe N
	// while up to streamDepth earlier stripes' segment writes drain in
	// background goroutines. The first write error cancels wctx, which
	// both stops in-flight writes and unblocks the semaphore wait.
	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	sem := make(chan struct{}, streamDepth)
	var wg sync.WaitGroup
	var failMu sync.Mutex
	var failErr error // first pipeline error (read, encode or write)

	fail := func(err error) {
		failMu.Lock()
		if failErr == nil {
			failErr = err
			wcancel()
		}
		failMu.Unlock()
	}

	var total int64
	var stripes int64
	for done := false; !done; {
		// One pooled buffer per stripe: EncodePooled over an exactly
		// stripe-sized input aliases every data chunk into it, so the
		// buffer must live until the stripe's writes finish.
		buf := bufpool.Get(stripeBytes)
		n, rerr := io.ReadFull(r, buf)
		switch {
		case rerr == nil:
			// Full stripe; a later zero-length read will end the loop.
		case errors.Is(rerr, io.ErrUnexpectedEOF) || (errors.Is(rerr, io.EOF) && (n > 0 || stripes == 0)):
			// Tail stripe (or an empty block's single all-zero stripe):
			// zero the pooled remainder, which doubles as RS padding.
			clear(buf[n:])
			done = true
		case errors.Is(rerr, io.EOF):
			bufpool.Put(buf)
			done = true
			continue
		default:
			bufpool.Put(buf)
			fail(fmt.Errorf("read stream for %s: %w", id, rerr))
			done = true
			continue
		}
		total += int64(n)

		stripe, eerr := c.codec.EncodePooled(buf)
		if eerr != nil {
			bufpool.Put(buf)
			fail(fmt.Errorf("encode stripe %d of %s: %w", stripes, id, eerr))
			break
		}

		select {
		case sem <- struct{}{}:
		case <-wctx.Done():
			stripe.Release()
			bufpool.Put(buf)
			done = true
			continue
		}
		wg.Add(1)
		go func(t int64, buf []byte, stripe *erasure.Stripe) {
			defer wg.Done()
			defer func() {
				stripe.Release()
				bufpool.Put(buf)
				<-sem
			}()
			if err := c.writeStripe(wctx, id, chosen, t, stripe.Chunks()); err != nil {
				fail(err)
			}
		}(stripes, buf, stripe)
		stripes++
	}
	wg.Wait()

	failMu.Lock()
	err = failErr
	failMu.Unlock()
	if err != nil {
		c.cleanupChunks(ctx, id, chosen, nil)
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		c.cleanupChunks(ctx, id, chosen, nil)
		return 0, fmt.Errorf("core: stream put %s: %w", id, err)
	}

	meta := &model.BlockMeta{
		ID:         id,
		Scheme:     model.SchemeErasure,
		Size:       total,
		K:          k,
		R:          c.cfg.R,
		ChunkSize:  stripes * unit,
		Sites:      chosen,
		StripeUnit: unit,
		Members:    members,
	}
	if err := c.meta.Register(meta); err != nil {
		c.cleanupChunks(ctx, id, chosen, nil)
		return 0, fmt.Errorf("register %s: %w", id, err)
	}
	c.cache.Invalidate(id)
	c.obs.puts.Inc()
	c.obs.streamPuts.Inc()
	c.obs.streamStripes.Add(stripes)
	c.obs.streamBytes.Add(total)
	return total, nil
}

// writeStripe ships one encoded stripe: chunk c's segment lands at
// chunk offset t*StripeUnit on its site, with the same bounded fan-out
// discipline as PutContext (storeChunks).
func (c *Client) writeStripe(ctx context.Context, id model.BlockID, chosen []model.SiteID, t int64, chunks [][]byte) error {
	off := t * c.cfg.StripeUnit
	errs := c.storeChunks(ctx, id, chosen, func(ctx context.Context, site storage.SiteAPI, ref model.ChunkRef) error {
		return site.PutChunkStream(ctx, ref, off, chunks[ref.Chunk])
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("stream chunk %d stripe %d of %s: %w", i, t, id, err)
		}
	}
	return nil
}

package erasure

import (
	"sync"

	"ecstore/internal/bufpool"
	"ecstore/internal/gf256"
	"ecstore/internal/obs"
)

// Metrics receives codec throughput counters. All fields and the
// receiver itself are nil-safe, so an unwired codec pays only nil
// checks.
type Metrics struct {
	// EncodeBytes counts block bytes erasure-encoded.
	EncodeBytes *obs.Counter
	// DecodeBytes counts block bytes reconstructed by decode.
	DecodeBytes *obs.Counter
}

func (m *Metrics) encoded(n int) {
	if m != nil {
		m.EncodeBytes.Add(int64(n))
	}
}

func (m *Metrics) decoded(n int) {
	if m != nil {
		m.DecodeBytes.Add(int64(n))
	}
}

// Stripe is the result of EncodePooled: the k+r chunks of one encoded
// block, backed by at most one bufpool buffer.
//
// Ownership: chunk ids [0,k) may alias the block passed to
// EncodePooled; padded data chunks and all parity chunks live in the
// pooled backing array, which the stripe owns exclusively until
// Release. The caller must treat every chunk as read-only, must not
// retain any chunk past Release, and must not mutate the source block
// until Release. The consumers that outlive the stripe are the site
// stores, which copy on ingest (locally) or have the chunk fully written
// to their socket (remotely) before the put call returns.
type Stripe struct {
	chunks  [][]byte
	backing []byte
}

// Chunks returns the k+r chunks indexed by chunk id: ids [0,k) are data
// chunks, ids [k,k+r) are parity chunks.
func (s *Stripe) Chunks() [][]byte { return s.chunks }

// Release returns the stripe's pooled backing for reuse. No chunk may
// be used afterwards. Release is idempotent but not concurrency-safe.
func (s *Stripe) Release() {
	if s.backing == nil && s.chunks == nil {
		return
	}
	bufpool.Put(s.backing)
	s.backing = nil
	clear(s.chunks)
	s.chunks = s.chunks[:0]
	stripePool.Put(s)
}

var stripePool = sync.Pool{New: func() any { return new(Stripe) }}

// EncodePooled splits a block into k data chunks and computes its r
// parity chunks without copying the data path: data chunks alias data
// wherever a full chunk is available, and only the zero-padded tail and
// the parity chunks are written into a pooled backing array. See Stripe
// for the ownership rules. Use Encode when the chunks must outlive the
// source block.
func (c *Codec) EncodePooled(data []byte) (*Stripe, error) {
	size := c.ChunkSize(len(data))
	total := c.k + c.r

	st := stripePool.Get().(*Stripe)
	if cap(st.chunks) < total {
		st.chunks = make([][]byte, total)
	} else {
		st.chunks = st.chunks[:total]
	}

	// Chunks that cannot alias data (short or empty tails) are packed in
	// front of the parity chunks in one pooled backing array.
	nPad := 0
	for i := 0; i < c.k; i++ {
		if i*size+size > len(data) {
			nPad++
		}
	}
	st.backing = bufpool.Get((nPad + c.r) * size)
	backing := st.backing

	pad := 0
	for i := 0; i < c.k; i++ {
		lo := i * size
		hi := lo + size
		if hi <= len(data) {
			st.chunks[i] = data[lo:hi:hi]
			continue
		}
		if lo > len(data) {
			lo = len(data)
		}
		b := backing[pad*size : (pad+1)*size]
		n := copy(b, data[lo:])
		clear(b[n:])
		st.chunks[i] = b
		pad++
	}
	for p := 0; p < c.r; p++ {
		st.chunks[c.k+p] = backing[(nPad+p)*size : (nPad+p+1)*size]
	}

	// The inline path stays closure-free: evaluating the shard closure
	// would cost an allocation per encode even when sharding never runs.
	if size < c.stripeMin || c.workers <= 1 {
		c.encodeParity(st.chunks, 0, size)
	} else {
		c.shardRange(size, func(lo, hi int) {
			c.encodeParity(st.chunks, lo, hi)
		})
	}
	c.metrics.encoded(len(data))
	return st, nil
}

// encodeParity fills the byte range [lo, hi) of every parity chunk from
// the data chunks.
func (c *Codec) encodeParity(chunks [][]byte, lo, hi int) {
	for p := 0; p < c.r; p++ {
		row := c.encode.Row(c.k + p)
		parity := chunks[c.k+p][lo:hi]
		gf256.MulSlice(row[0], chunks[0][lo:hi], parity)
		for j := 1; j < c.k; j++ {
			gf256.MulAddSlice(row[j], chunks[j][lo:hi], parity)
		}
	}
}

// shardRange runs fn over [0, size) — in shards on separate goroutines
// when the stripe is at least StripeThreshold bytes and more than one
// worker is configured, inline otherwise. Shard boundaries are rounded
// to 64 bytes so the vector kernels keep full lanes and shards do not
// share cache lines.
func (c *Codec) shardRange(size int, fn func(lo, hi int)) {
	w := c.workers
	if size < c.stripeMin || w <= 1 {
		fn(0, size)
		return
	}
	step := (size + w - 1) / w
	step = (step + 63) &^ 63
	var wg sync.WaitGroup
	for lo := step; lo < size; lo += step {
		hi := lo + step
		if hi > size {
			hi = size
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	fn(0, min(step, size))
	wg.Wait()
}

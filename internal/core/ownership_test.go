package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/stats"
)

// The tests in this file pin the read path's buffer-ownership rules
// (DESIGN.md §12). They rely on TestMain's poison mode: a buffer that is
// released while someone can still see it turns into 0xDB under the
// reader at that moment, a buffer released twice panics, and
// bufpool.Outstanding counts the buffers that were taken and not put
// back.

// settledOutstanding waits for in-flight work that still holds pool
// buffers (late-binding surplus reads, an rpc server finishing a
// response) to drain, and returns the count of unreleased buffers once
// it has stopped moving.
func settledOutstanding(t *testing.T) int64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	last, stable := bufpool.Outstanding(), 0
	for stable < 5 {
		if time.Now().After(deadline) {
			t.Fatal("pool buffer count never settled")
		}
		time.Sleep(2 * time.Millisecond)
		if now := bufpool.Outstanding(); now == last {
			stable++
		} else {
			last, stable = now, 0
		}
	}
	return last
}

// TestCachedReadsShareTheResidentBlock is the by-reference contract end
// to end: the miss that fills the cache returns the very slice the cache
// keeps, every later hit returns it again, and a cached GetRange is a
// window into it — no block-sized buffer is allocated for either.
func TestCachedReadsShareTheResidentBlock(t *testing.T) {
	cfg := cacheTestConfig()
	cfg.CacheBytes = 4 << 20 // room for the 100 KB block many times over
	c := newTestCluster(t, ClusterConfig{Client: cfg})
	data := blockData(100<<10, 5)
	if err := c.Client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	first, err := c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, data) {
		t.Fatal("the decoded block was built on a buffer that went back to the pool")
	}
	hit, err := c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if &hit[0] != &first[0] {
		t.Fatal("cache hit returned a copy, want the resident block")
	}
	const off, n = 4096, 8192
	rng, err := c.Client.GetRange(context.Background(), "blk", off, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(rng) != n || &rng[0] != &first[off] {
		t.Fatal("cached GetRange returned a copy, want a window into the resident block")
	}
	if cap(rng) != n {
		t.Fatalf("cached GetRange window has capacity %d, want %d (appends must not reach the block)", cap(rng), n)
	}
	if st := c.Client.CacheStats(); st.Hits != 2 || st.Inserts != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 insert", st)
	}
}

// TestReadPathReleasesEveryChunkOnce reads uncached blocks with late
// binding (k+1 chunks fetched, k used), in process and over the
// in-memory transport, and checks the pool's books balance afterwards:
// planned chunks, the surplus chunk that lands after the request was
// answered, the decode window, rpc request and response frames were each
// released exactly once — a second release would have panicked, a
// missing one leaves the count high.
func TestReadPathReleasesEveryChunkOnce(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		rig  string
	}{
		{"late-binding/in-process", Config{Delta: 1, Seed: 3}, "local"},
		{"late-binding/rpc", Config{Delta: 1, Seed: 3}, "rpc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			var client *Client
			if tc.rig == "rpc" {
				d := newDistributedCluster(t, 6, tc.cfg)
				defer d.Close()
				client = d.client
			} else {
				client = newTestCluster(t, ClusterConfig{Client: tc.cfg, Metrics: reg}).Client
			}
			whole := blockData(100<<10, 7)
			striped := blockData(300<<10, 9)
			if err := client.Put("whole", whole); err != nil {
				t.Fatal(err)
			}
			if _, err := client.PutReader(context.Background(), "striped", bytes.NewReader(striped)); err != nil {
				t.Fatal(err)
			}
			base := settledOutstanding(t)
			for i := 0; i < 5; i++ {
				got, _, err := client.GetMulti([]model.BlockID{"whole", "striped"})
				if err != nil {
					t.Fatal(err)
				}
				rng, err := client.GetRange(context.Background(), "striped", 70_000, 90_000)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got["whole"], whole) || !bytes.Equal(got["striped"], striped) {
					t.Fatal("a returned block was built on a buffer that went back to the pool")
				}
				if !bytes.Equal(rng, striped[70_000:160_000]) {
					t.Fatal("a returned range was built on a buffer that went back to the pool")
				}
			}
			if got := settledOutstanding(t) - base; got != 0 {
				t.Fatalf("%d pool buffers unaccounted for after the reads, want 0", got)
			}
			if tc.rig != "local" {
				return
			}
			// 5 rounds x (2 blocks + 1 range) x (k+delta = 3) chunk reads:
			// a range is planned and late-bound like a whole block.
			snap := reg.Snapshot()
			if got := snap.CounterValue("client_chunks_fetched_total", "") + snap.CounterValue("client_late_binding_discarded_total", ""); got != 5*3*3 {
				t.Fatalf("fetched+discarded = %d chunk reads, want %d: late binding did not fetch its surplus", got, 5*3*3)
			}
		})
	}
}

// TestReplicatedBlockIsTheFetchedChunk covers the one chunk buffer that
// must never be released: under replication the fetched copy is the
// block, handed to the caller and the cache as it is.
func TestReplicatedBlockIsTheFetchedChunk(t *testing.T) {
	cfg := cacheTestConfig()
	cfg.Scheme = model.SchemeReplicated
	cfg.Delta = 1 // fetch two copies, use the first
	c := newTestCluster(t, ClusterConfig{Client: cfg})
	data := blockData(40<<10, 11)
	if err := c.Client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	base := settledOutstanding(t)
	got, err := c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	// The surplus copy goes back; the one that became the block stays out.
	if out := settledOutstanding(t) - base; out != 1 {
		t.Fatalf("%d pool buffers stayed out after a replicated read, want exactly the returned chunk", out)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("the chunk returned as the block was released to the pool")
	}
	hit, err := c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if &hit[0] != &got[0] || !bytes.Equal(hit, data) {
		t.Fatal("cache does not hold the fetched chunk itself")
	}
}

// sealedPayload returns n bytes derived from (key, gen) whose last four
// bytes are the CRC-32C of the rest, so a reader can verify a block
// without knowing which generation it got.
func sealedPayload(key string, gen, n int) []byte {
	d := make([]byte, n)
	seed := crc32.Checksum([]byte(fmt.Sprintf("%s/%d", key, gen)), crcTable)
	for i := 0; i < n-4; i++ {
		seed = seed*1664525 + 1013904223
		d[i] = byte(seed >> 24)
	}
	binary.BigEndian.PutUint32(d[n-4:], crc32.Checksum(d[:n-4], crcTable))
	return d
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func sealIntact(d []byte) bool {
	return len(d) > 4 && binary.BigEndian.Uint32(d[len(d)-4:]) == crc32.Checksum(d[:len(d)-4], crcTable)
}

// poisoned reports whether d contains a run of bufpool poison bytes,
// which sealedPayload's pseudo-random bytes never produce.
func poisoned(d []byte) bool {
	return bytes.Contains(d, bytes.Repeat([]byte{0xDB}, 16)) || bytes.Contains(d, bytes.Repeat([]byte{0xAC}, 16))
}

// TestConcurrentReadersWritersAndMoverShareNoBuffers is the whole read
// path under contention over the in-memory transport: GetMulti and
// GetRange readers, a writer that keeps replacing blocks, and a mover
// that keeps bumping placement versions, with a cache small enough to
// evict constantly. Every byte returned is checked — against the known
// payload for blocks that are only moved, for pool poison in blocks that
// are being replaced — and under -race no two goroutines may ever touch
// one buffer unordered.
func TestConcurrentReadersWritersAndMoverShareNoBuffers(t *testing.T) {
	d := newDistributedCluster(t, 8, Config{Delta: 1, CacheBytes: 400 << 10, Seed: 5})
	defer d.Close()
	ctx := context.Background()

	// Stable blocks are never rewritten, so ranges of them can be checked
	// against the known payload; the mover moves their chunks around.
	stable := map[model.BlockID][]byte{}
	for i := 0; i < 4; i++ {
		id := model.BlockID(fmt.Sprintf("stable-%d", i))
		stable[id] = sealedPayload(string(id), 0, 60<<10+i*1000)
		if err := d.client.Put(id, stable[id]); err != nil {
			t.Fatal(err)
		}
	}
	stable["striped"] = sealedPayload("striped", 0, 300<<10)
	if _, err := d.client.PutReader(ctx, "striped", bytes.NewReader(stable["striped"])); err != nil {
		t.Fatal(err)
	}
	// Churn blocks are deleted and re-put with a new generation.
	churn := []model.BlockID{"churn-0", "churn-1"}
	for _, id := range churn {
		if err := d.client.Put(id, sealedPayload(string(id), 0, 50<<10)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var background sync.WaitGroup
	var rewrites, moves atomic.Int64

	background.Add(1)
	go func() { // writer
		defer background.Done()
		for gen := 1; ; gen++ {
			for _, id := range churn {
				select {
				case <-stop:
					return
				default:
				}
				if err := d.client.Delete(id); err != nil {
					continue
				}
				if err := d.client.Put(id, sealedPayload(string(id), gen, 50<<10)); err != nil {
					t.Errorf("re-put %s gen %d: %v", id, gen, err)
					return
				}
				rewrites.Add(1)
			}
		}
	}()

	mover := NewMoverRunner(MoverRunnerConfig{}, d.client.meta, d.client.sites, d.client.health,
		stats.NewCoAccessTracker(0), stats.NewLoadTracker(), stats.NewProbeEstimator(0.3))
	background.Add(1)
	go func() { // mover: bounce chunk 0 of each stable block between its spare sites
		defer background.Done()
		for i := 0; ; i++ {
			for id := range stable {
				select {
				case <-stop:
					return
				default:
				}
				metas, err := d.client.meta.Lookup([]model.BlockID{id})
				if err != nil {
					continue
				}
				spares := spareSites(8, metas[id])
				plan := model.MovePlan{Block: id, Chunk: 0, From: metas[id].Sites[0], To: spares[i%len(spares)]}
				if err := mover.Execute(unthrottled{ctx}, plan); err == nil {
					moves.Add(1)
				}
			}
		}
	}()

	var readers sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; i < 60; i++ {
				ids := []model.BlockID{model.BlockID(fmt.Sprintf("stable-%d", (r+i)%4)), "striped", churn[i%2]}
				got, _, err := d.client.GetMulti(ids)
				off, n := int64((r*7919+i*104729)%(200<<10)), int64(1+(i*7717)%(90<<10))
				rng, rerr := d.client.GetRange(ctx, "striped", off, n)
				// A read may lose a chunk to the mover's copy->CAS->delete
				// window or land between a delete and its re-put; it may
				// fail, it must never return wrong bytes.
				if err == nil {
					for id, data := range got {
						if want, ok := stable[id]; ok {
							if !bytes.Equal(data, want) {
								t.Errorf("GetMulti returned wrong bytes for %s", id)
								return
							}
							continue
						}
						// A block being replaced may decode from chunks of
						// two generations (delete + re-put of one id is not
						// atomic for a reader holding the old metadata), so
						// for those only pool poison counts as corruption.
						if !sealIntact(data) && poisoned(data) {
							t.Errorf("GetMulti returned a poisoned %s (%d bytes)", id, len(data))
							return
						}
					}
					reads.Add(1)
				}
				if rerr == nil {
					if !bytes.Equal(rng, stable["striped"][off:off+n]) {
						t.Errorf("GetRange [%d,+%d) returned wrong bytes", off, n)
						return
					}
					reads.Add(1)
				}
			}
		}(r)
	}
	readers.Wait()
	close(stop)
	background.Wait()

	if reads.Load() == 0 || rewrites.Load() == 0 || moves.Load() == 0 {
		t.Fatalf("reads=%d rewrites=%d moves=%d: the race never happened", reads.Load(), rewrites.Load(), moves.Load())
	}
}

package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/storage"
)

// TestEmptyBlockPutGetRoundTrip pins the ChunkSize(0) fix end to end: an
// empty block pads to 1-byte chunks (ChunkSize reports 1, matching what
// Split stores), round-trips through Put/Get, and registers consistent
// metadata.
func TestEmptyBlockPutGetRoundTrip(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	if err := c.Client.Put("empty", nil); err != nil {
		t.Fatalf("put empty block: %v", err)
	}
	got, err := c.Client.Get("empty")
	if err != nil {
		t.Fatalf("get empty block: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("empty block read back %d bytes", len(got))
	}
	metas, err := c.Catalog.Lookup([]model.BlockID{"empty"})
	if err != nil {
		t.Fatal(err)
	}
	meta := metas["empty"]
	if meta == nil {
		t.Fatal("no metadata registered for empty block")
	}
	if meta.Size != 0 {
		t.Fatalf("meta.Size = %d, want 0", meta.Size)
	}
	if meta.ChunkSize != 1 {
		t.Fatalf("meta.ChunkSize = %d, want 1 (empty blocks pad to 1-byte chunks)", meta.ChunkSize)
	}
}

// gatedSite blocks every PutChunk until release is closed, reporting
// arrivals so the test can count how many stores run concurrently.
type gatedSite struct {
	storage.SiteAPI
	arrive  chan struct{}
	release chan struct{}
	puts    *atomic.Int64
}

func (g *gatedSite) PutChunk(ctx context.Context, ref model.ChunkRef, data []byte) error {
	g.puts.Add(1)
	g.arrive <- struct{}{}
	<-g.release
	return g.SiteAPI.PutChunk(ctx, ref, data)
}

// TestPutFanoutBounded is the goroutine regression test for the write
// path: a Put of k+r=9 chunks with PutFanout=2 must issue at most 2
// concurrent chunk stores and spawn a bounded number of goroutines —
// the historical path spawned one goroutine per chunk unconditionally.
func TestPutFanoutBounded(t *testing.T) {
	const fanout = 2
	siteIDs := make([]model.SiteID, 12)
	sites := make(map[model.SiteID]storage.SiteAPI, len(siteIDs))
	arrive := make(chan struct{}, 32)
	release := make(chan struct{})
	var puts atomic.Int64
	for i := range siteIDs {
		id := model.SiteID(i + 1)
		siteIDs[i] = id
		svc := storage.NewService(storage.ServiceConfig{Site: id}, storage.NewMemStore())
		sites[id] = &gatedSite{SiteAPI: svc, arrive: arrive, release: release, puts: &puts}
	}
	client, err := NewClient(Config{
		K: 6, R: 3,
		PutFanout: fanout,
	}, Deps{
		Meta:  metadata.NewCatalog(siteIDs),
		Sites: sites,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	base := runtime.NumGoroutine()
	putDone := make(chan error, 1)
	go func() { putDone <- client.Put("blk", blockData(4096, 5)) }()

	// Exactly fanout stores should reach the gate; a third arrival
	// within the grace window means the bound is broken.
	for i := 0; i < fanout; i++ {
		select {
		case <-arrive:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d workers reached PutChunk", i, fanout)
		}
	}
	select {
	case <-arrive:
		t.Fatal("more than PutFanout chunk stores ran concurrently")
	case <-time.After(100 * time.Millisecond):
	}
	// One Put goroutine plus fanout workers, with slack for runtime
	// bookkeeping; the unbounded path would add k+r+1 = 10 goroutines.
	if n := runtime.NumGoroutine(); n > base+fanout+3 {
		t.Fatalf("goroutines grew from %d to %d during Put; fan-out not bounded", base, n)
	}

	close(release)
	if err := <-putDone; err != nil {
		t.Fatal(err)
	}
	if got := puts.Load(); got != 9 {
		t.Fatalf("stored %d chunks, want 9", got)
	}
}

package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"ecstore/internal/faults"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/storage"
)

// slowReader delivers its payload in small uneven pieces, forcing
// PutReader's io.ReadFull loop to cross read boundaries.
type slowReader struct {
	data []byte
	step int
}

func (r *slowReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.step
	if n > len(r.data) {
		n = len(r.data)
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

func TestPutReaderRoundTrip(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{
		Client: Config{StripeUnit: 256, StreamDepth: 3},
	})
	// 5 full stripes (k=2, unit=256 => 512 B/stripe) plus a partial tail.
	data := blockData(5*512+123, 9)
	nw, err := c.Client.PutReader(context.Background(), "s1", &slowReader{data: append([]byte(nil), data...), step: 300})
	if err != nil {
		t.Fatal(err)
	}
	if nw != int64(len(data)) {
		t.Fatalf("PutReader wrote %d bytes, want %d", nw, len(data))
	}

	meta, ok := c.Catalog.BlockMeta("s1")
	if !ok {
		t.Fatal("block not registered")
	}
	if meta.StripeUnit != 256 || meta.ChunkSize != 6*256 || meta.Size != int64(len(data)) {
		t.Fatalf("meta = unit %d chunk %d size %d, want 256/%d/%d", meta.StripeUnit, meta.ChunkSize, meta.Size, 6*256, len(data))
	}

	got, err := c.Client.Get("s1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("striped whole-block read mismatch")
	}
}

func TestPutReaderEmptyBlock(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Client: Config{StripeUnit: 128}})
	nw, err := c.Client.PutReader(context.Background(), "empty", bytes.NewReader(nil))
	if err != nil || nw != 0 {
		t.Fatalf("PutReader(empty) = %d, %v", nw, err)
	}
	meta, ok := c.Catalog.BlockMeta("empty")
	if !ok || meta.Size != 0 || meta.ChunkSize != 128 {
		t.Fatalf("empty block meta: ok=%v %+v", ok, meta)
	}
	got, err := c.Client.Get("empty")
	if err != nil || len(got) != 0 {
		t.Fatalf("Get(empty) = %d bytes, %v", len(got), err)
	}
	if _, err := c.Client.GetRange(context.Background(), "empty", 0, 0); err != nil {
		t.Fatalf("zero-length range of empty block: %v", err)
	}
	if _, err := c.Client.GetRange(context.Background(), "empty", 0, 1); !errors.Is(err, ErrRangeOutOfBounds) {
		t.Fatalf("read past empty block: %v", err)
	}
}

func TestPutReaderReplicatedFallback(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{Client: Config{Scheme: model.SchemeReplicated}})
	data := blockData(700, 2)
	if _, err := c.Client.PutReader(context.Background(), "r1", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	got, err := c.Client.Get("r1")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("replicated PutReader round trip failed: %v", err)
	}
	if got, err := c.Client.GetRange(context.Background(), "r1", 100, 50); err != nil || !bytes.Equal(got, data[100:150]) {
		t.Fatalf("replicated GetRange: %v", err)
	}
}

// TestGetRangeFetchesOnlyTouchedStripes is the acceptance check: a
// range covering 1/8 of a striped block must decode only the stripes it
// touches, observable via range_stripes_decoded_total.
func TestGetRangeFetchesOnlyTouchedStripes(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{
		Metrics: reg,
		Client:  Config{StripeUnit: 64 << 10},
	})
	data := blockData(1<<20, 5) // 1 MiB, k=2, unit 64 KiB => 8 stripes
	if _, err := c.Client.PutReader(context.Background(), "big", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("big")
	totalStripes := meta.ChunkSize / meta.StripeUnit
	if totalStripes != 8 {
		t.Fatalf("block has %d stripes, want 8", totalStripes)
	}

	cases := []struct {
		off, n      int64
		wantStripes int64
	}{
		{0, 128 << 10, 1},            // 1/8 of the block = one stripe
		{0, 1 << 14, 1},              // 1/64
		{1 << 20 / 2, 1 << 19, 4},    // second half
		{(128 << 10) - 7, 14, 2},     // stripe-crossing sliver
		{int64(len(data)) - 1, 1, 1}, // last byte
		{0, int64(len(data)), 8},     // whole block via range path
	}
	for _, tc := range cases {
		before := reg.Snapshot().CounterValue("range_stripes_decoded_total", "")
		got, err := c.Client.GetRange(context.Background(), "big", tc.off, tc.n)
		if err != nil {
			t.Fatalf("GetRange(%d,%d): %v", tc.off, tc.n, err)
		}
		if !bytes.Equal(got, data[tc.off:tc.off+tc.n]) {
			t.Fatalf("GetRange(%d,%d) bytes mismatch", tc.off, tc.n)
		}
		decoded := reg.Snapshot().CounterValue("range_stripes_decoded_total", "") - before
		if decoded != tc.wantStripes {
			t.Errorf("GetRange(%d,%d) decoded %d stripes, want %d (of %d total)", tc.off, tc.n, decoded, tc.wantStripes, totalStripes)
		}
	}
}

// TestGetRangeContiguousBlock pins the legacy-layout degradation: a
// range inside one data chunk stays tight, and PutContext blocks keep
// serving ranges without any stripe metadata.
func TestGetRangeContiguousBlock(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	data := blockData(10000, 11)
	if err := c.Client.Put("legacy", data); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ off, n int64 }{{0, 100}, {4000, 3000}, {9999, 1}, {0, 10000}} {
		got, err := c.Client.GetRange(context.Background(), "legacy", tc.off, tc.n)
		if err != nil {
			t.Fatalf("GetRange(%d,%d): %v", tc.off, tc.n, err)
		}
		if !bytes.Equal(got, data[tc.off:tc.off+tc.n]) {
			t.Fatalf("GetRange(%d,%d) mismatch", tc.off, tc.n)
		}
	}
}

// TestGetRangeDegradedSite forces the range path through a parity
// decode: with one site failed, segments must come from a surviving
// data + parity pair and still gather the exact bytes.
func TestGetRangeDegradedSite(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 4, Client: Config{StripeUnit: 512}})
	data := blockData(6000, 3)
	if _, err := c.Client.PutReader(context.Background(), "deg", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("deg")
	// Fail the site holding data chunk 0.
	c.Services[meta.Sites[0]].Fail()

	for _, tc := range []struct{ off, n int64 }{{0, 512}, {1000, 2048}, {5990, 10}} {
		got, err := c.Client.GetRange(context.Background(), "deg", tc.off, tc.n)
		if err != nil {
			t.Fatalf("degraded GetRange(%d,%d): %v", tc.off, tc.n, err)
		}
		if !bytes.Equal(got, data[tc.off:tc.off+tc.n]) {
			t.Fatalf("degraded GetRange(%d,%d) mismatch", tc.off, tc.n)
		}
	}
}

// TestStreamRangeUnderFaultInjection is the e2e chaos check: PutReader
// and GetRange keep their contracts with every site behind a seeded
// fault injector mixing latency and transient errors.
func TestStreamRangeUnderFaultInjection(t *testing.T) {
	siteIDs := []model.SiteID{1, 2, 3, 4, 5, 6}
	catalog := metadata.NewCatalog(siteIDs)
	inj := faults.NewInjector(42)
	apis := make(map[model.SiteID]storage.SiteAPI, len(siteIDs))
	for _, id := range siteIDs {
		svc := storage.NewService(storage.ServiceConfig{Site: id}, storage.NewMemStore())
		fs := faults.NewSite(svc, inj)
		fs.Set(faults.Plan{ErrorRate: 0.05})
		apis[id] = fs
	}
	client, err := NewClient(Config{
		StripeUnit: 256,
		Retry:      RetryPolicy{MaxAttempts: 6, BaseBackoff: 1, MaxBackoff: 2},
	}, Deps{Meta: catalog, Sites: apis})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	data := blockData(4*512+100, 7)
	for attempt := 0; ; attempt++ {
		// A write may legitimately fail when the injector outlasts the
		// retry budget; it must fail atomically (no registration) and a
		// later attempt must succeed.
		_, err := client.PutReader(context.Background(), "chaos", bytes.NewReader(data))
		if err == nil {
			break
		}
		if _, ok := catalog.BlockMeta("chaos"); ok {
			t.Fatal("failed PutReader left the block registered")
		}
		if attempt > 50 {
			t.Fatalf("PutReader never succeeded: %v", err)
		}
	}
	for i := 0; i < 30; i++ {
		off := int64(i * 71 % 2000)
		n := int64(i*37%300 + 1)
		got, err := client.GetRange(context.Background(), "chaos", off, n)
		if err != nil {
			t.Fatalf("GetRange(%d,%d) under faults: %v", off, n, err)
		}
		if !bytes.Equal(got, data[off:off+n]) {
			t.Fatalf("GetRange(%d,%d) under faults: bytes mismatch", off, n)
		}
	}
}

func TestGetRangeCacheHit(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{
		Metrics: reg,
		Client:  Config{StripeUnit: 256, CacheBytes: 1 << 20},
	})
	data := blockData(3000, 13)
	if _, err := c.Client.PutReader(context.Background(), "hot", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	// Whole-block reads warm the decoded cache (admission needs hotness).
	for i := 0; i < 5; i++ {
		if _, err := c.Client.Get("hot"); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.Client.GetRange(context.Background(), "hot", 100, 200)
	if err != nil || !bytes.Equal(got, data[100:300]) {
		t.Fatalf("range after warmup: %v", err)
	}
	if hits := reg.Snapshot().CounterValue("range_cache_hits_total", ""); hits == 0 {
		t.Skip("decoded block not admitted; admission is stats-driven")
	}
	// A cache-served range decodes no stripes.
	before := reg.Snapshot().CounterValue("range_stripes_decoded_total", "")
	if _, err := c.Client.GetRange(context.Background(), "hot", 0, 50); err != nil {
		t.Fatal(err)
	}
	if after := reg.Snapshot().CounterValue("range_stripes_decoded_total", ""); after != before {
		t.Fatalf("cache-served range decoded %d stripes", after-before)
	}
}

func TestPackingLifecycle(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{
		Metrics: reg,
		Client:  Config{StripeUnit: 256, PackThreshold: 4096, PackCapacity: 16 << 10},
	})
	ctx := context.Background()

	// Stage a handful of 4 KiB blocks; under capacity nothing seals.
	blocks := map[model.BlockID][]byte{}
	for i := 0; i < 3; i++ {
		id := model.BlockID(string(rune('a'+i)) + "-small")
		blocks[id] = blockData(4096, byte(i+1))
		if err := c.Client.Put(id, blocks[id]); err != nil {
			t.Fatal(err)
		}
	}
	if n := reg.Snapshot().CounterValue("pack_sealed_total", ""); n != 0 {
		t.Fatalf("sealed %d containers before capacity", n)
	}
	// Staged blocks read through the packer, whole and by range.
	for id, want := range blocks {
		got, err := c.Client.GetContext(ctx, id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("staged read %s: %v", id, err)
		}
		gr, err := c.Client.GetRange(ctx, id, 10, 100)
		if err != nil || !bytes.Equal(gr, want[10:110]) {
			t.Fatalf("staged range %s: %v", id, err)
		}
	}
	// A staged delete unstages without touching the catalog.
	if err := c.Client.DeleteContext(ctx, "a-small"); err != nil {
		t.Fatal(err)
	}
	delete(blocks, "a-small")
	if _, err := c.Client.GetContext(ctx, "a-small"); err == nil {
		t.Fatal("deleted staged block still readable")
	}

	// Seal and verify members resolve through the catalog's range path.
	if err := c.Client.FlushPacked(ctx); err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().CounterValue("pack_sealed_total", ""); n != 1 {
		t.Fatalf("pack_sealed_total = %d, want 1", n)
	}
	if n := reg.Snapshot().CounterValue("pack_packed_blocks_total", ""); n != 2 {
		t.Fatalf("pack_packed_blocks_total = %d, want 2", n)
	}
	for id, want := range blocks {
		meta, ok := c.Catalog.BlockMeta(id)
		if !ok || !meta.Packed() {
			t.Fatalf("sealed member %s not resolvable as packed (%+v)", id, meta)
		}
		got, err := c.Client.GetContext(ctx, id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("sealed read %s: %v", id, err)
		}
		gr, err := c.Client.GetRange(ctx, id, 1000, 256)
		if err != nil || !bytes.Equal(gr, want[1000:1256]) {
			t.Fatalf("sealed range %s: %v", id, err)
		}
	}

	// Deleting a sealed member unregisters it; the container survives
	// for the remaining member.
	if err := c.Client.DeleteContext(ctx, "b-small"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Client.GetContext(ctx, "b-small"); err == nil {
		t.Fatal("deleted sealed member still readable")
	}
	if got, err := c.Client.GetContext(ctx, "c-small"); err != nil || !bytes.Equal(got, blocks["c-small"]) {
		t.Fatalf("surviving member unreadable after sibling delete: %v", err)
	}
}

func TestPackingCapacitySealsAutomatically(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{
		Metrics: reg,
		Client:  Config{StripeUnit: 256, PackThreshold: 4096, PackCapacity: 8 << 10},
	})
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		id := model.BlockID(string(rune('p'+i)) + "-auto")
		if err := c.Client.PutContext(ctx, id, blockData(4096, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// 16 KiB staged at 8 KiB capacity: at least one container sealed.
	sealed := reg.Snapshot().CounterValue("pack_sealed_total", "")
	if sealed == 0 {
		t.Fatal("no container sealed at capacity")
	}
	// Only sealed containers own chunks, k+r each: fewer chunk writes than
	// the 4 × (k+r) the same blocks would cost unpacked.
	perBlock := c.Client.totalChunks()
	var chunks int
	for _, svc := range c.Services {
		refs, err := svc.ListChunks(ctx)
		if err != nil {
			t.Fatal(err)
		}
		chunks += len(refs)
	}
	if chunks != int(sealed)*perBlock {
		t.Fatalf("%d chunks on sites, want %d sealed containers × %d", chunks, sealed, perBlock)
	}
	if chunks >= 4*perBlock {
		t.Fatalf("%d chunks packed, not below the unpacked %d", chunks, 4*perBlock)
	}
}

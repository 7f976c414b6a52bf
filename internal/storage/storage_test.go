package storage

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/rpc"
	"ecstore/internal/transport"
)

func ref(block string, chunk int) model.ChunkRef {
	return model.ChunkRef{Block: model.BlockID(block), Chunk: chunk}
}

func testStoreSuite(t *testing.T, s Store) {
	t.Helper()

	// Put/Get round trip.
	if err := s.Put(ref("a", 0), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(ref("a", 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Get = %q", got)
	}

	// Overwrite updates contents and byte accounting.
	if err := s.Put(ref("a", 0), []byte("hi")); err != nil {
		t.Fatal(err)
	}
	got, err = s.Get(ref("a", 0))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hi" {
		t.Fatalf("after overwrite = %q", got)
	}
	if b, err := s.Bytes(); err != nil || b != 2 {
		t.Fatalf("Bytes = %d (%v), want 2", b, err)
	}

	// Missing chunk.
	if _, err := s.Get(ref("ghost", 0)); !errors.Is(err, ErrChunkNotFound) {
		t.Fatalf("missing Get err = %v", err)
	}

	// List and Count.
	if err := s.Put(ref("a", 1), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ref("b", 0), []byte("y")); err != nil {
		t.Fatal(err)
	}
	refs, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 3 || refs[0] != ref("a", 0) || refs[2] != ref("b", 0) {
		t.Fatalf("List = %v", refs)
	}
	if n, err := s.Count(); err != nil || n != 3 {
		t.Fatalf("Count = %d (%v)", n, err)
	}

	// Delete is idempotent.
	if err := s.Delete(ref("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(ref("a", 1)); err != nil {
		t.Fatal(err)
	}

	// DeleteBlock removes all chunks of the block only.
	if err := s.DeleteBlock("a"); err != nil {
		t.Fatal(err)
	}
	refs, err = s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || refs[0] != ref("b", 0) {
		t.Fatalf("after DeleteBlock List = %v", refs)
	}
}

func TestMemStore(t *testing.T) {
	testStoreSuite(t, NewMemStore())
}

func TestDiskStore(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStoreSuite(t, s)
}

func TestMemStoreGetReturnsCopy(t *testing.T) {
	s := NewMemStore()
	_ = s.Put(ref("a", 0), []byte{1, 2})
	got, _ := s.Get(ref("a", 0))
	got[0] = 99
	again, _ := s.Get(ref("a", 0))
	if again[0] != 1 {
		t.Fatal("Get aliases stored data")
	}
}

func TestMemStorePutCopies(t *testing.T) {
	s := NewMemStore()
	data := []byte{1, 2}
	_ = s.Put(ref("a", 0), data)
	data[0] = 99
	got, _ := s.Get(ref("a", 0))
	if got[0] != 1 {
		t.Fatal("Put aliases caller data")
	}
}

func TestDiskStoreBlockIDWithSlash(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := ref("dir/evil", 0)
	if err := s.Put(r, []byte("z")); err != nil {
		t.Fatal(err)
	}
	// The chunk is retrievable through the same (escaped) path.
	got, err := s.Get(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "z" {
		t.Fatalf("Get = %q", got)
	}
}

func TestDiskStoreConcurrentPutsSameChunk(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Concurrent puts of the same ref each stage through a unique temp
	// file; with a shared .tmp path these used to corrupt each other
	// (one goroutine renames a half-written file away under another).
	r := ref("contended", 0)
	payloads := make([][]byte, 8)
	var wg sync.WaitGroup
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 4096)
		wg.Add(1)
		go func(p []byte) {
			defer wg.Done()
			if err := s.Put(r, p); err != nil {
				t.Error(err)
			}
		}(payloads[i])
	}
	wg.Wait()

	// Whatever write won, the stored chunk is exactly one complete
	// payload — never a torn mix.
	got, err := s.Get(r)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range payloads {
		if bytes.Equal(got, p) {
			found = true
		}
	}
	if !found {
		t.Fatalf("stored chunk (%d bytes) matches no complete payload", len(got))
	}

	// No staging files survive, beside the chunks or in the pool.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".tmp") {
			t.Fatalf("leftover staging file %s", ent.Name())
		}
	}
	if n := len(poolFiles(t, dir)); n != 0 {
		t.Fatalf("%d leftover staging files in the pool", n)
	}
	if n, _ := s.Count(); n != 1 {
		t.Fatalf("Count = %d, want 1", n)
	}
}

func TestDiskStorePutCleansUpTempOnError(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Remove the directory out from under the store so the staged write
	// fails before the rename.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ref("a", 0), []byte("x")); err == nil {
		t.Fatal("Put into a removed directory succeeded")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("directory not clean after failed put: %v", entries)
	}
}

func TestServiceFailureInjection(t *testing.T) {
	svc := NewService(ServiceConfig{Site: 1}, NewMemStore())
	if err := svc.PutChunk(context.Background(), ref("a", 0), []byte("x")); err != nil {
		t.Fatal(err)
	}
	svc.Fail()
	if !svc.Failed() {
		t.Fatal("Failed() = false after Fail")
	}
	if _, err := svc.GetChunk(context.Background(), ref("a", 0)); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("Get on failed site err = %v", err)
	}
	if err := svc.PutChunk(context.Background(), ref("a", 1), nil); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("Put on failed site err = %v", err)
	}
	if err := svc.Probe(context.Background()); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("Probe on failed site err = %v", err)
	}
	if _, err := svc.LoadReport(context.Background()); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("LoadReport on failed site err = %v", err)
	}
	svc.Recover()
	if _, err := svc.GetChunk(context.Background(), ref("a", 0)); err != nil {
		t.Fatalf("Get after recover: %v", err)
	}
}

func TestServiceLoadReportWindow(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	svc := NewService(ServiceConfig{Site: 1, Clock: clock}, NewMemStore())
	_ = svc.PutChunk(context.Background(), ref("a", 0), make([]byte, 1000))

	now = now.Add(time.Second)
	if _, err := svc.GetChunk(context.Background(), ref("a", 0)); err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Second) // window = 2s, 1000 bytes read
	load, err := svc.LoadReport(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if load.IOBytesPerSec != 500 {
		t.Fatalf("IO rate = %v, want 500", load.IOBytesPerSec)
	}
	if load.Chunks != 1 {
		t.Fatalf("chunks = %d", load.Chunks)
	}
	// Window reset: immediate second report sees no reads.
	now = now.Add(time.Second)
	load2, err := svc.LoadReport(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if load2.IOBytesPerSec != 0 {
		t.Fatalf("second window IO = %v", load2.IOBytesPerSec)
	}
}

func TestServiceReadThrottle(t *testing.T) {
	var slept time.Duration
	svc := NewService(ServiceConfig{
		Site:             1,
		ReadDelayFixed:   time.Millisecond,
		ReadDelayPerByte: time.Microsecond,
		Sleep:            func(d time.Duration) { slept += d },
	}, NewMemStore())
	_ = svc.PutChunk(context.Background(), ref("a", 0), make([]byte, 100))
	if _, err := svc.GetChunk(context.Background(), ref("a", 0)); err != nil {
		t.Fatal(err)
	}
	want := time.Millisecond + 100*time.Microsecond
	if slept != want {
		t.Fatalf("throttle slept %v, want %v", slept, want)
	}
}

func TestServiceTotals(t *testing.T) {
	svc := NewService(ServiceConfig{Site: 1}, NewMemStore())
	_ = svc.PutChunk(context.Background(), ref("a", 0), []byte("x"))
	_, _ = svc.GetChunk(context.Background(), ref("a", 0))
	_, _ = svc.GetChunk(context.Background(), ref("a", 0))
	r, w := svc.Totals()
	if r != 2 || w != 1 {
		t.Fatalf("Totals = (%d, %d), want (2, 1)", r, w)
	}
}

func startStorageRPC(t *testing.T, svc *Service) (*Client, func()) {
	t.Helper()
	net := transport.NewMemory()
	l, err := net.Listen("site")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(NewRPCServer(svc))
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()
	conn, err := net.Dial("site")
	if err != nil {
		t.Fatal(err)
	}
	rc := rpc.NewClient(conn)
	cleanup := func() {
		_ = rc.Close()
		_ = srv.Close()
		<-done
		net.Close()
	}
	return NewRPCClient(rc), cleanup
}

func TestStorageRPCRoundTrip(t *testing.T) {
	svc := NewService(ServiceConfig{Site: 3}, NewMemStore())
	client, cleanup := startStorageRPC(t, svc)
	defer cleanup()

	if err := client.PutChunk(context.Background(), ref("blk", 1), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := client.GetChunk(context.Background(), ref("blk", 1))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "payload" {
		t.Fatalf("GetChunk = %q", got)
	}

	refs, err := client.ListChunks(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 1 || refs[0] != ref("blk", 1) {
		t.Fatalf("ListChunks = %v", refs)
	}

	if err := client.Probe(context.Background()); err != nil {
		t.Fatal(err)
	}
	load, err := client.LoadReport(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if load.Chunks != 1 {
		t.Fatalf("load.Chunks = %d", load.Chunks)
	}

	if err := client.DeleteChunk(context.Background(), ref("blk", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.GetChunk(context.Background(), ref("blk", 1)); err == nil {
		t.Fatal("GetChunk succeeded after delete")
	}

	if err := client.PutChunk(context.Background(), ref("blk", 0), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := client.DeleteBlock(context.Background(), "blk"); err != nil {
		t.Fatal(err)
	}
	refs, err = client.ListChunks(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 0 {
		t.Fatalf("chunks remain after DeleteBlock: %v", refs)
	}
}

func TestStorageRPCFailurePropagates(t *testing.T) {
	svc := NewService(ServiceConfig{Site: 3}, NewMemStore())
	client, cleanup := startStorageRPC(t, svc)
	defer cleanup()

	svc.Fail()
	if err := client.Probe(context.Background()); err == nil {
		t.Fatal("probe of failed site succeeded over RPC")
	}
	if _, err := client.GetChunk(context.Background(), ref("x", 0)); err == nil {
		t.Fatal("get from failed site succeeded over RPC")
	}
}

func TestStorageRPCGetMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	svc := NewService(ServiceConfig{Site: 3, Metrics: reg}, NewMemStore())
	client, cleanup := startStorageRPC(t, svc)
	defer cleanup()

	if err := client.PutChunk(context.Background(), ref("blk", 0), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.GetChunk(context.Background(), ref("blk", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.GetChunk(context.Background(), ref("missing", 0)); err == nil {
		t.Fatal("read of missing chunk succeeded")
	}

	snap, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if n := snap.CounterValue("storage_reads_total", "3"); n != 1 {
		t.Fatalf(`storage_reads_total{site="3"} = %d, want 1`, n)
	}
	if n := snap.CounterValue("storage_writes_total", "3"); n != 1 {
		t.Fatalf(`storage_writes_total{site="3"} = %d, want 1`, n)
	}
	if n := snap.CounterValue("storage_errors_total", "3"); n != 1 {
		t.Fatalf(`storage_errors_total{site="3"} = %d, want 1`, n)
	}
	if n := snap.CounterValue("storage_write_bytes_total", "3"); n != 7 {
		t.Fatalf(`storage_write_bytes_total{site="3"} = %d, want 7`, n)
	}
	h, ok := snap.Histogram("storage_read_seconds", "3")
	if !ok || h.Count != 1 {
		t.Fatalf(`storage_read_seconds{site="3"}: count = %d (present=%v), want 1`, h.Count, ok)
	}
}

func TestStorageMetricsDisabledIsNoOp(t *testing.T) {
	svc := NewService(ServiceConfig{Site: 1}, NewMemStore())
	if err := svc.PutChunk(context.Background(), ref("a", 0), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.GetChunk(context.Background(), ref("a", 0)); err != nil {
		t.Fatal(err)
	}
	snap := svc.MetricsSnapshot()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Fatalf("disabled service exported metrics: %+v", snap)
	}
}

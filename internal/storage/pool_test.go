package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"ecstore/internal/bufpool"
	"ecstore/internal/model"
)

func newPoolStore(t testing.TB) (*DiskStore, string) {
	t.Helper()
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, dir
}

// poolFiles returns the sizes of the files in the store's pool directory.
func poolFiles(t *testing.T, dir string) []int64 {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, ".free"))
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, 0, len(entries))
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
	}
	return sizes
}

// onlyBytes reports whether every byte of p is one of want.
func onlyBytes(p []byte, want ...byte) bool {
	for _, c := range p {
		if bytes.IndexByte(want, c) < 0 {
			return false
		}
	}
	return true
}

// TestDiskStorePoolReuseExcludesOpenFiles deletes chunk A and at once
// writes chunk B, which reuses A's file, while readers and a streaming
// writer work on A by name. A reader gets A's bytes (0xAA, or zeros
// below a segment the writer lands after recreating A) or no chunk at
// all — never B's bytes and never a corrupt chunk — and B's bytes stay
// intact. Without the names lock an fd opened on A before the delete
// reads or writes B's file.
func TestDiskStorePoolReuseExcludesOpenFiles(t *testing.T) {
	s, _ := newPoolStore(t)
	const size, seg = 64 << 10, 4 << 10
	aBytes := bytes.Repeat([]byte{0xAA}, size)
	bBytes := bytes.Repeat([]byte{0xBB}, size)
	a := ref("a", 0)
	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	var failures atomic.Int32
	fail := func(format string, args ...any) {
		if failures.Add(1) <= 5 {
			t.Errorf(format, args...)
		}
	}
	checkRead := func(op string, got []byte, err error) {
		switch {
		case err == nil:
			if !onlyBytes(got, 0xAA, 0) {
				fail("%s of A returned another chunk's bytes", op)
			}
			bufpool.Put(got)
		case errors.Is(err, ErrChunkNotFound), op == "GetAt" && errors.Is(err, ErrShortChunk):
		default:
			fail("%s of A: %v", op, err)
		}
	}
	// Readers and the writer loop on A for the whole test; each round
	// starts only once all of them are running.
	var stop atomic.Bool
	var wg, running sync.WaitGroup
	loop := func(seed int64, op func(rng *rand.Rand)) {
		wg.Add(1)
		running.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for n := 0; !stop.Load(); n++ {
				op(rng)
				if n == 0 {
					running.Done()
				}
			}
		}()
	}
	for r := 0; r < 3; r++ {
		loop(int64(r), func(rng *rand.Rand) {
			got, err := s.Get(a)
			checkRead("Get", got, err)
			got, err = s.GetAt(a, rng.Int63n(size-seg), seg)
			checkRead("GetAt", got, err)
		})
	}
	loop(3, func(rng *rand.Rand) {
		off := rng.Int63n(size - seg)
		if err := s.PutAt(a, off, aBytes[off:off+seg]); err != nil {
			fail("PutAt of A: %v", err)
		}
	})
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	running.Wait()
	for i := 0; i < rounds && failures.Load() == 0; i++ {
		// A is streamed, so its header is never rewritten under a reader.
		if err := s.PutAt(a, 0, aBytes); err != nil {
			t.Fatal(err)
		}
		b := ref(fmt.Sprintf("b%d", i), 0)
		if err := s.Delete(a); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(b, bBytes); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(b)
		if err != nil || !bytes.Equal(got, bBytes) {
			t.Fatalf("round %d: B read back as %d bytes, %v: a stale fd on A wrote into B's file", i, len(got), err)
		}
		bufpool.Put(got)
		if err := s.Delete(b); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiskStoreAdoptsPoolOnRestart: files a crash leaves in the pool are
// adopted empty and never listed; one a crash inside PutAt left also
// named as a chunk is dropped from the pool and the chunk kept.
func TestDiskStoreAdoptsPoolOnRestart(t *testing.T) {
	s, dir := newPoolStore(t)
	live := ref("live", 0)
	data := chunkBytes(10 << 10)
	if err := s.Put(live, data); err != nil {
		t.Fatal(err)
	}
	leftover := filepath.Join(dir, ".free", "7")
	if err := os.WriteFile(leftover, []byte("a chunk caught mid-retire"), 0o644); err != nil {
		t.Fatal(err)
	}
	linked := filepath.Join(dir, ".free", "9")
	if err := os.Link(s.path(live), linked); err != nil {
		t.Fatal(err)
	}

	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(leftover)
	if err != nil || before.Size() != 0 {
		t.Fatalf("leftover pool file after restart: %v, %v; want adopted empty", before, err)
	}
	if _, err := os.Stat(linked); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("pool file also named as a chunk was kept: %v", err)
	}
	if refs, _ := s.List(); len(refs) != 1 || refs[0] != live {
		t.Fatalf("List = %v, want only %v", refs, live)
	}
	if n, _ := s.Bytes(); n != int64(len(data)) {
		t.Fatalf("Bytes = %d, want %d", n, len(data))
	}
	if got, err := s.Get(live); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("live chunk after restart: %v", err)
	}

	// The next write reuses the adopted file.
	x := ref("x", 0)
	if err := s.Put(x, []byte("reuse")); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(s.path(x))
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("Put after restart did not reuse the adopted pool file")
	}
}

// TestDiskStorePoolInvisible: after put/delete churn the pool holds
// files, yet List, Count, Bytes, DeleteBlock and Verify see only live
// chunks, and Bytes is exactly the live payload.
func TestDiskStorePoolInvisible(t *testing.T) {
	s, dir := newPoolStore(t)
	rng := rand.New(rand.NewSource(1))
	live := map[model.ChunkRef][]byte{}
	var gone []model.ChunkRef
	block := func() string { return fmt.Sprintf("blk%d", rng.Intn(12)) }
	for i := 0; i < 400; i++ {
		r := ref(block(), rng.Intn(4))
		switch op := rng.Intn(10); {
		case op < 3:
			data := chunkBytes(1 + rng.Intn(8<<10))
			if err := s.Put(r, data); err != nil {
				t.Fatal(err)
			}
			live[r] = data
		case op < 5:
			data := chunkBytes(1 + rng.Intn(8<<10))
			if _, ok := live[r]; !ok {
				if err := s.PutAt(r, 0, data); err != nil {
					t.Fatal(err)
				}
				live[r] = data
			}
		case op < 9:
			if err := s.Delete(r); err != nil {
				t.Fatal(err)
			}
			delete(live, r)
			gone = append(gone, r)
		default:
			if err := s.DeleteBlock(r.Block); err != nil {
				t.Fatal(err)
			}
			for l := range live {
				if l.Block == r.Block {
					delete(live, l)
					gone = append(gone, l)
				}
			}
		}
	}
	pooled := len(poolFiles(t, dir))
	if pooled == 0 {
		t.Fatal("churn left the pool empty")
	}

	want := make([]model.ChunkRef, 0, len(live))
	var wantBytes int64
	for r, data := range live {
		want = append(want, r)
		wantBytes += int64(len(data))
	}
	sortRefs(want)
	refs, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(refs) != fmt.Sprint(want) {
		t.Fatalf("List = %v, want %v", refs, want)
	}
	if n, _ := s.Count(); n != len(want) {
		t.Fatalf("Count = %d, want %d", n, len(want))
	}
	if n, _ := s.Bytes(); n != wantBytes {
		t.Fatalf("Bytes = %d, want the live payload %d", n, wantBytes)
	}
	for r, data := range live {
		if check, err := s.Verify(r); err != nil || check.Length != int64(len(data)) {
			t.Fatalf("Verify(%v) = %+v, %v", r, check, err)
		}
	}
	for _, r := range gone {
		if _, ok := live[r]; ok {
			continue
		}
		if _, err := s.Verify(r); !errors.Is(err, ErrChunkNotFound) {
			t.Fatalf("Verify of deleted %v: %v", r, err)
		}
	}
	for _, size := range poolFiles(t, dir) {
		if size != 0 {
			t.Fatalf("a pooled file holds %d bytes", size)
		}
	}

	// Deleting blocks with no live chunk touches neither the pool nor
	// the live chunks.
	if err := s.DeleteBlock("nosuch"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteBlock(""); err != nil {
		t.Fatal(err)
	}
	if n := len(poolFiles(t, dir)); n != pooled {
		t.Fatalf("DeleteBlock of absent blocks changed the pool: %d files, was %d", n, pooled)
	}
	if n, _ := s.Count(); n != len(want) {
		t.Fatalf("Count = %d after absent DeleteBlocks, want %d", n, len(want))
	}
}

// TestDiskStoreDeleteUnlinksAtPoolCap: the pool keeps poolCap files;
// deletes past that unlink.
func TestDiskStoreDeleteUnlinksAtPoolCap(t *testing.T) {
	s, dir := newPoolStore(t)
	const extra = 8
	data := []byte("chunk")
	for i := 0; i < poolCap+extra; i++ {
		if err := s.Put(ref(fmt.Sprintf("c%d", i), 0), data); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(poolFiles(t, dir)); n != 0 {
		t.Fatalf("pool holds %d files before any delete", n)
	}
	for i := 0; i < poolCap+extra; i++ {
		if err := s.Delete(ref(fmt.Sprintf("c%d", i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(poolFiles(t, dir)); n != poolCap {
		t.Fatalf("pool holds %d files, want the cap %d", n, poolCap)
	}
	if n, _ := s.Count(); n != 0 {
		t.Fatalf("Count = %d after deleting every chunk", n)
	}
}

// TestDiskStoreConcurrentFirstPutAt: two streams landing the first
// segments of one chunk at once end with one file holding both, whether
// the pool had a file for each of them or none.
func TestDiskStoreConcurrentFirstPutAt(t *testing.T) {
	for _, pooled := range []int{0, 4} {
		t.Run(fmt.Sprintf("pooled=%d", pooled), func(t *testing.T) {
			s, dir := newPoolStore(t)
			for i := 0; i < pooled; i++ {
				r := ref(fmt.Sprintf("fill%d", i), 0)
				if err := s.Put(r, []byte("x")); err != nil {
					t.Fatal(err)
				}
				if err := s.Delete(r); err != nil {
					t.Fatal(err)
				}
			}
			const seg = 4 << 10
			first := bytes.Repeat([]byte{1}, seg)
			second := bytes.Repeat([]byte{2}, seg)
			want := append(append([]byte{}, first...), second...)
			for round := 0; round < 50; round++ {
				r := ref(fmt.Sprintf("s%d", round), 0)
				var start, wg sync.WaitGroup
				start.Add(1)
				for i, data := range [][]byte{first, second} {
					wg.Add(1)
					go func(off int64, data []byte) {
						defer wg.Done()
						start.Wait()
						if err := s.PutAt(r, off, data); err != nil {
							t.Error(err)
						}
					}(int64(i*seg), data)
				}
				start.Done()
				wg.Wait()
				got, err := s.Get(r)
				if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("round %d: chunk holds %d bytes, %v; want both segments", round, len(got), err)
				}
				bufpool.Put(got)
			}
			if n, _ := s.Count(); n != 50 {
				t.Fatalf("Count = %d, want 50", n)
			}
			for _, size := range poolFiles(t, dir) {
				if size != 0 {
					t.Fatalf("a pooled file holds %d bytes", size)
				}
			}
		})
	}
}

// BenchmarkDiskStorePutDelete writes a 50 KiB chunk: fresh puts new
// names only, so every write allocates a file; churn deletes each chunk
// after writing it, so writes reuse retired files.
func BenchmarkDiskStorePutDelete(b *testing.B) {
	data := chunkBytes(50 << 10)
	b.Run("fresh", func(b *testing.B) {
		s, _ := newPoolStore(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Put(ref("fresh", i), data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("churn", func(b *testing.B) {
		s, _ := newPoolStore(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := ref("churn", i)
			if err := s.Put(r, data); err != nil {
				b.Fatal(err)
			}
			if err := s.Delete(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

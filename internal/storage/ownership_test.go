package storage

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/model"
)

// The tests in this file pin the store's "copy on ingest, own on egress"
// rule. TestMain's poison mode does the checking: a released buffer
// reads as 0xDB, a second release panics, and bufpool.Outstanding counts
// the buffers not yet put back.

// waitOutstanding waits for rpc goroutines to put back what they hold
// and fails if the count does not come to want.
func waitOutstanding(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for bufpool.Outstanding() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d pool buffers outstanding, want %d", bufpool.Outstanding(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func chunkBytes(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i % 197)
	}
	return p
}

// TestStoreReadsAreCallerOwnedPoolBuffers: Get and GetAt return a pool
// buffer that starts at the payload (the 24-byte header is not in front
// of it), one per call, and failed reads keep none.
func TestStoreReadsAreCallerOwnedPoolBuffers(t *testing.T) {
	disk, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Store{"mem": NewMemStore(), "disk": disk} {
		t.Run(name, func(t *testing.T) {
			want := chunkBytes(50_000)
			if err := s.Put(ref("b", 0), want); err != nil {
				t.Fatal(err)
			}
			base := bufpool.Outstanding()
			whole, err := s.Get(ref("b", 0))
			if err != nil {
				t.Fatal(err)
			}
			part, err := s.GetAt(ref("b", 0), 1000, 20_000)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(whole, want) || !bytes.Equal(part, want[1000:21_000]) {
				t.Fatal("wrong bytes")
			}
			if cap(whole) != 1<<16 || cap(part) != 1<<15 {
				t.Fatalf("capacities %d and %d, want the 64 KiB and 32 KiB pool classes", cap(whole), cap(part))
			}
			if got := bufpool.Outstanding() - base; got != 2 {
				t.Fatalf("%d pool buffers taken by two reads, want 2", got)
			}
			bufpool.Put(whole)
			bufpool.Put(part)
			// The store kept no reference to what it handed out.
			again, err := s.Get(ref("b", 0))
			if err != nil || !bytes.Equal(again, want) {
				t.Fatalf("re-read after the first buffer was recycled: %v", err)
			}
			bufpool.Put(again)

			// Failed reads hold nothing — including a window whose off+n
			// wraps, as one can arrive off the wire (u64 + u32).
			for _, w := range [][2]int64{{40_000, 20_000}, {math.MaxInt64 - 8, 100}} {
				if _, err := s.GetAt(ref("b", 0), w[0], w[1]); !errors.Is(err, ErrShortChunk) {
					t.Fatalf("GetAt(%d, %d) err = %v, want ErrShortChunk", w[0], w[1], err)
				}
			}
			if _, err := s.Get(ref("ghost", 0)); !errors.Is(err, ErrChunkNotFound) {
				t.Fatalf("err = %v, want ErrChunkNotFound", err)
			}
			if err := s.(RawMutator).MutateRaw(ref("b", 0), func(raw []byte) []byte {
				raw[FrameHeaderSize+7] ^= 0x40
				return raw
			}); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(ref("b", 0)); !errors.Is(err, ErrCorruptChunk) {
				t.Fatalf("err = %v, want ErrCorruptChunk", err)
			}
			if got := bufpool.Outstanding() - base; got != 0 {
				t.Fatalf("%d pool buffers unaccounted for after failed reads, want 0", got)
			}
		})
	}
}

// TestChunkReadOverRPCReleasesBothEnds: the site puts the chunk buffer
// back once the response is written, and the client's copy is the
// caller's to release.
func TestChunkReadOverRPCReleasesBothEnds(t *testing.T) {
	base := bufpool.Outstanding()
	svc := NewService(ServiceConfig{Site: 3}, NewMemStore())
	client, cleanup := startStorageRPC(t, svc)
	defer cleanup()
	ctx := context.Background()
	want := chunkBytes(80_000)
	if err := client.PutChunk(ctx, ref("blk", 1), want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		whole, err := client.GetChunk(ctx, ref("blk", 1))
		if err != nil {
			t.Fatal(err)
		}
		part, err := client.GetChunkRange(ctx, ref("blk", 1), 5000, 30_000)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(whole, want) || !bytes.Equal(part, want[5000:35_000]) {
			t.Fatal("a chunk was recycled by the site before it was written")
		}
		waitOutstanding(t, base+2) // only the two the caller holds
		bufpool.Put(whole)
		bufpool.Put(part)
	}
	if _, err := client.GetChunk(ctx, ref("ghost", 0)); err == nil {
		t.Fatal("missing chunk read succeeded")
	}
	waitOutstanding(t, base)
}

// TestDiskStoreDeleteBlockRemovesOnlyItsOwnFiles covers the names a
// prefix match alone would confuse: "a.1" is chunk 1 of block "a" but
// "a.1.0" is chunk 0 of block "a.1", and a crashed Put's staging file is
// nobody's chunk.
func TestDiskStoreDeleteBlockRemovesOnlyItsOwnFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []model.ChunkRef{ref("a", 0), ref("a", 1), ref("a", 12), ref("a.1", 0), ref("ab", 0), ref("x/a", 0)} {
		if err := s.Put(r, []byte("chunk of "+r.String())); err != nil {
			t.Fatal(err)
		}
	}
	staging := filepath.Join(dir, "a.0.999.1.tmp")
	if err := os.WriteFile(staging, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteBlock("a"); err != nil {
		t.Fatal(err)
	}
	refs, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []model.ChunkRef{ref("a.1", 0), ref("ab", 0), ref("x_a", 0)}
	if len(refs) != len(want) {
		t.Fatalf("after DeleteBlock(a) List = %v, want %v", refs, want)
	}
	for i := range want {
		if refs[i] != want[i] {
			t.Fatalf("after DeleteBlock(a) List = %v, want %v", refs, want)
		}
	}
	if _, err := os.Stat(staging); err != nil {
		t.Fatalf("staging file touched: %v", err)
	}
	if err := s.DeleteBlock("a"); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := s.DeleteBlock("x/a"); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Count(); n != 2 {
		t.Fatalf("Count = %d after deleting the escaped block, want 2", n)
	}
}

// TestDiskStorePutStagesNoCopy: the chunk goes to the file behind its
// 24-byte header without a framed second copy, and what lands is still
// one sealed, CRC-checked frame.
func TestDiskStorePutStagesNoCopy(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := chunkBytes(512 << 10)
	if err := s.Put(ref("warm", 0), data); err != nil {
		t.Fatal(err)
	}
	const puts = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < puts; i++ {
		if err := s.Put(ref("p", 0), data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// File handles, names and error values only.
	if got := (after.TotalAlloc - before.TotalAlloc) / puts; got > 16<<10 {
		t.Errorf("Put of a %d-byte chunk allocates %d bytes: the chunk is being copied", len(data), got)
	}
	check, err := s.Verify(ref("p", 0))
	if err != nil || !check.Sealed || check.Length != int64(len(data)) {
		t.Fatalf("Verify = %+v, %v: want a sealed frame of %d bytes", check, err, len(data))
	}
	got, err := s.Get(ref("p", 0))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back: %v", err)
	}
}

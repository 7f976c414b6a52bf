package storage

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

// testChecksumSuite exercises the at-rest integrity contract against any
// store + its RawMutator hook.
func testChecksumSuite(t *testing.T, s Store) {
	t.Helper()
	mut := s.(RawMutator)

	// Whole-chunk Put lands sealed with a matching CRC.
	data := []byte("the quick brown fox jumps over the lazy dog")
	if err := s.Put(ref("b", 0), data); err != nil {
		t.Fatal(err)
	}
	check, err := s.Verify(ref("b", 0))
	if err != nil {
		t.Fatal(err)
	}
	if !check.Sealed || check.Length != int64(len(data)) || check.CRC != Checksum(data) {
		t.Fatalf("Verify = %+v, want sealed len=%d crc=%08x", check, len(data), Checksum(data))
	}

	// A payload bit flip is caught by Get, GetAt(full window), Verify.
	if err := mut.MutateRaw(ref("b", 0), func(raw []byte) []byte {
		raw[FrameHeaderSize+3] ^= 0x40
		return raw
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(ref("b", 0)); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("Get after bit flip err = %v, want ErrCorruptChunk", err)
	}
	if _, err := s.GetAt(ref("b", 0), 0, int64(len(data))); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("GetAt full window after bit flip err = %v, want ErrCorruptChunk", err)
	}
	if _, err := s.Verify(ref("b", 0)); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("Verify after bit flip err = %v, want ErrCorruptChunk", err)
	}

	// A partial window that misses the flipped byte is structurally fine
	// (documented: partial-window bit rot is the scrubber's job) …
	if _, err := s.GetAt(ref("b", 0), 8, 4); err != nil {
		t.Fatalf("partial GetAt after bit flip err = %v", err)
	}

	// … but truncation is caught even by partial windows.
	if err := s.Put(ref("b", 1), data); err != nil {
		t.Fatal(err)
	}
	if err := mut.MutateRaw(ref("b", 1), func(raw []byte) []byte {
		return raw[:len(raw)-5]
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetAt(ref("b", 1), 0, 4); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("GetAt after truncation err = %v, want ErrCorruptChunk", err)
	}
	if _, err := s.Get(ref("b", 1)); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("Get after truncation err = %v, want ErrCorruptChunk", err)
	}

	// Streamed chunks are unsealed until Seal; Seal makes them sealed and
	// byte accounting stays in payload coordinates throughout.
	if err := s.PutAt(ref("c", 0), 0, []byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutAt(ref("c", 0), 6, []byte("world")); err != nil {
		t.Fatal(err)
	}
	check, err = s.Verify(ref("c", 0))
	if err != nil {
		t.Fatal(err)
	}
	if check.Sealed {
		t.Fatalf("streamed chunk already sealed: %+v", check)
	}
	got, err := s.Get(ref("c", 0))
	if err != nil || string(got) != "hello world" {
		t.Fatalf("streamed Get = %q, %v", got, err)
	}
	check, err = s.Seal(ref("c", 0))
	if err != nil {
		t.Fatal(err)
	}
	if !check.Sealed || check.CRC != Checksum([]byte("hello world")) {
		t.Fatalf("Seal = %+v", check)
	}
	// Seal is idempotent.
	if again, err := s.Seal(ref("c", 0)); err != nil || again != check {
		t.Fatalf("second Seal = %+v, %v", again, err)
	}

	// Writing into a sealed chunk clears the seal instead of serving a
	// stale CRC.
	if err := s.PutAt(ref("c", 0), 0, []byte("jello")); err != nil {
		t.Fatal(err)
	}
	check, err = s.Verify(ref("c", 0))
	if err != nil || check.Sealed {
		t.Fatalf("Verify after reopen = %+v, %v", check, err)
	}

	// A frame without the magic is damage, not an older format: a flipped
	// magic bit or a file cut below the header must never be served as a
	// payload.
	for name, damage := range map[string]func([]byte) []byte{
		"magic-bit":  func(raw []byte) []byte { raw[1] ^= 0x04; return raw },
		"cut-to-10B": func(raw []byte) []byte { return raw[:10] },
	} {
		r := ref("d-"+name, 0)
		if err := s.Put(r, []byte("old data")); err != nil {
			t.Fatal(err)
		}
		if err := mut.MutateRaw(r, damage); err != nil {
			t.Fatal(err)
		}
		if got, err := s.Get(r); !errors.Is(err, ErrCorruptChunk) {
			t.Fatalf("%s: Get = %q, %v, want ErrCorruptChunk", name, got, err)
		}
		if got, err := s.GetAt(r, 0, 4); !errors.Is(err, ErrCorruptChunk) {
			t.Fatalf("%s: GetAt = %q, %v, want ErrCorruptChunk", name, got, err)
		}
		if _, err := s.Verify(r); !errors.Is(err, ErrCorruptChunk) {
			t.Fatalf("%s: Verify err = %v, want ErrCorruptChunk", name, err)
		}
		if _, err := s.Seal(r); !errors.Is(err, ErrCorruptChunk) {
			t.Fatalf("%s: Seal err = %v, want ErrCorruptChunk", name, err)
		}
		if err := s.PutAt(r, 0, []byte("x")); !errors.Is(err, ErrCorruptChunk) {
			t.Fatalf("%s: PutAt err = %v, want ErrCorruptChunk", name, err)
		}
		if err := s.Delete(r); err != nil {
			t.Fatal(err)
		}
	}

	// Byte accounting is payload-only for every write path above.
	want := int64(len(data))*2 - 5 + int64(len("hello world"))
	if b, err := s.Bytes(); err != nil || b != want {
		t.Fatalf("Bytes = %d (%v), want %d", b, err, want)
	}

	// Verify/Seal on a missing chunk.
	if _, err := s.Verify(ref("ghost", 9)); !errors.Is(err, ErrChunkNotFound) {
		t.Fatalf("Verify missing err = %v", err)
	}
	if _, err := s.Seal(ref("ghost", 9)); !errors.Is(err, ErrChunkNotFound) {
		t.Fatalf("Seal missing err = %v", err)
	}
}

func TestMemStoreChecksums(t *testing.T) {
	testChecksumSuite(t, NewMemStore())
}

func TestDiskStoreChecksums(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testChecksumSuite(t, s)
}

func TestServiceVerifyChunk(t *testing.T) {
	store := NewMemStore()
	svc := NewService(ServiceConfig{Site: 1}, store)
	ctx := context.Background()

	payload := bytes.Repeat([]byte("ec"), 512)
	if err := svc.PutChunk(ctx, ref("v", 0), payload); err != nil {
		t.Fatal(err)
	}
	check, err := svc.VerifyChunk(ctx, ref("v", 0))
	if err != nil {
		t.Fatal(err)
	}
	if !check.Sealed || check.Length != int64(len(payload)) {
		t.Fatalf("VerifyChunk = %+v", check)
	}

	// VerifyChunk seals a streamed chunk.
	if err := svc.PutChunkStream(ctx, ref("v", 1), 0, payload); err != nil {
		t.Fatal(err)
	}
	check, err = svc.VerifyChunk(ctx, ref("v", 1))
	if err != nil || !check.Sealed {
		t.Fatalf("VerifyChunk streamed = %+v, %v", check, err)
	}

	// Corruption surfaces as ErrCorruptChunk.
	if err := store.MutateRaw(ref("v", 0), func(raw []byte) []byte {
		raw[len(raw)-1] ^= 1
		return raw
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.VerifyChunk(ctx, ref("v", 0)); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("VerifyChunk corrupt err = %v", err)
	}
	if _, err := svc.VerifyChunk(ctx, ref("ghost", 0)); !errors.Is(err, ErrChunkNotFound) {
		t.Fatalf("VerifyChunk missing err = %v", err)
	}

	// Failed site refuses verifies.
	svc.Fail()
	if _, err := svc.VerifyChunk(ctx, ref("v", 1)); !errors.Is(err, ErrSiteDown) {
		t.Fatalf("VerifyChunk on failed site err = %v", err)
	}
}

func TestGetChunkVerifiesCRC(t *testing.T) {
	store := NewMemStore()
	svc := NewService(ServiceConfig{Site: 1}, store)
	ctx := context.Background()
	if err := svc.PutChunk(ctx, ref("g", 0), []byte("payload bytes")); err != nil {
		t.Fatal(err)
	}
	if err := store.MutateRaw(ref("g", 0), func(raw []byte) []byte {
		raw[FrameHeaderSize] ^= 0x80
		return raw
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.GetChunk(ctx, ref("g", 0)); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("GetChunk err = %v, want ErrCorruptChunk", err)
	}
}

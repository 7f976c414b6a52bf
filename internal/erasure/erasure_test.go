package erasure

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCodecParamValidation(t *testing.T) {
	cases := []struct {
		k, r   int
		wantOK bool
	}{
		{2, 1, true},
		{2, 2, true},
		{10, 4, true},
		{1, 1, false},
		{0, 2, false},
		{2, 0, false},
		{200, 100, false}, // k+r > 256
	}
	for _, tc := range cases {
		_, err := NewCodec(tc.k, tc.r)
		if ok := err == nil; ok != tc.wantOK {
			t.Errorf("NewCodec(%d, %d) err = %v, wantOK=%v", tc.k, tc.r, err, tc.wantOK)
		}
		if err != nil && !errors.Is(err, ErrInvalidParams) {
			t.Errorf("NewCodec(%d, %d) err = %v, want ErrInvalidParams", tc.k, tc.r, err)
		}
	}
}

func TestEncodeIsSystematic(t *testing.T) {
	c := mustCodec(t, 4, 2)
	data := seqData(1000)
	chunks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 6 {
		t.Fatalf("got %d chunks, want 6", len(chunks))
	}
	split := c.Split(data)
	for i := 0; i < 4; i++ {
		if !bytes.Equal(chunks[i], split[i]) {
			t.Fatalf("data chunk %d not systematic", i)
		}
	}
}

func TestDecodeAllData(t *testing.T) {
	c := mustCodec(t, 3, 2)
	data := seqData(301) // not divisible by k, exercises padding
	chunks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	avail := map[int][]byte{0: chunks[0], 1: chunks[1], 2: chunks[2]}
	got, err := c.Decode(avail, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("all-data decode mismatch")
	}
}

func TestDecodeEveryErasurePattern(t *testing.T) {
	// RS(2,2): every 2-subset of the 4 chunks must reconstruct.
	c := mustCodec(t, 2, 2)
	data := seqData(257)
	chunks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			avail := map[int][]byte{a: chunks[a], b: chunks[b]}
			got, err := c.Decode(avail, len(data))
			if err != nil {
				t.Fatalf("decode from {%d,%d}: %v", a, b, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("decode from {%d,%d} mismatch", a, b)
			}
		}
	}
}

func TestDecodeInsufficientChunks(t *testing.T) {
	c := mustCodec(t, 3, 1)
	data := seqData(90)
	chunks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	avail := map[int][]byte{0: chunks[0], 2: chunks[2]}
	if _, err := c.Decode(avail, len(data)); !errors.Is(err, ErrNotEnoughChunks) {
		t.Fatalf("err = %v, want ErrNotEnoughChunks", err)
	}
}

func TestDecodeChunkSizeMismatch(t *testing.T) {
	c := mustCodec(t, 2, 1)
	data := seqData(100)
	chunks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	avail := map[int][]byte{0: chunks[0], 1: chunks[1][:10]}
	if _, err := c.Decode(avail, len(data)); !errors.Is(err, ErrChunkSizeMismatch) {
		t.Fatalf("err = %v, want ErrChunkSizeMismatch", err)
	}
}

func TestDecodeNilEntriesIgnored(t *testing.T) {
	c := mustCodec(t, 2, 2)
	data := seqData(64)
	chunks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	avail := map[int][]byte{0: nil, 1: chunks[1], 3: chunks[3]}
	got, err := c.Decode(avail, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decode with nil entry mismatch")
	}
}

func TestEncodeEmptyBlock(t *testing.T) {
	c := mustCodec(t, 2, 1)
	chunks, err := c.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(map[int][]byte{1: chunks[1], 2: chunks[2]}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty block decoded to %d bytes", len(got))
	}
}

func TestReconstructChunk(t *testing.T) {
	c := mustCodec(t, 3, 2)
	data := seqData(999)
	chunks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct each chunk id from the other four.
	for id := 0; id < 5; id++ {
		avail := make(map[int][]byte)
		for j, ch := range chunks {
			if j != id {
				avail[j] = ch
			}
		}
		got, err := c.ReconstructChunk(avail, id)
		if err != nil {
			t.Fatalf("reconstruct %d: %v", id, err)
		}
		if !bytes.Equal(got, chunks[id]) {
			t.Fatalf("reconstructed chunk %d mismatch", id)
		}
	}
}

func TestReconstructChunkAlreadyPresent(t *testing.T) {
	c := mustCodec(t, 2, 1)
	data := seqData(50)
	chunks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	avail := map[int][]byte{0: chunks[0], 1: chunks[1], 2: chunks[2]}
	got, err := c.ReconstructChunk(avail, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, chunks[1]) {
		t.Fatal("present chunk round-trip mismatch")
	}
	// Returned chunk must not alias the stored one.
	got[0] ^= 0xFF
	if got[0] == chunks[1][0] {
		t.Fatal("ReconstructChunk aliased input")
	}
}

func TestReconstructChunkBadID(t *testing.T) {
	c := mustCodec(t, 2, 1)
	if _, err := c.ReconstructChunk(nil, 3); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("err = %v, want ErrInvalidParams", err)
	}
	if _, err := c.ReconstructChunk(nil, -1); !errors.Is(err, ErrInvalidParams) {
		t.Fatalf("err = %v, want ErrInvalidParams", err)
	}
}

func TestChunkSize(t *testing.T) {
	c := mustCodec(t, 4, 2)
	cases := []struct {
		blockLen, want int
	}{
		// Empty blocks still store one zero byte per chunk, matching
		// Split's padding, so metadata and stored bytes agree.
		{0, 1},
		{1, 1},
		{4, 1},
		{5, 2},
		{100, 25},
		{101, 26},
	}
	for _, tc := range cases {
		if got := c.ChunkSize(tc.blockLen); got != tc.want {
			t.Errorf("ChunkSize(%d) = %d, want %d", tc.blockLen, got, tc.want)
		}
	}
}

func TestStorageOverhead(t *testing.T) {
	c := mustCodec(t, 2, 2)
	if got := c.StorageOverhead(); got != 2.0 {
		t.Fatalf("RS(2,2) overhead = %v, want 2.0", got)
	}
	c2 := mustCodec(t, 4, 2)
	if got := c2.StorageOverhead(); got != 1.5 {
		t.Fatalf("RS(4,2) overhead = %v, want 1.5", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	check := func(kRaw, rRaw uint8, blockLenRaw uint16) bool {
		k := int(kRaw%6) + 2 // [2, 7]
		r := int(rRaw%4) + 1 // [1, 4]
		blockLen := int(blockLenRaw % 4096)
		c, err := NewCodec(k, r)
		if err != nil {
			return false
		}
		data := make([]byte, blockLen)
		rng.Read(data)
		chunks, err := c.Encode(data)
		if err != nil {
			return false
		}
		// Random k-subset of the k+r chunks.
		perm := rng.Perm(k + r)
		avail := make(map[int][]byte, k)
		for _, id := range perm[:k] {
			avail[id] = chunks[id]
		}
		got, err := c.Decode(avail, blockLen)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestJoinValidation(t *testing.T) {
	c := mustCodec(t, 2, 1)
	if _, err := c.Join([][]byte{{1}}, 2); !errors.Is(err, ErrNotEnoughChunks) {
		t.Fatalf("short join err = %v", err)
	}
	if _, err := c.Join([][]byte{{1}, {2, 3}}, 2); !errors.Is(err, ErrChunkSizeMismatch) {
		t.Fatalf("ragged join err = %v", err)
	}
	if _, err := c.Join([][]byte{{1}, {2}}, 5); !errors.Is(err, ErrChunkSizeMismatch) {
		t.Fatalf("oversize blockLen err = %v", err)
	}
}

func mustCodec(t *testing.T, k, r int) *Codec {
	t.Helper()
	c, err := NewCodec(k, r)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func seqData(n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i * 31)
	}
	return d
}

func BenchmarkEncodeRS22_100KB(b *testing.B) {
	benchEncode(b, 2, 2, 100*1024)
}

func BenchmarkEncodeRS42_1MB(b *testing.B) {
	benchEncode(b, 4, 2, 1024*1024)
}

func BenchmarkDecodeRS22_100KB_Degraded(b *testing.B) {
	c, err := NewCodec(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	data := seqData(100 * 1024)
	chunks, err := c.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	avail := map[int][]byte{1: chunks[1], 3: chunks[3]}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decode(avail, len(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEncode(b *testing.B, k, r, size int) {
	c, err := NewCodec(k, r)
	if err != nil {
		b.Fatal(err)
	}
	data := seqData(size)
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func TestDecodeFromParityOnly(t *testing.T) {
	// RS(2,2): reconstruct using only the two parity chunks.
	c := mustCodec(t, 2, 2)
	data := seqData(333)
	chunks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decode(map[int][]byte{2: chunks[2], 3: chunks[3]}, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("parity-only decode mismatch")
	}
}

func TestReconstructChunkProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	check := func(kRaw, rRaw uint8) bool {
		k := int(kRaw%4) + 2
		r := int(rRaw%3) + 1
		c, err := NewCodec(k, r)
		if err != nil {
			return false
		}
		data := make([]byte, 257)
		rng.Read(data)
		chunks, err := c.Encode(data)
		if err != nil {
			return false
		}
		// Drop a random chunk, reconstruct it from a random k-subset of
		// the rest.
		lost := rng.Intn(k + r)
		avail := make(map[int][]byte)
		perm := rng.Perm(k + r)
		for _, id := range perm {
			if id != lost && len(avail) < k {
				avail[id] = chunks[id]
			}
		}
		got, err := c.ReconstructChunk(avail, lost)
		if err != nil {
			return false
		}
		return bytes.Equal(got, chunks[lost])
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

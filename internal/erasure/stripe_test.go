package erasure

import (
	"bytes"
	"math/rand"
	"testing"

	"ecstore/internal/gf256"
)

func testBlock(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// TestEncodePooledMatchesEncode pins the aliasing, pooled encode against
// the copying one across block sizes that exercise every padding shape:
// empty, sub-chunk, exact multiples, and ragged tails.
func TestEncodePooledMatchesEncode(t *testing.T) {
	for _, kr := range [][2]int{{2, 1}, {2, 2}, {4, 2}, {6, 3}, {5, 1}} {
		c := mustCodec(t, kr[0], kr[1])
		for _, n := range []int{0, 1, 2, kr[0] - 1, kr[0], kr[0] + 1, 63, 64, 1000, 4096, 4097} {
			data := testBlock(int64(n+1), n)
			want, err := c.Encode(data)
			if err != nil {
				t.Fatalf("Encode(%d): %v", n, err)
			}
			st, err := c.EncodePooled(data)
			if err != nil {
				t.Fatalf("EncodePooled(%d): %v", n, err)
			}
			got := st.Chunks()
			if len(got) != len(want) {
				t.Fatalf("EncodePooled(%d): %d chunks, want %d", n, len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("RS(%d,%d) block %d: chunk %d differs between Encode and EncodePooled", kr[0], kr[1], n, i)
				}
			}
			st.Release()
		}
	}
}

// TestEncodePooledAliasesData checks the zero-copy contract: full data
// chunks alias the source block, and only padded tails plus parity live
// in the pooled backing.
func TestEncodePooledAliasesData(t *testing.T) {
	c := mustCodec(t, 4, 2)
	data := testBlock(7, 4096) // 4 chunks of 1024, no padding
	st, err := c.EncodePooled(data)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Release()
	for i := 0; i < 4; i++ {
		if &st.Chunks()[i][0] != &data[i*1024] {
			t.Errorf("data chunk %d does not alias the source block", i)
		}
	}
	for p := 4; p < 6; p++ {
		ch := st.Chunks()[p]
		if &ch[0] == &data[0] {
			t.Errorf("parity chunk %d aliases the source block", p)
		}
	}
}

// TestDecodeIntoAllErasurePatterns decodes every k-subset of chunks for
// small codecs, covering healthy, parity-assisted, and maximally
// degraded reads, with both aligned and ragged block lengths.
func TestDecodeIntoAllErasurePatterns(t *testing.T) {
	for _, kr := range [][2]int{{2, 1}, {2, 2}, {3, 2}, {4, 2}} {
		k, r := kr[0], kr[1]
		c := mustCodec(t, k, r)
		for _, n := range []int{0, 1, 5, 1024, 1031} {
			data := testBlock(int64(n+13), n)
			chunks, err := c.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			total := k + r
			for mask := 0; mask < 1<<total; mask++ {
				avail := make(map[int][]byte)
				for id := 0; id < total; id++ {
					if mask&(1<<id) != 0 {
						avail[id] = chunks[id]
					}
				}
				got, err := c.Decode(avail, n)
				if popcount(mask) < k {
					if err == nil {
						t.Fatalf("RS(%d,%d) decode with %d chunks succeeded", k, r, popcount(mask))
					}
					continue
				}
				if err != nil {
					t.Fatalf("RS(%d,%d) n=%d mask=%b: %v", k, r, n, mask, err)
				}
				if !bytes.Equal(got, data) {
					t.Fatalf("RS(%d,%d) n=%d mask=%b: decode mismatch", k, r, n, mask)
				}
			}
		}
	}
}

func popcount(v int) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// TestReconstructChunkAllPatterns rebuilds every chunk id from every
// viable k-subset and checks it against the original encoding.
func TestReconstructChunkAllPatterns(t *testing.T) {
	c := mustCodec(t, 3, 2)
	data := testBlock(21, 999)
	chunks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 1<<5; mask++ {
		if popcount(mask) < 3 {
			continue
		}
		avail := make(map[int][]byte)
		for id := 0; id < 5; id++ {
			if mask&(1<<id) != 0 {
				avail[id] = chunks[id]
			}
		}
		for id := 0; id < 5; id++ {
			got, err := c.ReconstructChunk(avail, id)
			if err != nil {
				t.Fatalf("mask=%b id=%d: %v", mask, id, err)
			}
			if !bytes.Equal(got, chunks[id]) {
				t.Fatalf("mask=%b id=%d: reconstruction mismatch", mask, id)
			}
		}
	}
}

// TestDecodeMatrixCache checks that repeated degraded decodes with the
// same surviving set invert the generator sub-matrix exactly once.
func TestDecodeMatrixCache(t *testing.T) {
	c := mustCodec(t, 4, 2)
	data := testBlock(5, 4096)
	chunks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	avail := map[int][]byte{0: chunks[0], 2: chunks[2], 3: chunks[3], 4: chunks[4]}
	for i := 0; i < 3; i++ {
		got, err := c.Decode(avail, len(data))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("decode mismatch")
		}
	}
	c.decMu.RLock()
	entries := len(c.decCache)
	c.decMu.RUnlock()
	if entries != 1 {
		t.Fatalf("decode-matrix cache has %d entries, want 1", entries)
	}
}

// TestStripeShardingMatchesInline forces multi-goroutine sharding with a
// tiny threshold and checks byte identity with the inline path.
func TestStripeShardingMatchesInline(t *testing.T) {
	inline := mustCodec(t, 4, 2)
	sharded, err := NewCodecWith(4, 2, Options{StripeThreshold: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	data := testBlock(9, 1<<20|577) // ragged, above any shard rounding
	want, err := inline.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !bytes.Equal(want[i], got[i]) {
			t.Fatalf("sharded encode: chunk %d differs", i)
		}
	}
	avail := map[int][]byte{1: got[1], 2: got[2], 4: got[4], 5: got[5]}
	dec, err := sharded.Decode(avail, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, data) {
		t.Fatal("sharded degraded decode mismatch")
	}
}

// TestCodecSteadyStateAllocations is the ISSUE's zero-alloc gate: with a
// warm pool and a warm decode-matrix cache, EncodePooled+Release and
// DecodeInto perform zero per-call chunk allocations.
func TestCodecSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool does not pool under the race detector")
	}
	// Sharding is disabled: the sharded path trades closure + goroutine
	// allocations for parallelism, which is the configured exception to
	// the zero-alloc rule.
	c, err := NewCodecWith(4, 2, Options{StripeThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	data := testBlock(11, 1<<20)
	chunks, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}

	if n := testing.AllocsPerRun(20, func() {
		st, err := c.EncodePooled(data)
		if err != nil {
			t.Fatal(err)
		}
		st.Release()
	}); n > 0 {
		t.Errorf("EncodePooled steady state allocates %.1f times per call, want 0", n)
	}

	dst := make([]byte, len(data))
	healthy := map[int][]byte{0: chunks[0], 1: chunks[1], 2: chunks[2], 3: chunks[3]}
	if n := testing.AllocsPerRun(20, func() {
		if err := c.DecodeInto(dst, healthy); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("healthy DecodeInto allocates %.1f times per call, want 0", n)
	}

	degraded := map[int][]byte{0: chunks[0], 2: chunks[2], 3: chunks[3], 5: chunks[5]}
	if err := c.DecodeInto(dst, degraded); err != nil { // warm the matrix cache
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := c.DecodeInto(dst, degraded); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Errorf("degraded DecodeInto allocates %.1f times per call, want 0", n)
	}
}

// TestEmptyBlockRoundTrip covers the ChunkSize(0) consistency fix at the
// codec layer: every chunk of an empty block is exactly ChunkSize(0)
// bytes and the block decodes back to empty.
func TestEmptyBlockRoundTrip(t *testing.T) {
	c := mustCodec(t, 4, 2)
	if got := c.ChunkSize(0); got != 1 {
		t.Fatalf("ChunkSize(0) = %d, want 1", got)
	}
	chunks, err := c.Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, ch := range chunks {
		if len(ch) != c.ChunkSize(0) {
			t.Fatalf("chunk %d has %d bytes, want ChunkSize(0)=%d", i, len(ch), c.ChunkSize(0))
		}
	}
	avail := map[int][]byte{1: chunks[1], 3: chunks[3], 4: chunks[4], 5: chunks[5]}
	got, err := c.Decode(avail, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d bytes from empty block", len(got))
	}
}

func benchmarkCodec(b *testing.B, accel bool, run func(b *testing.B, c *Codec, data []byte, chunks [][]byte)) {
	defer gf256.SetAccel(gf256.SetAccel(accel))
	c, err := NewCodec(2, 2)
	if err != nil {
		b.Fatal(err)
	}
	data := testBlock(1, 1<<20)
	chunks, err := c.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	run(b, c, data, chunks)
}

// BenchmarkCodecEncode1MB measures the pooled hot-path encode of a 1 MiB
// block with RS(2,2); the scalar variant is the pre-kernel baseline.
func BenchmarkCodecEncode1MB(b *testing.B) {
	for _, mode := range []struct {
		name  string
		accel bool
	}{{"kernel", true}, {"scalar", false}} {
		b.Run(mode.name, func(b *testing.B) {
			benchmarkCodec(b, mode.accel, func(b *testing.B, c *Codec, data []byte, _ [][]byte) {
				for i := 0; i < b.N; i++ {
					st, err := c.EncodePooled(data)
					if err != nil {
						b.Fatal(err)
					}
					st.Release()
				}
			})
		})
	}
}

// BenchmarkCodecDecodeHealthy1MB reads with all data chunks present.
func BenchmarkCodecDecodeHealthy1MB(b *testing.B) {
	benchmarkCodec(b, true, func(b *testing.B, c *Codec, data []byte, chunks [][]byte) {
		avail := map[int][]byte{0: chunks[0], 1: chunks[1]}
		dst := make([]byte, len(data))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := c.DecodeInto(dst, avail); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCodecDecodeDegraded1MB reads with a data chunk lost,
// reconstructing through parity.
func BenchmarkCodecDecodeDegraded1MB(b *testing.B) {
	for _, mode := range []struct {
		name  string
		accel bool
	}{{"kernel", true}, {"scalar", false}} {
		b.Run(mode.name, func(b *testing.B) {
			benchmarkCodec(b, mode.accel, func(b *testing.B, c *Codec, data []byte, chunks [][]byte) {
				avail := map[int][]byte{1: chunks[1], 2: chunks[2]}
				dst := make([]byte, len(data))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.DecodeInto(dst, avail); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkCodecEncodeRS63 is the wider paper configuration.
func BenchmarkCodecEncodeRS63(b *testing.B) {
	defer gf256.SetAccel(gf256.SetAccel(true))
	c, err := NewCodec(6, 3)
	if err != nil {
		b.Fatal(err)
	}
	data := testBlock(2, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := c.EncodePooled(data)
		if err != nil {
			b.Fatal(err)
		}
		st.Release()
	}
}

var sinkChunks [][]byte

// BenchmarkCodecEncodeLegacy1MB is the copying Encode path, kept for
// comparison with the pre-PR baseline (fresh allocations per call).
func BenchmarkCodecEncodeLegacy1MB(b *testing.B) {
	benchmarkCodec(b, true, func(b *testing.B, c *Codec, data []byte, _ [][]byte) {
		for i := 0; i < b.N; i++ {
			chunks, err := c.Encode(data)
			if err != nil {
				b.Fatal(err)
			}
			sinkChunks = chunks
		}
	})
}

func FuzzDecodeAdversarial(f *testing.F) {
	f.Add([]byte("hello erasure"), uint16(0x3f), uint8(0), uint8(0))
	f.Add([]byte{}, uint16(0x0b), uint8(1), uint8(3))
	f.Add(bytes.Repeat([]byte{0xA5}, 257), uint16(0x35), uint8(2), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, mask uint16, tamperID, tamperLen uint8) {
		const k, r = 3, 3
		c, err := NewCodec(k, r)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 1<<16 {
			data = data[:1<<16]
		}
		chunks, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		avail := make(map[int][]byte)
		n := 0
		for id := 0; id < k+r; id++ {
			if mask&(1<<id) != 0 {
				avail[id] = chunks[id]
				n++
			}
		}
		// Adversarial entries: out-of-range ids and a resized chunk.
		avail[-1] = chunks[0]
		avail[k+r+3] = chunks[0]
		tampered := false
		if tid := int(tamperID) % (k + r); avail[tid] != nil && int(tamperLen) != len(avail[tid]) {
			avail[tid] = make([]byte, tamperLen)
			tampered = true
		}

		got, err := c.Decode(avail, len(data))
		if err != nil {
			if !tampered && n >= k {
				t.Fatalf("decode failed with %d intact chunks: %v", n, err)
			}
			return
		}
		if tampered {
			return // sizes happened to stay consistent; nothing to check
		}
		if !bytes.Equal(got, data) {
			t.Fatal("decode round-trip mismatch")
		}
		for id := 0; id < k+r; id++ {
			rec, err := c.ReconstructChunk(avail, id)
			if err != nil {
				t.Fatalf("reconstruct %d: %v", id, err)
			}
			if !bytes.Equal(rec, chunks[id]) {
				t.Fatalf("reconstruct %d mismatch", id)
			}
		}
	})
}

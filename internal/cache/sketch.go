package cache

// sketch is a small count-min sketch used for TinyLFU-style admission:
// it approximates how often each block has been requested recently so
// the cache can refuse to evict a popular resident entry for a one-hit
// wonder. Counters are 4-bit-equivalent (capped uint8) and the whole
// sketch is periodically halved ("aged") so estimates track the recent
// window rather than all of history.
//
// The sketch is deterministic: row seeds derive from the configured
// cache seed via splitmix64, so identical access sequences produce
// identical admission decisions (the determinism lint rule covers this
// package).
type sketch struct {
	rows  [sketchDepth][]uint8
	seeds [sketchDepth]uint64
	mask  uint64
	// adds counts Add calls since the last aging pass; when it reaches
	// sampleCap every counter is halved.
	adds      int
	sampleCap int
}

const (
	sketchDepth = 4
	// counterCap bounds each counter; TinyLFU needs only coarse
	// frequency ranks, and a low cap makes aging cheap and keeps
	// recently-hot entries from dominating forever.
	counterCap = 15
)

// newSketch sizes the sketch for roughly the given number of tracked
// entries (rounded up to a power of two, minimum 64 slots per row).
func newSketch(entries int, seed int64) *sketch {
	width := 64
	for width < entries {
		width *= 2
	}
	s := &sketch{
		mask:      uint64(width - 1),
		sampleCap: width * 8,
	}
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	for i := range s.rows {
		s.rows[i] = make([]uint8, width)
		x = splitmix64(x)
		s.seeds[i] = x | 1 // odd multiplier
	}
	return s
}

// splitmix64 is the SplitMix64 finalizer; it spreads the seed into
// independent per-row multipliers.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// slot maps a block hash to row i's counter index.
func (s *sketch) slot(i int, h uint64) uint64 {
	return (h * s.seeds[i]) >> 17 & s.mask
}

// add records one access of the block with hash h.
func (s *sketch) add(h uint64) {
	for i := range s.rows {
		c := &s.rows[i][s.slot(i, h)]
		if *c < counterCap {
			*c++
		}
	}
	s.adds++
	if s.adds >= s.sampleCap {
		s.age()
	}
}

// estimate returns the minimum counter across rows — the usual
// count-min upper bound on the block's recent access count.
func (s *sketch) estimate(h uint64) int {
	est := counterCap
	for i := range s.rows {
		if c := int(s.rows[i][s.slot(i, h)]); c < est {
			est = c
		}
	}
	return est
}

// age halves every counter, decaying history so the sketch tracks the
// recent access window (the "reset" operation from the TinyLFU paper).
func (s *sketch) age() {
	for i := range s.rows {
		row := s.rows[i]
		for j := range row {
			row[j] >>= 1
		}
	}
	s.adds = 0
}

// hashID is FNV-1a over the block id, which the sketch's rows spread
// into their slots.
func hashID(id string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return h
}

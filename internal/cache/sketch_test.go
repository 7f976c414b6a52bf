package cache

import "testing"

func TestSketchCountsAndCaps(t *testing.T) {
	s := newSketch(128, 42)
	h := hashID("block-0001")
	if got := s.estimate(h); got != 0 {
		t.Fatalf("fresh estimate = %d, want 0", got)
	}
	for i := 0; i < 5; i++ {
		s.add(h)
	}
	if got := s.estimate(h); got < 5 {
		t.Fatalf("estimate = %d, want >= 5 (count-min never undercounts)", got)
	}
	for i := 0; i < 100; i++ {
		s.add(h)
	}
	if got := s.estimate(h); got > counterCap {
		t.Fatalf("estimate = %d exceeds cap %d", got, counterCap)
	}
}

func TestSketchAgingHalves(t *testing.T) {
	s := newSketch(64, 7)
	h := hashID("hot")
	for i := 0; i < 8; i++ {
		s.add(h)
	}
	before := s.estimate(h)
	s.age()
	after := s.estimate(h)
	if after != before/2 {
		t.Fatalf("aged estimate = %d, want %d", after, before/2)
	}
}

func TestSketchAgesAutomatically(t *testing.T) {
	s := newSketch(1, 3) // width 64, sampleCap 512
	h := hashID("x")
	for i := 0; i < s.sampleCap; i++ {
		s.add(h)
	}
	if s.adds != 0 {
		t.Fatalf("adds = %d after hitting sampleCap, want 0 (aged)", s.adds)
	}
	if got := s.estimate(h); got >= counterCap {
		t.Fatalf("estimate = %d, want halved below cap", got)
	}
}

func TestSketchDeterministicAcrossInstances(t *testing.T) {
	a, b := newSketch(128, 99), newSketch(128, 99)
	ids := []string{"a", "b", "c", "block-0001", "block-0002"}
	for i, id := range ids {
		for j := 0; j <= i; j++ {
			a.add(hashID(id))
			b.add(hashID(id))
		}
	}
	for _, id := range ids {
		if a.estimate(hashID(id)) != b.estimate(hashID(id)) {
			t.Fatalf("same seed, different estimates for %q", id)
		}
	}
	// A different seed maps ids to different slots (estimates may differ
	// on collision-heavy loads); just assert it constructs distinctly.
	c := newSketch(128, 100)
	if c.seeds == a.seeds {
		t.Fatal("different seeds produced identical row multipliers")
	}
}

// TestReadCountsOnceInSketch: a read that misses and then fills the
// cache is one access, recorded by Get alone.
func TestReadCountsOnceInSketch(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20, Seed: 1})
	if _, ok := c.Get("b", 1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("b", 1, []byte("x"))
	if got := c.estimate("b"); got != 1 {
		t.Fatalf("estimate after one missed read = %d, want 1", got)
	}
}

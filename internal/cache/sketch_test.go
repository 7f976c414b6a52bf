package cache

import "testing"

func TestSketchCountsAndCaps(t *testing.T) {
	s := newSketch(128, 42)
	h := hashID("block-0001")
	if got := s.estimate(h); got != 0 {
		t.Fatalf("fresh estimate = %d, want 0", got)
	}
	for i := 0; i < 5; i++ {
		s.add(h, 0)
	}
	if got := s.estimate(h); got < 5 {
		t.Fatalf("estimate = %d, want >= 5 (count-min never undercounts)", got)
	}
	for i := 0; i < 100; i++ {
		s.add(h, 0)
	}
	if got := s.estimate(h); got > counterCap {
		t.Fatalf("estimate = %d exceeds cap %d", got, counterCap)
	}
}

func TestSketchAgingHalves(t *testing.T) {
	s := newSketch(64, 7)
	h := hashID("hot")
	for i := 0; i < 8; i++ {
		s.add(h, 0)
	}
	before := s.estimate(h)
	s.age()
	after := s.estimate(h)
	if after != before/2 {
		t.Fatalf("aged estimate = %d, want %d", after, before/2)
	}
}

func TestSketchAgesAutomatically(t *testing.T) {
	s := newSketch(1, 3) // width 64: an empty cache ages every 64 adds
	h := hashID("x")
	for i := 0; i < 64; i++ {
		s.add(h, 0)
	}
	if s.adds != 0 {
		t.Fatalf("adds = %d after a full period, want 0 (aged)", s.adds)
	}
	if got := s.estimate(h); got >= counterCap {
		t.Fatalf("estimate = %d, want halved below cap", got)
	}
}

// TestSketchAgingPeriodTracksPopulation: the aging period is agePerEntry
// adds per resident entry, floored at the sketch's width, whatever the
// width the cache's byte budget chose.
func TestSketchAgingPeriodTracksPopulation(t *testing.T) {
	s := newSketch(8192, 5) // a 32 MiB cache's width
	for _, tc := range []struct{ resident, want int }{
		{0, 8192}, {100, 8192}, {327, 327 * agePerEntry}, {5000, 5000 * agePerEntry},
	} {
		if got := s.period(tc.resident); got != tc.want {
			t.Errorf("period(%d) = %d, want %d", tc.resident, got, tc.want)
		}
	}
	// The period is read at every add, so it follows the population as
	// the cache fills: 1000 resident entries age after 32,000 adds, not
	// after the 8 x width = 65,536 a block-size guess would give.
	h := hashID("hot")
	for i := 1; i < 1000*agePerEntry; i++ {
		s.add(h, 1000)
	}
	if s.adds != 1000*agePerEntry-1 {
		t.Fatalf("aged early: adds = %d", s.adds)
	}
	s.add(h, 1000)
	if s.adds != 0 {
		t.Fatalf("adds = %d after %d adds with 1000 entries resident, want 0 (aged)", s.adds, 1000*agePerEntry)
	}
}

func TestSketchDeterministicAcrossInstances(t *testing.T) {
	a, b := newSketch(128, 99), newSketch(128, 99)
	ids := []string{"a", "b", "c", "block-0001", "block-0002"}
	for i, id := range ids {
		for j := 0; j <= i; j++ {
			a.add(hashID(id), 0)
			b.add(hashID(id), 0)
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

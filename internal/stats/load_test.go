package stats

import (
	"math"
	"testing"

	"ecstore/internal/model"
)

func TestOmegaAndMean(t *testing.T) {
	l := NewLoadTracker()
	l.Report(1, SiteLoad{CPU: 0.5, IOBytesPerSec: 100})
	l.Report(2, SiteLoad{CPU: 0.5, IOBytesPerSec: 50})

	// ioScale adapts to the max rate (100), so ω(1) = 0.5 + 1.0 = 1.5
	// and ω(2) = 0.5 + 0.5 = 1.0.
	if got := l.Omega(1); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("Omega(1) = %v, want 1.5", got)
	}
	if got := l.Omega(2); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("Omega(2) = %v, want 1.0", got)
	}
	if got := l.MeanOmega(); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("MeanOmega = %v, want 1.25", got)
	}
}

func TestBalanceFactor(t *testing.T) {
	l := NewLoadTracker()
	l.Report(1, SiteLoad{CPU: 1.0})
	l.Report(2, SiteLoad{CPU: 1.0})
	if got := l.BalanceFactor(1); got != 0 {
		t.Errorf("balanced factor = %v, want 0", got)
	}

	l.Report(1, SiteLoad{CPU: 2.0})
	// mean = 1.5: Ω(1) = |1-2/1.5| = 1/3, Ω(2) = |1-1/1.5| = 1/3.
	if got := l.BalanceFactor(1); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("Ω(1) = %v, want 1/3", got)
	}

	empty := NewLoadTracker()
	if got := empty.BalanceFactor(7); got != 0 {
		t.Errorf("empty tracker Ω = %v", got)
	}
}

func TestImbalanceGain(t *testing.T) {
	l := NewLoadTracker()
	l.Report(1, SiteLoad{CPU: 2.0})
	l.Report(2, SiteLoad{CPU: 0.0})
	l.Report(3, SiteLoad{CPU: 1.0})

	// mean = 1. Moving 1.0 of ω from site 1 to site 2 perfectly
	// balances: before max(Ω1, Ω2) = 1, after = 0, gain 1.
	if got := l.ImbalanceGain(1, 2, 1.0); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("ImbalanceGain = %v, want 1", got)
	}
	// Moving load from the average site onto the hot site is harmful.
	if got := l.ImbalanceGain(3, 1, 0.5); got >= 0 {
		t.Errorf("harmful move gain = %v, want negative", got)
	}
	// Zero shift changes nothing.
	if got := l.ImbalanceGain(1, 2, 0); got != 0 {
		t.Errorf("zero shift gain = %v", got)
	}
	// Shift is clamped to the source's load.
	if got := l.ImbalanceGain(2, 3, 5.0); !math.IsNaN(got) && got <= 0.0+1e-12 && got >= -1e-9 {
		// site 2 has ω=0, clamped shift = 0, gain = 0
	} else {
		t.Errorf("clamped gain = %v, want 0", got)
	}
}

func TestLoadShare(t *testing.T) {
	l := NewLoadTracker()
	l.Report(1, SiteLoad{CPU: 0.2, IOBytesPerSec: 1000})
	if got := l.LoadShare(1, 250); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("LoadShare = %v, want 0.25", got)
	}
	if got := l.LoadShare(1, 5000); got != 1 {
		t.Errorf("LoadShare clamp = %v, want 1", got)
	}
	if got := l.LoadShare(1, 0); got != 0 {
		t.Errorf("LoadShare zero demand = %v", got)
	}
	if got := l.LoadShare(9, 10); got != 0 {
		t.Errorf("LoadShare unknown site = %v", got)
	}
}

func TestSitesByLoadDesc(t *testing.T) {
	l := NewLoadTracker()
	l.Report(1, SiteLoad{CPU: 0.1})
	l.Report(2, SiteLoad{CPU: 0.9})
	l.Report(3, SiteLoad{CPU: 0.5})
	got := l.SitesByLoadDesc()
	want := []model.SiteID{2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SitesByLoadDesc = %v, want %v", got, want)
		}
	}
}

func TestSitesAndRemove(t *testing.T) {
	l := NewLoadTracker()
	l.Report(2, SiteLoad{})
	l.Report(1, SiteLoad{})
	got := l.Sites()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("Sites = %v", got)
	}
	l.Remove(1)
	if got := l.Sites(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Sites after remove = %v", got)
	}
}

func TestSnapshotIsCopy(t *testing.T) {
	l := NewLoadTracker()
	l.Report(1, SiteLoad{CPU: 0.5})
	snap := l.Snapshot()
	snap[1] = SiteLoad{CPU: 9}
	if l.Omega(1) == 9 {
		t.Fatal("Snapshot aliases internal map")
	}
}

func TestProbeEstimatorEWMA(t *testing.T) {
	p := NewProbeEstimator(0.5)
	if got := p.O(1, 42); got != 42 {
		t.Errorf("default O = %v, want 42", got)
	}
	p.Observe(1, 10)
	if got := p.O(1, 0); got != 10 {
		t.Errorf("first O = %v, want 10", got)
	}
	p.Observe(1, 20)
	if got := p.O(1, 0); math.Abs(got-15) > 1e-12 {
		t.Errorf("EWMA O = %v, want 15", got)
	}
}

func TestProbeEstimatorBadAlphaFallsBack(t *testing.T) {
	p := NewProbeEstimator(-1)
	p.Observe(1, 10)
	p.Observe(1, 0)
	got := p.O(1, 0)
	if math.Abs(got-7) > 1e-12 { // (1-0.3)*10 + 0.3*0
		t.Errorf("fallback alpha O = %v, want 7", got)
	}
}

func TestProbeEstimatorCostsAndAverage(t *testing.T) {
	p := NewProbeEstimator(1)
	p.Observe(1, 4)
	p.Observe(2, 6)
	costs := p.Costs(9, 2)
	if got := costs.OCost(1); got != 4 {
		t.Errorf("costs O(1) = %v", got)
	}
	if got := costs.OCost(99); got != 9 {
		t.Errorf("costs O default = %v", got)
	}
	if got := costs.MCost(1); got != 2 {
		t.Errorf("costs M = %v", got)
	}
}

func TestApplyShift(t *testing.T) {
	l := NewLoadTracker()
	l.Report(1, SiteLoad{CPU: 0.8, IOBytesPerSec: 1000, Chunks: 10})
	l.Report(2, SiteLoad{CPU: 0.2, IOBytesPerSec: 200, Chunks: 5})

	l.ApplyShift(1, 2, 0.5)
	snap := l.Snapshot()
	if math.Abs(snap[1].CPU-0.4) > 1e-12 || math.Abs(snap[2].CPU-0.6) > 1e-12 {
		t.Fatalf("CPU after shift: %+v", snap)
	}
	if math.Abs(snap[1].IOBytesPerSec-500) > 1e-9 || math.Abs(snap[2].IOBytesPerSec-700) > 1e-9 {
		t.Fatalf("IO after shift: %+v", snap)
	}
	if snap[1].Chunks != 9 || snap[2].Chunks != 6 {
		t.Fatalf("chunks after shift: %+v", snap)
	}

	// Fractions are clamped; non-positive is a no-op.
	l.ApplyShift(1, 2, 0)
	l.ApplyShift(1, 2, -1)
	snap2 := l.Snapshot()
	if snap2[1].CPU != snap[1].CPU {
		t.Fatal("no-op shift changed state")
	}
	l.ApplyShift(1, 2, 5) // clamped to 1: all load moves
	snap3 := l.Snapshot()
	if snap3[1].CPU != 0 {
		t.Fatalf("full shift left CPU %v", snap3[1].CPU)
	}
}

package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops_total", "test")
	vec := reg.CounterVec("site_ops_total", "site", "test")
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := vec.With("7")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				sc.Add(2)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := vec.With("7").Value(); got != 2*workers*perWorker {
		t.Errorf("vec counter = %d, want %d", got, 2*workers*perWorker)
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("depth", "test")
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Errorf("gauge = %d, want 3", g.Value())
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x_total", "") != reg.Counter("x_total", "") {
		t.Error("same name returned distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	reg.Gauge("x_total", "")
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "test")
	// 1..1000 ms uniform: p50 ≈ 0.5s, p95 ≈ 0.95s, p99 ≈ 0.99s.
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	snap := h.snap("lat_seconds", "", "")
	if snap.Count != 1000 {
		t.Fatalf("count = %d", snap.Count)
	}
	if math.Abs(snap.Sum-500.5) > 0.01 {
		t.Errorf("sum = %v, want 500.5", snap.Sum)
	}
	if snap.Min != 0.001 || snap.Max != 1.0 {
		t.Errorf("min/max = %v/%v", snap.Min, snap.Max)
	}
	// Exponential buckets give ~±(growth-1) relative resolution.
	checks := []struct {
		name string
		got  float64
		want float64
	}{{"p50", snap.P50, 0.5}, {"p95", snap.P95, 0.95}, {"p99", snap.P99, 0.99}}
	for _, c := range checks {
		if rel := math.Abs(c.got-c.want) / c.want; rel > histGrowth-1 {
			t.Errorf("%s = %v, want %v ±%.0f%%", c.name, c.got, c.want, 100*(histGrowth-1))
		}
	}
	// Quantiles must be monotone.
	if !(snap.P50 <= snap.P95 && snap.P95 <= snap.P99) {
		t.Errorf("quantiles not monotone: %v <= %v <= %v", snap.P50, snap.P95, snap.P99)
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := newHistogram()
	h.Observe(0.25)
	snap := h.snap("h", "", "")
	if snap.P50 != 0.25 || snap.P95 != 0.25 || snap.P99 != 0.25 {
		t.Errorf("single-value quantiles = %v/%v/%v, want 0.25 (clamped to min/max)",
			snap.P50, snap.P95, snap.P99)
	}
}

func TestHistogramOutOfRange(t *testing.T) {
	h := newHistogram()
	h.Observe(-3)         // clamped to 0
	h.Observe(1e9)        // beyond the last bound: counted in overflow bucket
	h.Observe(math.NaN()) // clamped to 0
	if got := h.Count(); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
	snap := h.snap("h", "", "")
	if snap.Max != 1e9 || snap.Min != 0 {
		t.Errorf("min/max = %v/%v", snap.Min, snap.Max)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.ObserveDuration(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 4000 {
		t.Errorf("count = %d, want 4000", got)
	}
}

func TestNilInstrumentsAreNoOpsWithoutAllocation(t *testing.T) {
	var reg *Registry
	c := reg.Counter("a_total", "")
	g := reg.Gauge("b", "")
	h := reg.Histogram("c_seconds", "")
	cv := reg.CounterVec("d_total", "site", "")
	hv := reg.HistogramVec("e_seconds", "site", "")
	var tracer *Tracer
	start := time.Now()
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		h.Observe(0.5)
		h.ObserveSince(start)
		cv.With("1").Inc()
		hv.With("1").Observe(0.1)
		tr := tracer.Start("req")
		sp := tr.StartSpan("fetch")
		sp.Child("chunk").End()
		sp.End()
		tr.Finish()
	})
	if allocs != 0 {
		t.Errorf("disabled instrumentation allocated %v times per op, want 0", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil instruments recorded values")
	}
	if snap := reg.Snapshot(); len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Error("nil registry produced a non-empty snapshot")
	}
}

func TestSnapshotRoundTripAndText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reqs_total", "").Add(7)
	reg.Gauge("conns", "").Set(2)
	reg.CounterVec("reads_total", "site", "").With("3").Add(9)
	reg.Histogram("lat_seconds", "").Observe(0.5)
	reg.HistogramVec("site_lat_seconds", "site", "").With("3").Observe(0.25)

	snap := reg.Snapshot()
	body := MarshalSnapshot(snap)
	got, err := UnmarshalSnapshot(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.CounterValue("reqs_total", "") != 7 {
		t.Errorf("reqs_total = %d", got.CounterValue("reqs_total", ""))
	}
	if got.CounterValue("reads_total", "3") != 9 {
		t.Errorf("reads_total{site=3} = %d", got.CounterValue("reads_total", "3"))
	}
	if got.SumCounters("reads_total") != 9 {
		t.Errorf("SumCounters = %d", got.SumCounters("reads_total"))
	}
	if got.GaugeValue("conns") != 2 {
		t.Errorf("conns = %d", got.GaugeValue("conns"))
	}
	h, ok := got.Histogram("site_lat_seconds", "3")
	if !ok || h.Count != 1 || h.P50 != 0.25 {
		t.Errorf("histogram snap = %+v ok=%v", h, ok)
	}

	var buf bytes.Buffer
	if err := got.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`counter reqs_total 7`,
		`counter reads_total{site="3"} 9`,
		`gauge conns 2`,
		`histogram lat_seconds count=1`,
		`histogram site_lat_seconds{site="3"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text dump missing %q in:\n%s", want, text)
		}
	}
}

func TestUnmarshalSnapshotRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalSnapshot([]byte{99}); err == nil {
		t.Error("bad version accepted")
	}
	if _, err := UnmarshalSnapshot(nil); err == nil {
		t.Error("empty body accepted")
	}
}

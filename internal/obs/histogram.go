package obs

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// Histogram layout: exponential buckets over float64 seconds, striped
// across independent mutex-guarded shards so concurrent writers (one per
// fetch goroutine, typically) rarely contend on the same lock. A stripe is
// picked per observation with the runtime's cheap per-thread random source,
// which spreads load without any shared write between observers.
const (
	histStripes = 8
	histBuckets = 80
	// histLowest is the upper bound of the first bucket (1µs); each later
	// bucket's bound grows by histGrowth, covering 1µs to ~11 hours.
	histLowest = 1e-6
	histGrowth = 1.35
)

// histBounds is the shared per-bucket upper-bound table (identical for
// every histogram, so it is computed once).
var histBounds = func() []float64 {
	b := make([]float64, histBuckets)
	bound := histLowest
	for i := range b {
		b[i] = bound
		bound *= histGrowth
	}
	return b
}()

// Histogram is a lock-striped latency histogram recording float64 seconds.
// The nil histogram discards observations without allocating.
type Histogram struct {
	stripes [histStripes]histStripe
}

type histStripe struct {
	mu     sync.Mutex
	counts [histBuckets]uint64
	count  uint64
	sum    float64
	min    float64
	max    float64
	// pad the stripe to its own cache lines so adjacent stripes do not
	// false-share under concurrent observation.
	_ [32]byte
}

func newHistogram() *Histogram {
	h := &Histogram{}
	for i := range h.stripes {
		h.stripes[i].min = math.Inf(1)
		h.stripes[i].max = math.Inf(-1)
	}
	return h
}

// Observe records one value (seconds). Negative values are clamped to 0.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	idx := sort.SearchFloat64s(histBounds, v)
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	s := &h.stripes[rand.Uint32N(histStripes)]
	s.mu.Lock()
	s.counts[idx]++
	s.count++
	s.sum += v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.mu.Unlock()
}

// ObserveDuration records a duration as seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	h.Observe(d.Seconds())
}

// ObserveSince records the time elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var total uint64
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		total += s.count
		s.mu.Unlock()
	}
	return total
}

// merged collapses the stripes into one view.
type mergedHist struct {
	counts [histBuckets]uint64
	count  uint64
	sum    float64
	min    float64
	max    float64
}

func (h *Histogram) merge() mergedHist {
	m := mergedHist{min: math.Inf(1), max: math.Inf(-1)}
	for i := range h.stripes {
		s := &h.stripes[i]
		s.mu.Lock()
		for b, c := range s.counts {
			m.counts[b] += c
		}
		m.count += s.count
		m.sum += s.sum
		if s.min < m.min {
			m.min = s.min
		}
		if s.max > m.max {
			m.max = s.max
		}
		s.mu.Unlock()
	}
	return m
}

// quantile estimates the q-th quantile (0 < q < 1) by locating the bucket
// containing the target rank and interpolating linearly inside it. Bounds
// are clamped to the exact observed min/max, so single-value histograms
// report that value at every quantile.
func (m *mergedHist) quantile(q float64) float64 {
	if m.count == 0 {
		return 0
	}
	rank := q * float64(m.count)
	var cum uint64
	for i, c := range m.counts {
		if c == 0 {
			continue
		}
		prev := float64(cum)
		cum += c
		if float64(cum) < rank {
			continue
		}
		lower := 0.0
		if i > 0 {
			lower = histBounds[i-1]
		}
		upper := histBounds[i]
		frac := (rank - prev) / float64(c)
		v := lower + frac*(upper-lower)
		if v < m.min {
			v = m.min
		}
		if v > m.max {
			v = m.max
		}
		return v
	}
	return m.max
}

// snap renders the histogram into a HistogramSnap.
func (h *Histogram) snap(name, label, labelValue string) HistogramSnap {
	m := h.merge()
	out := HistogramSnap{
		Name:       name,
		Label:      label,
		LabelValue: labelValue,
		Count:      m.count,
		Sum:        m.sum,
	}
	if m.count > 0 {
		out.Min = m.min
		out.Max = m.max
		out.P50 = m.quantile(0.50)
		out.P95 = m.quantile(0.95)
		out.P99 = m.quantile(0.99)
	}
	return out
}

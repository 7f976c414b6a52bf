package stats

import (
	"math"
	"sort"
	"sync"

	"ecstore/internal/model"
)

// SiteLoad is one load report from a storage service (Section V-A): CPU
// utilization in [0, 1], the I/O read rate in bytes/second, and the number
// of chunks stored.
type SiteLoad struct {
	CPU           float64
	IOBytesPerSec float64
	Chunks        int
}

// LoadTracker aggregates per-site load reports and derives the paper's load
// quantities: ω(C, S_j) per site, the mean load ω̄(C), and the balance
// factor Ω(C, S_j) = |1 − ω(C,S_j)/ω̄(C)|. It is safe for concurrent use.
type LoadTracker struct {
	mu    sync.Mutex
	sites map[model.SiteID]SiteLoad
	// ioScale converts an I/O rate into the same unit as CPU utilization
	// when combining the two into ω. It adapts to the maximum observed
	// rate so that ω stays comparable across report rounds.
	ioScale float64
}

// NewLoadTracker returns an empty tracker.
func NewLoadTracker() *LoadTracker {
	return &LoadTracker{sites: make(map[model.SiteID]SiteLoad)}
}

// Report records the latest load sample for a site, replacing the previous
// one (storage services report every few seconds; only the freshest sample
// matters for movement decisions).
func (l *LoadTracker) Report(site model.SiteID, load SiteLoad) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.sites[site] = load
	if load.IOBytesPerSec > l.ioScale {
		l.ioScale = load.IOBytesPerSec
	}
}

// Remove drops a site (after permanent failure).
func (l *LoadTracker) Remove(site model.SiteID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.sites, site)
}

// Sites returns the tracked site ids in ascending order.
func (l *LoadTracker) Sites() []model.SiteID {
	l.mu.Lock()
	defer l.mu.Unlock()
	return model.SortedSites(l.sites)
}

// omegaLocked computes ω for one site. Caller holds l.mu.
func (l *LoadTracker) omegaLocked(load SiteLoad) float64 {
	io := 0.0
	if l.ioScale > 0 {
		io = load.IOBytesPerSec / l.ioScale
	}
	return load.CPU + io
}

// Omega returns ω(C, S_j) for a site; 0 when the site has never reported.
func (l *LoadTracker) Omega(site model.SiteID) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.omegaLocked(l.sites[site])
}

// MeanOmega returns ω̄(C), the average load across tracked sites.
func (l *LoadTracker) MeanOmega() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.meanOmegaLocked()
}

// meanOmegaLocked sums in site order: a float sum over map order differs
// in its last bits from run to run, and the mover's choices with it.
func (l *LoadTracker) meanOmegaLocked() float64 {
	if len(l.sites) == 0 {
		return 0
	}
	var sum float64
	for _, s := range model.SortedSites(l.sites) {
		sum += l.omegaLocked(l.sites[s])
	}
	return sum / float64(len(l.sites))
}

// BalanceFactor returns Ω(C, S_j) = |1 − ω/ω̄|; 0 when no load has been
// reported anywhere.
func (l *LoadTracker) BalanceFactor(site model.SiteID) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	mean := l.meanOmegaLocked()
	if mean == 0 {
		return 0
	}
	return math.Abs(1 - l.omegaLocked(l.sites[site])/mean)
}

// ImbalanceGain computes I(C, b, s, d) of Equation 7: the reduction of the
// worst balance factor across source s and destination d when `shift` units
// of ω move from s to d. Positive values mean the move improves balance.
func (l *LoadTracker) ImbalanceGain(s, d model.SiteID, shift float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	mean := l.meanOmegaLocked()
	if mean == 0 {
		return 0
	}
	ws := l.omegaLocked(l.sites[s])
	wd := l.omegaLocked(l.sites[d])
	if shift < 0 {
		shift = 0
	}
	if shift > ws {
		shift = ws
	}
	before := math.Max(math.Abs(1-ws/mean), math.Abs(1-wd/mean))
	after := math.Max(math.Abs(1-(ws-shift)/mean), math.Abs(1-(wd+shift)/mean))
	return before - after
}

// LoadShare estimates the fraction of site s's ω attributable to serving a
// chunk with the given bytes-per-second demand, used to size the shift for
// ImbalanceGain. The result is clamped to [0, 1].
func (l *LoadTracker) LoadShare(s model.SiteID, chunkBytesPerSec float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	load := l.sites[s]
	if load.IOBytesPerSec <= 0 || chunkBytesPerSec <= 0 {
		return 0
	}
	share := chunkBytesPerSec / load.IOBytesPerSec
	if share > 1 {
		share = 1
	}
	return share
}

// ApplyShift moves `fraction` of the source site's reported CPU and I/O
// load onto the destination, the paper's proportional-shift bookkeeping
// ("we proportionally shift the CPU utilization and I/O load from the
// source site to the destination site", Section IV-C), applied after a
// movement executes so subsequent decisions see the new state before the
// next report round.
func (l *LoadTracker) ApplyShift(src, dst model.SiteID, fraction float64) {
	if fraction <= 0 {
		return
	}
	if fraction > 1 {
		fraction = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.sites[src]
	d := l.sites[dst]
	dCPU := s.CPU * fraction
	dIO := s.IOBytesPerSec * fraction
	s.CPU -= dCPU
	s.IOBytesPerSec -= dIO
	d.CPU += dCPU
	d.IOBytesPerSec += dIO
	s.Chunks--
	d.Chunks++
	l.sites[src] = s
	l.sites[dst] = d
}

// SitesByLoadDesc returns site ids ordered from most to least loaded, the
// iteration order of Algorithm 1's source-chunk loop.
func (l *LoadTracker) SitesByLoadDesc() []model.SiteID {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]model.SiteID, 0, len(l.sites))
	for s := range l.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		wi := l.omegaLocked(l.sites[out[i]])
		wj := l.omegaLocked(l.sites[out[j]])
		if wi != wj {
			return wi > wj
		}
		return out[i] < out[j]
	})
	return out
}

// Snapshot returns a copy of the current load table.
func (l *LoadTracker) Snapshot() map[model.SiteID]SiteLoad {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[model.SiteID]SiteLoad, len(l.sites))
	for s, v := range l.sites {
		out[s] = v
	}
	return out
}

// ProbeEstimator derives o_j from load-status probe round trips with an
// exponentially weighted moving average (Section V-B3: o_j is set from the
// average response time of periodic load-status requests).
type ProbeEstimator struct {
	mu    sync.Mutex
	alpha float64
	o     map[model.SiteID]float64
}

// NewProbeEstimator returns an estimator with EWMA factor alpha in (0, 1];
// out-of-range values fall back to 0.3.
func NewProbeEstimator(alpha float64) *ProbeEstimator {
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	return &ProbeEstimator{alpha: alpha, o: make(map[model.SiteID]float64)}
}

// Observe folds one probe round-trip time (any consistent unit) into the
// site's o_j estimate.
func (p *ProbeEstimator) Observe(site model.SiteID, rtt float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cur, ok := p.o[site]; ok {
		p.o[site] = (1-p.alpha)*cur + p.alpha*rtt
	} else {
		p.o[site] = rtt
	}
}

// O returns the current o_j estimate, or def when the site has no samples.
func (p *ProbeEstimator) O(site model.SiteID, def float64) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v, ok := p.o[site]; ok {
		return v
	}
	return def
}

// Costs materializes a model.SiteCosts from current estimates: o_j from
// probes and a constant m_j (homogeneous media, as in the paper's testbed).
func (p *ProbeEstimator) Costs(defaultO, m float64) *model.SiteCosts {
	p.mu.Lock()
	defer p.mu.Unlock()
	o := make(map[model.SiteID]float64, len(p.o))
	for s, v := range p.o {
		o[s] = v
	}
	return &model.SiteCosts{O: o, DefaultO: defaultO, DefaultM: m}
}

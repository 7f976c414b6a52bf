// Package health tracks per-site availability with a circuit breaker per
// storage site. The client, chunk mover and repair service share one
// Tracker so access planning, placement and movement all skip unhealthy
// sites consistently (the paper's Section V-C failure handling, hardened
// with the breaker pattern from production erasure-coded stores).
//
// Each site's breaker moves through three states:
//
//	Closed    — healthy: requests flow, failures are counted.
//	Open      — unhealthy: requests are skipped until a backoff expires.
//	HalfOpen  — probation: one probe is admitted; success closes the
//	            breaker, failure re-opens it with a longer backoff.
//
// Backoff grows exponentially (Factor per re-open, capped at MaxBackoff)
// so a flapping site is probed progressively less often. All transitions
// are exported through the obs registry when one is attached.
package health

import (
	"sort"
	"strconv"
	"sync"
	"time"

	"ecstore/internal/model"
	"ecstore/internal/obs"
)

// State is a breaker state.
type State int

// Breaker states.
const (
	Closed State = iota
	Open
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "State(" + strconv.Itoa(int(s)) + ")"
	}
}

// Config tunes a Tracker.
type Config struct {
	// FailureThreshold is how many consecutive failures open a closed
	// breaker. The default of 1 matches the client's historical behaviour
	// (any fetch error excludes the site from the next plan).
	FailureThreshold int
	// OpenBackoff is how long a freshly opened breaker rejects requests
	// before admitting a half-open probe. Zero means 5s.
	OpenBackoff time.Duration
	// MaxBackoff caps the exponential growth. Zero means 1 minute.
	MaxBackoff time.Duration
	// BackoffFactor multiplies the backoff on every re-open. Values
	// below 1 are treated as 2.
	BackoffFactor float64
	// Clock abstracts time for deterministic tests; nil uses time.Now.
	Clock func() time.Time
	// Metrics optionally exports breaker instrumentation. Nil disables it.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 1
	}
	if c.OpenBackoff <= 0 {
		c.OpenBackoff = 5 * time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Minute
	}
	if c.BackoffFactor < 1 {
		c.BackoffFactor = 2
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// trackerObs is the tracker's instrument set; every field is nil-safe.
type trackerObs struct {
	toOpen     *obs.Counter
	toHalfOpen *obs.Counter
	toClosed   *obs.Counter
	openSites  *obs.Gauge
}

func newTrackerObs(reg *obs.Registry) trackerObs {
	if reg == nil {
		return trackerObs{}
	}
	vec := reg.CounterVec("health_transitions_total", "to", "breaker state transitions by target state")
	return trackerObs{
		toOpen:     vec.With("open"),
		toHalfOpen: vec.With("half-open"),
		toClosed:   vec.With("closed"),
		openSites:  reg.Gauge("health_open_sites", "sites whose breaker is currently open or half-open"),
	}
}

// Tracker is a set of per-site breakers. The zero value is not usable;
// construct with NewTracker. All methods are safe for concurrent use.
type Tracker struct {
	cfg Config
	obs trackerObs

	mu    sync.Mutex
	sites map[model.SiteID]*breaker
}

type breaker struct {
	state         State
	consecFails   int
	backoff       time.Duration
	until         time.Time // when an open breaker admits a probe
	probeInFlight bool
}

// NewTracker builds a tracker.
func NewTracker(cfg Config) *Tracker {
	return &Tracker{
		cfg:   cfg.withDefaults(),
		obs:   newTrackerObs(cfg.Metrics),
		sites: make(map[model.SiteID]*breaker),
	}
}

// get returns the breaker for a site, creating a closed one on first use.
// Callers hold t.mu.
func (t *Tracker) get(s model.SiteID) *breaker {
	b := t.sites[s]
	if b == nil {
		b = &breaker{backoff: t.cfg.OpenBackoff}
		t.sites[s] = b
	}
	return b
}

// advance moves an expired open breaker to half-open. Callers hold t.mu.
func (t *Tracker) advance(b *breaker) {
	if b.state == Open && !t.cfg.Clock().Before(b.until) {
		b.state = HalfOpen
		b.probeInFlight = false
		t.obs.toHalfOpen.Inc()
	}
}

// Available reports whether a site should appear in fresh access plans:
// only sites with a closed breaker do. Half-open sites carry probe
// traffic but are kept out of plans until they prove themselves.
func (t *Tracker) Available(s model.SiteID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.get(s)
	t.advance(b)
	return b.state == Closed
}

// AllowProbe reports whether a recovery probe should be sent to the site
// now. Closed sites always probe (regular o_j estimation); open sites
// only once their backoff expires, and only one probe at a time.
func (t *Tracker) AllowProbe(s model.SiteID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.get(s)
	t.advance(b)
	switch b.state {
	case Closed:
		return true
	case HalfOpen:
		if b.probeInFlight {
			return false
		}
		b.probeInFlight = true
		return true
	default:
		return false
	}
}

// ReportSuccess records a successful operation against the site.
func (t *Tracker) ReportSuccess(s model.SiteID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.get(s)
	t.advance(b)
	b.consecFails = 0
	switch b.state {
	case HalfOpen:
		// One half-open success closes the breaker.
		b.probeInFlight = false
		b.state = Closed
		b.backoff = t.cfg.OpenBackoff
		t.obs.toClosed.Inc()
		t.obs.openSites.Add(-1)
	case Open:
		// A straggler success from before the breaker opened; ignore.
	}
}

// ReportFailure records a failed operation against the site.
func (t *Tracker) ReportFailure(s model.SiteID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.get(s)
	t.advance(b)
	switch b.state {
	case Closed:
		b.consecFails++
		if b.consecFails >= t.cfg.FailureThreshold {
			t.open(b, t.cfg.OpenBackoff)
		}
	case HalfOpen:
		// Failed probation: re-open with a longer backoff.
		next := time.Duration(float64(b.backoff) * t.cfg.BackoffFactor)
		if next > t.cfg.MaxBackoff {
			next = t.cfg.MaxBackoff
		}
		t.obs.openSites.Add(-1) // re-counted by open()
		t.open(b, next)
	}
}

// open transitions a breaker to Open with the given backoff. Callers hold
// t.mu.
func (t *Tracker) open(b *breaker, backoff time.Duration) {
	b.state = Open
	b.backoff = backoff
	b.until = t.cfg.Clock().Add(backoff)
	b.consecFails = 0
	b.probeInFlight = false
	t.obs.toOpen.Inc()
	t.obs.openSites.Add(1)
}

// ForceOpen opens the breaker immediately (manual failure marking, e.g.
// Cluster.FailSite or an operator command).
func (t *Tracker) ForceOpen(s model.SiteID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.get(s)
	t.advance(b)
	if b.state == Closed {
		t.open(b, t.cfg.OpenBackoff)
		return
	}
	// Already open or half-open: restart the window without re-counting.
	prev := b.state
	b.state = Open
	b.until = t.cfg.Clock().Add(b.backoff)
	b.probeInFlight = false
	if prev == HalfOpen {
		t.obs.toOpen.Inc()
	}
}

// Reset closes the breaker immediately (manual recovery marking).
func (t *Tracker) Reset(s model.SiteID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.get(s)
	if b.state != Closed {
		t.obs.toClosed.Inc()
		t.obs.openSites.Add(-1)
	}
	b.state = Closed
	b.consecFails = 0
	b.probeInFlight = false
	b.backoff = t.cfg.OpenBackoff
}

// State returns the site's current breaker state.
func (t *Tracker) State(s model.SiteID) State {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := t.get(s)
	t.advance(b)
	return b.state
}

// CountAvailable returns how many of the given chunk-holding sites are
// currently available, skipping the NoSite sentinel. Callers use it to
// decide whether a block is reconstructible at all — e.g. the client
// only serves a bounded-stale cache entry once fewer healthy sites hold
// the block's chunks than a decode needs.
func (t *Tracker) CountAvailable(sites []model.SiteID) int {
	n := 0
	for _, s := range sites {
		if s != model.NoSite && t.Available(s) {
			n++
		}
	}
	return n
}

// Unavailable lists sites whose breaker is open or half-open, sorted.
func (t *Tracker) Unavailable() []model.SiteID {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []model.SiteID
	for id, b := range t.sites {
		t.advance(b)
		if b.state != Closed {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

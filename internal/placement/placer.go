package placement

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"ecstore/internal/model"
	"ecstore/internal/stats"
)

// PlaceStrategy selects how chunks of new blocks are placed (step W1 of
// Figure 3).
type PlaceStrategy int

// Placement strategies for writes.
const (
	// PlaceRandom scatters chunks uniformly at random (baselines).
	PlaceRandom PlaceStrategy = iota + 1
	// PlaceLoadAware prefers lightly loaded sites for new chunks while
	// still spreading across failure domains.
	PlaceLoadAware
)

func (s PlaceStrategy) String() string {
	switch s {
	case PlaceRandom:
		return "random"
	case PlaceLoadAware:
		return "load-aware"
	default:
		return fmt.Sprintf("PlaceStrategy(%d)", int(s))
	}
}

// Placer orders eligible sites by preference and picks destinations from
// them: the client uses one for the chunks of newly written blocks, the
// background plane (repair, drain) a load-aware one for relocated chunks.
// Chunks of one block always land on distinct sites to preserve r-fault
// tolerance.
type Placer struct {
	strategy PlaceStrategy
	loads    *stats.LoadTracker // may be nil for PlaceRandom

	// rngMu serializes rng: concurrent writers (multi-tenant gateway
	// traffic) all place through one shared Placer.
	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewPlacer returns a placer. loads may be nil unless strategy is
// PlaceLoadAware.
func NewPlacer(strategy PlaceStrategy, loads *stats.LoadTracker, seed int64) (*Placer, error) {
	if strategy == PlaceLoadAware && loads == nil {
		return nil, fmt.Errorf("placement: load-aware placer requires a load tracker")
	}
	if strategy != PlaceRandom && strategy != PlaceLoadAware {
		return nil, fmt.Errorf("placement: unknown place strategy %d", strategy)
	}
	return &Placer{strategy: strategy, rng: rand.New(rand.NewSource(seed)), loads: loads}, nil
}

// Place selects `chunks` distinct sites for the block rule describes,
// from the candidates its hard rules allow, in the strategy's preference
// order. The zone cap is best-effort: sites are taken under the cap
// first, and when the zone population cannot satisfy it — fewer zones
// than chunks/cap requires — the remainder relaxes the cap rather than
// failing. It returns an error when fewer than `chunks` distinct sites
// are allowed at all.
func (p *Placer) Place(sites []model.SiteID, chunks int, rule *BlockRule) ([]model.SiteID, error) {
	allowed := make([]model.SiteID, 0, len(sites))
	for _, s := range sites {
		if rule.Allows(s) {
			allowed = append(allowed, s)
		}
	}
	ordered, err := p.ordered(allowed, chunks)
	if err != nil {
		return nil, err
	}
	chosen := make([]model.SiteID, 0, chunks)
	for _, s := range ordered {
		if len(chosen) == chunks {
			return chosen, nil
		}
		if rule.UnderCap(s) {
			rule.take(s)
			chosen = append(chosen, s)
		}
	}
	// Cap unsatisfiable with this zone population: relax for the rest.
	for _, s := range ordered {
		if len(chosen) == chunks {
			break
		}
		if !rule.holding[s] { // not taken in the first pass
			rule.take(s)
			chosen = append(chosen, s)
		}
	}
	return chosen, nil
}

// ordered returns the strategy's full preference order over the distinct
// candidate sites (length >= chunks, or an error).
func (p *Placer) ordered(sites []model.SiteID, chunks int) ([]model.SiteID, error) {
	if chunks <= 0 {
		return nil, fmt.Errorf("placement: invalid chunk count %d", chunks)
	}
	uniq := dedupSites(sites)
	if len(uniq) < chunks {
		return nil, fmt.Errorf("placement: need %d distinct sites, have %d", chunks, len(uniq))
	}
	switch p.strategy {
	case PlaceLoadAware:
		sort.Slice(uniq, func(i, j int) bool {
			wi := p.loads.Omega(uniq[i])
			wj := p.loads.Omega(uniq[j])
			if wi != wj {
				return wi < wj
			}
			return uniq[i] < uniq[j]
		})
		// Shuffle the lightly loaded half so concurrent writers do not
		// all stampede the single coldest site; the loaded half keeps
		// its order as the overflow tail.
		pool := len(uniq) / 2
		if pool < chunks {
			pool = chunks
		}
		if pool > len(uniq) {
			pool = len(uniq)
		}
		// A tie at the pool's edge is not a preference: sites exactly as
		// loaded as its last member join it. An idle cluster reports
		// ω = 0 everywhere, and the sort's id tie-break would otherwise
		// pin every placement to the low-id half.
		for pool < len(uniq) && p.loads.Omega(uniq[pool]) == p.loads.Omega(uniq[pool-1]) {
			pool++
		}
		cand := append([]model.SiteID(nil), uniq...)
		p.shuffle(cand, pool)
		return cand, nil
	default:
		cand := append([]model.SiteID(nil), uniq...)
		p.shuffle(cand, len(cand))
		return cand, nil
	}
}

// shuffle permutes the first n sites of cand under the rng lock.
func (p *Placer) shuffle(cand []model.SiteID, n int) {
	p.rngMu.Lock()
	defer p.rngMu.Unlock()
	p.rng.Shuffle(n, func(i, j int) { cand[i], cand[j] = cand[j], cand[i] })
}

func dedupSites(sites []model.SiteID) []model.SiteID {
	seen := make(map[model.SiteID]bool, len(sites))
	out := make([]model.SiteID, 0, len(sites))
	for _, s := range sites {
		if s == model.NoSite || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

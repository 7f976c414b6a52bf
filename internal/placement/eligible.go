package placement

import "ecstore/internal/model"

// Eligibility is the one rule deciding which sites may receive a chunk of
// a block. Every path that lands a chunk somewhere — writes, repair,
// drain and the chunk mover — asks it, so they cannot drift apart:
//
//  1. the site is active (draining and decommissioned sites take nothing),
//  2. its breaker is closed,
//  3. it holds no chunk of the block (r-fault tolerance), and
//  4. its failure zone holds fewer than the block's per-zone cap.
//
// Rules 1-3 are hard. Rule 4 is relaxed last by callers that must place
// the chunk somewhere (writes, repair, drain): availability wins over
// zone spread. The mover, whose moves are optional, never relaxes it.
type Eligibility struct {
	// Infos is the catalog's zone and drain-state view (SiteInfos). A
	// site without an entry is active and zone-less.
	Infos map[model.SiteID]model.SiteInfo
	// Available reports whether a site's breaker is closed; nil means
	// every site is reachable (the package-wide convention).
	Available func(model.SiteID) bool
}

// BlockRule is Eligibility narrowed to one block: it knows which sites
// already hold the block's chunks and how many sit in each zone.
type BlockRule struct {
	e          Eligibility
	holding    map[model.SiteID]bool
	perZone    map[string]int
	maxPerZone int
}

// ForBlock scopes the rule to a block whose chunks currently sit on
// placed (nil for a new block). replacing is the index of the chunk being
// re-placed, or -1: its current site still may not receive it (a move to
// the same site is no move), but it no longer counts against its zone
// because the commit takes it away from there. maxPerZone is the block's
// cap, model.MaxChunksPerZone(r).
func (e Eligibility) ForBlock(placed []model.SiteID, replacing, maxPerZone int) *BlockRule {
	b := &BlockRule{
		e:          e,
		holding:    make(map[model.SiteID]bool, len(placed)),
		perZone:    make(map[string]int),
		maxPerZone: maxPerZone,
	}
	for chunk, s := range placed {
		if s == model.NoSite {
			continue
		}
		if chunk == replacing {
			b.holding[s] = true
		} else {
			b.take(s)
		}
	}
	return b
}

// Allows applies the hard rules: active, breaker closed, not yet holding
// a chunk of the block.
func (b *BlockRule) Allows(s model.SiteID) bool {
	if b.holding[s] || b.e.Infos[s].State != model.SiteActive {
		return false
	}
	return b.e.Available == nil || b.e.Available(s)
}

// UnderCap reports whether one more chunk on s keeps its zone within the
// cap. Zone-less sites are their own singleton zones, and Allows already
// keeps a second chunk off them.
func (b *BlockRule) UnderCap(s model.SiteID) bool {
	z := b.e.Infos[s].Zone
	return z == "" || b.perZone[z] < b.maxPerZone
}

// take records a chunk of the block on s.
func (b *BlockRule) take(s model.SiteID) {
	b.holding[s] = true
	if z := b.e.Infos[s].Zone; z != "" {
		b.perZone[z]++
	}
}

// Package placement implements EC-Store's primary contribution: the
// cost-model-driven data access strategy (Section IV-B, Equations 1-4), the
// plan cache with greedy fallback and background exact solves (Section
// V-B1), late binding integration (Section IV-B1), and the chunk movement
// strategy (Sections IV-C and IV-D, Equations 5-8 and Algorithm 1).
package placement

import (
	"math"
	"sort"

	"ecstore/internal/model"
)

// PlanCost evaluates Equation 1 for a concrete access plan:
//
//	cost(Q) = Σ_j ( o_j·a_j + Σ_{Bi∈Q} s_ij·m_j·z_i )
//
// metas supplies z_i (chunk sizes) per block; costs supplies o_j and m_j.
func PlanCost(plan *model.AccessPlan, metas map[model.BlockID]*model.BlockMeta, costs *model.SiteCosts) float64 {
	var total float64
	for site, refs := range plan.Reads {
		if len(refs) == 0 {
			continue
		}
		total += costs.OCost(site)
		m := costs.MCost(site)
		for _, ref := range refs {
			meta := metas[ref.Block]
			if meta == nil {
				continue
			}
			total += m * float64(meta.ChunkSize)
		}
	}
	return total
}

// ValidatePlan checks the paper's feasibility constraints: every requested
// block has at least RequiredChunks()+delta distinct chunks selected, every
// selected chunk actually exists at the chosen site, and no chunk is
// selected twice.
func ValidatePlan(plan *model.AccessPlan, metas map[model.BlockID]*model.BlockMeta, delta int) error {
	selected := make(map[model.ChunkRef]bool)
	perBlock := make(map[model.BlockID]int, len(metas))
	for site, refs := range plan.Reads {
		for _, ref := range refs {
			meta := metas[ref.Block]
			if meta == nil {
				return &PlanError{Ref: ref, Reason: "block not in request"}
			}
			if ref.Chunk < 0 || ref.Chunk >= len(meta.Sites) {
				return &PlanError{Ref: ref, Reason: "chunk id out of range"}
			}
			if meta.Sites[ref.Chunk] != site {
				return &PlanError{Ref: ref, Reason: "chunk not stored at selected site"}
			}
			if selected[ref] {
				return &PlanError{Ref: ref, Reason: "chunk selected twice"}
			}
			selected[ref] = true
			perBlock[ref.Block]++
		}
	}
	for id, meta := range metas {
		need := meta.RequiredChunks() + delta
		if avail := meta.TotalChunks(); need > avail {
			need = avail
		}
		if perBlock[id] < need {
			return &PlanError{
				Ref:    model.ChunkRef{Block: id},
				Reason: "not enough chunks selected",
			}
		}
	}
	return nil
}

// PlanError describes an invalid access plan.
type PlanError struct {
	Ref    model.ChunkRef
	Reason string
}

func (e *PlanError) Error() string {
	return "placement: invalid plan at " + e.Ref.String() + ": " + e.Reason
}

// candidate is one selectable chunk of one block.
type candidate struct {
	ref  model.ChunkRef
	site model.SiteID
}

// requestCandidates lists, per block, the chunks that exist on available
// sites. Blocks are returned in sorted id order for determinism.
type requestCandidates struct {
	blocks []model.BlockID
	metas  map[model.BlockID]*model.BlockMeta
	cands  map[model.BlockID][]candidate
	sites  []model.SiteID // union of candidate sites, sorted
}

func buildCandidates(metas map[model.BlockID]*model.BlockMeta, available func(model.SiteID) bool) *requestCandidates {
	rc := &requestCandidates{
		metas: metas,
		cands: make(map[model.BlockID][]candidate, len(metas)),
	}
	siteSet := make(map[model.SiteID]bool)
	for id := range metas {
		rc.blocks = append(rc.blocks, id)
	}
	sort.Slice(rc.blocks, func(i, j int) bool { return rc.blocks[i] < rc.blocks[j] })
	for _, id := range rc.blocks {
		meta := metas[id]
		for chunk, site := range meta.Sites {
			if site == model.NoSite {
				continue
			}
			if available != nil && !available(site) {
				continue
			}
			rc.cands[id] = append(rc.cands[id], candidate{
				ref:  model.ChunkRef{Block: id, Chunk: chunk},
				site: site,
			})
			siteSet[site] = true
		}
	}
	rc.sites = make([]model.SiteID, 0, len(siteSet))
	for s := range siteSet {
		rc.sites = append(rc.sites, s)
	}
	sort.Slice(rc.sites, func(i, j int) bool { return rc.sites[i] < rc.sites[j] })
	return rc
}

// need returns the chunk count to fetch for a block: k+delta capped at the
// number of available candidates.
func (rc *requestCandidates) need(id model.BlockID, delta int) int {
	meta := rc.metas[id]
	need := meta.RequiredChunks() + delta
	if n := len(rc.cands[id]); need > n {
		need = n
	}
	return need
}

// feasible reports whether every block can still be reconstructed (at least
// RequiredChunks candidates remain available).
func (rc *requestCandidates) feasible() bool {
	for _, id := range rc.blocks {
		if len(rc.cands[id]) < rc.metas[id].RequiredChunks() {
			return false
		}
	}
	return true
}

// bruteForceMaxSites bounds the exhaustive site-subset search, the exact
// solver of Equation 4 for every request whose candidates span at most this
// many sites (the mover's two-block queries touch at most 2·(k+r) sites).
// Larger requests go to the ILP (ExactPlan) or, for ExactCost, to greedy.
const bruteForceMaxSites = 14

// ExactCost computes cost(C, Q) of Equation 4 exactly when the candidate
// site set is small, by enumerating accessed-site subsets (bestSiteMask).
// For larger instances it falls back to the greedy planner's cost. The
// second return value reports whether the result is exact.
func ExactCost(metas map[model.BlockID]*model.BlockMeta, costs *model.SiteCosts, available func(model.SiteID) bool, delta int) (float64, bool) {
	rc := buildCandidates(metas, available)
	if !rc.feasible() {
		return math.Inf(1), true
	}
	if len(rc.sites) > bruteForceMaxSites {
		plan := greedyPlan(rc, costs, delta, nil)
		return PlanCost(plan, metas, costs), false
	}
	_, cost, _ := bestSiteMask(rc, costs, delta)
	return cost, true
}

// subsetBlock is one block of a request flattened for the site-subset
// search: its chunk count to fetch and its candidates in ascending read
// cost, equal costs in chunk-index order, so that "the need cheapest
// chunks within a subset" is one in-order scan and deterministic.
type subsetBlock struct {
	need  int
	cands []subsetCand
}

// subsetCand is one candidate chunk: its site's index in
// requestCandidates.sites and its read cost m_j·z_i.
type subsetCand struct {
	site int
	cost float64
	ref  model.ChunkRef
}

// bestSiteMask solves Equation 4 exactly for a feasible request with at most
// bruteForceMaxSites candidate sites. Fixing the accessed-site set A (bit i
// of mask is rc.sites[i]) leaves each block independent: it reads its need
// cheapest chunks within A. So the optimum is the cheapest feasible A,
// found by enumerating all 2^n subsets with pruning on the running cost;
// the first (lowest) mask wins ties. It returns that mask, its cost, and
// the flattened blocks (in rc.blocks order) the mask selects from.
func bestSiteMask(rc *requestCandidates, costs *model.SiteCosts, delta int) (int, float64, []subsetBlock) {
	n := len(rc.sites)
	oCost := make([]float64, n)
	siteIdx := make(map[model.SiteID]int, n)
	for i, s := range rc.sites {
		oCost[i] = costs.OCost(s)
		siteIdx[s] = i
	}
	total := 0
	for _, id := range rc.blocks {
		total += len(rc.cands[id])
	}
	all := make([]subsetCand, 0, total)
	blocks := make([]subsetBlock, len(rc.blocks))
	for bi, id := range rc.blocks {
		start := len(all)
		size := float64(rc.metas[id].ChunkSize)
		for _, c := range rc.cands[id] {
			all = append(all, subsetCand{site: siteIdx[c.site], cost: costs.MCost(c.site) * size, ref: c.ref})
		}
		cands := all[start:len(all):len(all)]
		// Candidates arrive in chunk-index order; a stable insertion sort
		// by cost keeps that order among equal costs without allocating.
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && cands[j].cost < cands[j-1].cost; j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
		blocks[bi] = subsetBlock{need: rc.need(id, delta), cands: cands}
	}

	bestMask, best := 0, math.Inf(1)
	for mask := 0; mask < 1<<n; mask++ {
		var cost float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				cost += oCost[i]
			}
		}
		if cost >= best {
			continue
		}
		ok := true
		for bi := range blocks {
			b := &blocks[bi]
			taken := 0
			for ci := 0; ci < len(b.cands) && taken < b.need; ci++ {
				if mask&(1<<b.cands[ci].site) != 0 {
					cost += b.cands[ci].cost
					taken++
				}
			}
			if taken < b.need || cost >= best {
				ok = false
				break
			}
		}
		if ok {
			bestMask, best = mask, cost
		}
	}
	return bestMask, best, blocks
}

// subsetPlan turns bestSiteMask's answer into an access plan: each block
// reads its need cheapest chunks within the mask.
func subsetPlan(rc *requestCandidates, mask int, blocks []subsetBlock) *model.AccessPlan {
	plan := model.NewAccessPlan()
	for bi := range blocks {
		b := &blocks[bi]
		taken := 0
		for ci := 0; ci < len(b.cands) && taken < b.need; ci++ {
			if c := b.cands[ci]; mask&(1<<c.site) != 0 {
				plan.Add(rc.sites[c.site], c.ref)
				taken++
			}
		}
	}
	return plan
}

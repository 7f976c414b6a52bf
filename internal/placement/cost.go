// Package placement implements EC-Store's primary contribution: the
// cost-model-driven data access strategy (Section IV-B, Equations 1-4),
// solved exactly for every request, with a greedy fallback past the exact
// search's limits (Section V-B1; the paper's plan cache is not reproduced,
// see DESIGN.md §2), late binding integration (Section IV-B1), and the
// chunk movement strategy (Sections IV-C and IV-D, Equations 5-8 and
// Algorithm 1).
package placement

import (
	"errors"
	"math"
	"math/bits"
	"slices"

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
// sites. Blocks are in sorted id order for determinism; cands[i] holds
// blocks[i]'s candidates in chunk-index order.
type requestCandidates struct {
	blocks []model.BlockID
	metas  map[model.BlockID]*model.BlockMeta
	cands  [][]candidate
	sites  []model.SiteID // union of candidate sites, sorted
}

func buildCandidates(metas map[model.BlockID]*model.BlockMeta, available func(model.SiteID) bool) requestCandidates {
	rc := requestCandidates{
		blocks: make([]model.BlockID, 0, len(metas)),
		metas:  metas,
		cands:  make([][]candidate, len(metas)),
	}
	total := 0
	for id, meta := range metas {
		rc.blocks = append(rc.blocks, id)
		total += len(meta.Sites)
	}
	slices.Sort(rc.blocks)
	// One backing array holds every block's candidates, and the sites
	// are collected with duplicates, then sorted and compacted.
	all := make([]candidate, 0, total)
	rc.sites = make([]model.SiteID, 0, total)
	for bi, id := range rc.blocks {
		start := len(all)
		for chunk, site := range metas[id].Sites {
			if site == model.NoSite {
				continue
			}
			if available != nil && !available(site) {
				continue
			}
			all = append(all, candidate{ref: model.ChunkRef{Block: id, Chunk: chunk}, site: site})
			rc.sites = append(rc.sites, site)
		}
		rc.cands[bi] = all[start:len(all):len(all)]
	}
	slices.Sort(rc.sites)
	rc.sites = slices.Compact(rc.sites)
	return rc
}

// need returns the chunk count to fetch for block bi: k+delta capped at
// the number of available candidates.
func (rc requestCandidates) need(bi, delta int) int {
	return min(rc.metas[rc.blocks[bi]].RequiredChunks()+delta, len(rc.cands[bi]))
}

// feasible reports whether every block can still be reconstructed (at least
// RequiredChunks candidates remain available).
func (rc requestCandidates) feasible() bool {
	for bi, id := range rc.blocks {
		if len(rc.cands[bi]) < rc.metas[id].RequiredChunks() {
			return false
		}
	}
	return true
}

// ExactCost computes cost(C, Q) of Equation 4 exactly with the site-subset
// search (bestSiteMask). When the search hits its limits it falls back to
// the greedy planner's cost. The second return value reports whether the
// result is exact.
func ExactCost(metas map[model.BlockID]*model.BlockMeta, costs *model.SiteCosts, available func(model.SiteID) bool, delta int) (float64, bool) {
	rc := buildCandidates(metas, available)
	if !rc.feasible() {
		return math.Inf(1), true
	}
	_, cost, _, err := bestSiteMask(rc, costs, delta)
	if err != nil {
		plan := greedyPlan(rc, costs, delta, nil)
		return PlanCost(plan, metas, costs), false
	}
	return cost, true
}

// Limits of the exact site-subset search: site sets are uint64 masks, and
// the branch and bound gives up after maxSearchNodes nodes. A request
// spanning at most 14 sites has fewer than 2^15 nodes in its whole tree, so
// only wider requests can reach the node limit.
const (
	maxSearchSites = 64
	maxSearchNodes = 1 << 16
)

// errNotExact reports that the exact search stopped at one of its limits
// before proving an optimum; the planner then serves the greedy plan.
var errNotExact = errors.New("placement: exact search limit reached")

// subsetBlock is one block of a request flattened for the site-subset
// search: its chunk count to fetch and its candidates in ascending read
// cost, equal costs in chunk-index order, so that "the need cheapest
// chunks within a subset" is one in-order scan and deterministic.
type subsetBlock struct {
	need  int
	cands []subsetCand
}

// subsetCand is one candidate chunk: its site's index in
// requestCandidates.sites, its read cost m_j·z_i, and its share of the
// site's o_j (o_j over the number of candidates on that site).
type subsetCand struct {
	site  int
	cost  float64
	share float64
	ref   model.ChunkRef
}

// bestSiteMask solves Equation 4 exactly for a feasible request. Fixing the
// accessed-site set A (bit i of the mask is rc.sites[i]) leaves each block
// independent: it reads its need cheapest chunks within A. So the optimum
// is the cheapest feasible A, found by a depth-first branch and bound that
// includes or excludes one site per step (siteSearch). Among equal-cost
// sets the numerically lowest mask wins. It returns that mask, its cost,
// and the flattened blocks (in rc.blocks order) the mask selects from, or
// errNotExact past the search limits.
func bestSiteMask(rc requestCandidates, costs *model.SiteCosts, delta int) (uint64, float64, []subsetBlock, error) {
	n := len(rc.sites)
	if n > maxSearchSites {
		return 0, 0, nil, errNotExact
	}
	// oCost[i] is site i's o_j, perSite[i] its candidate count.
	buf := make([]float64, 2*n)
	oCost, perSite := buf[:n:n], buf[n:]
	for i, s := range rc.sites {
		oCost[i] = costs.OCost(s)
	}
	total := 0
	for _, cands := range rc.cands {
		total += len(cands)
	}
	all := make([]subsetCand, 0, total)
	blocks := make([]subsetBlock, len(rc.blocks))
	maxNeed := 0
	for bi, id := range rc.blocks {
		start := len(all)
		size := float64(rc.metas[id].ChunkSize)
		for _, c := range rc.cands[bi] {
			i, _ := slices.BinarySearch(rc.sites, c.site)
			all = append(all, subsetCand{site: i, cost: costs.MCost(c.site) * size, ref: c.ref})
			perSite[i]++
		}
		cands := all[start:len(all):len(all)]
		// Candidates arrive in chunk-index order; a stable insertion sort
		// by cost keeps that order among equal costs without allocating.
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && cands[j].cost < cands[j-1].cost; j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
		blocks[bi] = subsetBlock{need: rc.need(bi, delta), cands: cands}
		maxNeed = max(maxNeed, blocks[bi].need)
	}

	for i := range all {
		all[i].share = oCost[all[i].site] / perSite[all[i].site]
	}

	s := siteSearch{oCost: oCost, blocks: blocks, top: make([]boundPick, 0, maxNeed), best: math.Inf(1)}
	if !s.visit(0, 0, 0) {
		return 0, 0, nil, errNotExact
	}
	return s.bestMask, s.best, blocks, nil
}

// siteSearch is bestSiteMask's branch and bound. A node fixes some sites
// in (inc) and some out (exc); its subtree is every site set between the
// two.
type siteSearch struct {
	oCost    []float64
	blocks   []subsetBlock
	top      []boundPick // visit's per-block scratch, capacity the largest need
	nodes    int
	bestMask uint64
	best     float64
}

// boundPick is one chunk a node's bound selects: its cost as the bound
// counts it and its site's bit.
type boundPick struct {
	cost float64
	bit  uint64
}

// visit searches the subtree of one node, whose included sites' o_j sum to
// incCost. The node's lower bound is incCost plus, for every block, its
// need cheapest chunks on sites not excluded, where a chunk on a site not
// yet included also carries its share of that site's o_j: a site is paid
// for once, and at most all of its candidates can share that payment, so
// the bound never exceeds the cost of a set in the subtree. The sites those
// chunks use, added to inc, are a feasible incumbent. When the chunks use
// only included sites, the bound is the cost of inc itself, the subtree's
// best set, and the node is a leaf; otherwise it branches on the
// lowest-index chosen site not yet included, including it first. A node is
// pruned only when its bound exceeds the incumbent by more than a relative
// 1e-9, so equal-cost sets with lower masks are still reached. visit
// reports false once the node budget is spent.
func (s *siteSearch) visit(inc, exc uint64, incCost float64) bool {
	if s.nodes++; s.nodes > maxSearchNodes {
		return false
	}
	lb := incCost
	var used uint64
	for bi := range s.blocks {
		b := &s.blocks[bi]
		// Keep the block's need cheapest in s.top, ascending, earlier
		// candidates first among equal costs.
		top := s.top[:0]
		for ci := range b.cands {
			c := &b.cands[ci]
			bit := uint64(1) << c.site
			if exc&bit != 0 {
				continue
			}
			cost := c.cost
			if inc&bit == 0 {
				cost += c.share
			}
			if len(top) == b.need {
				if cost >= top[len(top)-1].cost {
					continue
				}
				top = top[:len(top)-1]
			}
			j := len(top)
			top = append(top, boundPick{})
			for ; j > 0 && top[j-1].cost > cost; j-- {
				top[j] = top[j-1]
			}
			top[j] = boundPick{cost: cost, bit: bit}
		}
		if len(top) < b.need {
			return true
		}
		for _, p := range top {
			lb += p.cost
			used |= p.bit
		}
	}
	if lb > s.best+1e-9*math.Abs(s.best) {
		return true
	}
	mask := inc | used
	if cost := s.maskCost(mask); cost < s.best || cost == s.best && mask < s.bestMask {
		s.bestMask, s.best = mask, cost
	}
	open := used &^ inc
	if open == 0 {
		return true
	}
	i := bits.TrailingZeros64(open)
	return s.visit(inc|1<<i, exc, incCost+s.oCost[i]) && s.visit(inc, exc|1<<i, incCost)
}

// maskCost is Equation 1 for the site set mask, its blocks reading their
// need cheapest chunks within it (mask is feasible). It sums in site order,
// then block order, so equal sets always give bit-equal costs.
func (s *siteSearch) maskCost(mask uint64) float64 {
	var cost float64
	for m := mask; m != 0; m &= m - 1 {
		cost += s.oCost[bits.TrailingZeros64(m)]
	}
	for bi := range s.blocks {
		b := &s.blocks[bi]
		taken := 0
		for ci := 0; ci < len(b.cands) && taken < b.need; ci++ {
			if c := b.cands[ci]; mask&(1<<c.site) != 0 {
				cost += c.cost
				taken++
			}
		}
	}
	return cost
}

// subsetPlan turns bestSiteMask's answer into an access plan: each block
// reads its need cheapest chunks within the mask. The sites' chunk lists
// share one backing array, each capped at its own length.
func subsetPlan(rc requestCandidates, mask uint64, blocks []subsetBlock) *model.AccessPlan {
	var count, next [maxSearchSites]int
	total := 0
	pick := func(visit func(c *subsetCand)) {
		for bi := range blocks {
			b := &blocks[bi]
			taken := 0
			for ci := 0; ci < len(b.cands) && taken < b.need; ci++ {
				if c := &b.cands[ci]; mask&(1<<c.site) != 0 {
					visit(c)
					taken++
				}
			}
		}
	}
	pick(func(c *subsetCand) { count[c.site]++; total++ })
	refs := make([]model.ChunkRef, total)
	off := 0
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		next[i] = off
		off += count[i]
	}
	pick(func(c *subsetCand) { refs[next[c.site]] = c.ref; next[c.site]++ })
	plan := &model.AccessPlan{Reads: make(map[model.SiteID][]model.ChunkRef, bits.OnesCount64(mask))}
	for m := mask; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); count[i] > 0 {
			plan.Reads[rc.sites[i]] = refs[next[i]-count[i] : next[i] : next[i]]
		}
	}
	return plan
}

package placement

import (
	"math/rand"

	"ecstore/internal/model"
	"ecstore/internal/stats"
)

// CatalogView is the mover's read-only view of system state C (chunk
// placements). The metadata catalog implements it.
type CatalogView interface {
	// BlockMeta returns the metadata of a block, or false if unknown.
	BlockMeta(id model.BlockID) (*model.BlockMeta, bool)
	// Sites lists every site in the system (available or not).
	Sites() []model.SiteID
}

// MoverConfig parameterizes the movement strategy.
type MoverConfig struct {
	// W1 weights the expected change in data access cost E (Eq. 5) and
	// W2 the expected change in load balance I (Eq. 7); the paper found
	// (w1=1, w2=3) best after a parameter search (Section V-B3).
	W1 float64
	W2 float64
	// MaxCandidateBlocks bounds Algorithm 1's candidate set; 0 means 16.
	MaxCandidateBlocks int
	// MaxPartners bounds the historical co-access queries per block used
	// by Equation 5; 0 means 8.
	MaxPartners int
	// MaxDestinations bounds candidate destination sites per chunk;
	// 0 means 8.
	MaxDestinations int
	// MaxEvaluations is Algorithm 1's early-stopping budget: the search
	// halts after scoring this many plans; 0 means 256.
	MaxEvaluations int
	// W2Adaptive scales W2 by the average o_j of the current cost
	// model, mirroring the paper's calibration of w2 against avg(o_j)
	// (initially w2 = avg(o_j), tuned to 0.6*avg(o_j)). Use this when
	// o_j is measured in seconds rather than normalized units.
	W2Adaptive bool
	// MinScoreFracOfAvgO suppresses movements whose Δ is below this
	// fraction of the average o_j: near-zero-gain moves churn data and
	// oscillate around converged layouts without improving anything.
	MinScoreFracOfAvgO float64
	// Seed drives candidate sampling.
	Seed int64
}

func (c MoverConfig) withDefaults() MoverConfig {
	if c.W1 == 0 && c.W2 == 0 {
		c.W1, c.W2 = DefaultW1, DefaultW2
	}
	if c.MaxCandidateBlocks == 0 {
		c.MaxCandidateBlocks = 16
	}
	if c.MaxPartners == 0 {
		c.MaxPartners = 8
	}
	if c.MaxDestinations == 0 {
		c.MaxDestinations = 8
	}
	if c.MaxEvaluations == 0 {
		c.MaxEvaluations = 256
	}
	return c
}

// Default movement weights (Section V-B3: empirically w1=1, w2=3).
const (
	DefaultW1 = 1.0
	DefaultW2 = 3.0
)

// MoverEnv carries the live system signals the mover consumes.
type MoverEnv struct {
	Catalog  CatalogView
	CoAccess *stats.CoAccessTracker
	Loads    *stats.LoadTracker
	Costs    *model.SiteCosts
	// Available reports whether a site's breaker is closed, both for the
	// cost of reading from it and as a movement destination; nil means
	// all sites are available.
	Available func(model.SiteID) bool
	// Infos is the catalog's zone and drain-state view; with Available it
	// forms the Eligibility rule destinations must pass. Nil means every
	// site is active and zone-less.
	Infos map[model.SiteID]model.SiteInfo
	// RequestRate is the observed request arrival rate (requests per
	// second) used to translate block access frequency into an I/O rate
	// for load shifting.
	RequestRate float64
}

// Mover selects chunk movement plans per Algorithm 1.
type Mover struct {
	cfg MoverConfig
	rng *rand.Rand
}

// NewMover returns a mover with the given configuration.
func NewMover(cfg MoverConfig) *Mover {
	cfg = cfg.withDefaults()
	return &Mover{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// blockContext caches the destination-independent parts of Equation 5 for
// one candidate block: its co-access partners, their metadata, and the
// before-movement query costs cost(C, {B_b, B_i}).
type blockContext struct {
	meta     *model.BlockMeta
	partners []partnerCost
	// freq backs the singleton fallback when no co-access exists.
	freq float64
}

type partnerCost struct {
	meta   *model.BlockMeta // nil for the singleton query {B_b}
	lambda float64
	before float64
}

// blockContext builds the cached context for one block.
func (m *Mover) blockContext(env MoverEnv, meta *model.BlockMeta) *blockContext {
	ctx := &blockContext{meta: meta, freq: env.CoAccess.Frequency(meta.ID)}
	partners := env.CoAccess.Partners(meta.ID, m.cfg.MaxPartners)
	for _, p := range partners {
		pm, ok := env.Catalog.BlockMeta(p.Block)
		if !ok || pm.ID == meta.ID {
			continue
		}
		before, _ := ExactCost(map[model.BlockID]*model.BlockMeta{meta.ID: meta, pm.ID: pm}, env.Costs, env.Available, 0)
		ctx.partners = append(ctx.partners, partnerCost{meta: pm, lambda: p.Lambda, before: before})
	}
	if len(ctx.partners) == 0 {
		before, _ := ExactCost(map[model.BlockID]*model.BlockMeta{meta.ID: meta}, env.Costs, env.Available, 0)
		ctx.partners = append(ctx.partners, partnerCost{lambda: ctx.freq, before: before})
	}
	return ctx
}

// accessGain evaluates E(C, b, s, d) for one (chunk, destination) pair
// against the cached context.
func (m *Mover) accessGain(env MoverEnv, ctx *blockContext, chunk int, dst model.SiteID) float64 {
	moved := ctx.meta.Clone()
	moved.Sites[chunk] = dst
	var gain float64
	for i := range ctx.partners {
		p := &ctx.partners[i]
		after := map[model.BlockID]*model.BlockMeta{moved.ID: moved}
		if p.meta != nil {
			after[p.meta.ID] = p.meta
		}
		costAfter, _ := ExactCost(after, env.Costs, env.Available, 0)
		gain += (p.before - costAfter) * p.lambda
	}
	return gain
}

// AccessGain computes E(C, b, s, d) of Equation 5: the co-access-weighted
// change in access cost over historical two-block queries {B_b, B_i} when
// B_b's chunk moves from site s to site d.
func (m *Mover) AccessGain(env MoverEnv, meta *model.BlockMeta, chunk int, dst model.SiteID) float64 {
	return m.accessGain(env, m.blockContext(env, meta), chunk, dst)
}

// LoadGain computes I(C, b, s, d) of Equation 7 for moving one chunk of
// the block from src to dst, shifting load proportionally to chunk size
// and access likelihood (Section IV-C, "Quantifying System Load").
func (m *Mover) LoadGain(env MoverEnv, meta *model.BlockMeta, src, dst model.SiteID) float64 {
	freq := env.CoAccess.Frequency(meta.ID)
	chunkRate := freq * env.RequestRate * float64(meta.ChunkSize)
	share := env.Loads.LoadShare(src, chunkRate)
	shift := env.Loads.Omega(src) * share
	return env.Loads.ImbalanceGain(src, dst, shift)
}

// avgO returns the mean o_j of the current cost model, summed in site
// order so the result does not depend on map iteration order.
func avgO(env MoverEnv) float64 {
	o := env.Costs.O
	if len(o) == 0 {
		return env.Costs.DefaultO
	}
	var sum float64
	for _, s := range model.SortedSites(o) {
		sum += o[s]
	}
	return sum / float64(len(o))
}

// effectiveW2 resolves the load-balance weight, optionally scaled by the
// current average o_j (W2Adaptive).
func (m *Mover) effectiveW2(env MoverEnv) float64 {
	if !m.cfg.W2Adaptive {
		return m.cfg.W2
	}
	return m.cfg.W2 * avgO(env)
}

// Score computes Δ(C, b, s, d) = w1·E + w2·I (Equation 8).
func (m *Mover) Score(env MoverEnv, meta *model.BlockMeta, chunk int, src, dst model.SiteID) float64 {
	e := m.AccessGain(env, meta, chunk, dst)
	i := m.LoadGain(env, meta, src, dst)
	return m.cfg.W1*e + m.effectiveW2(env)*i
}

// SelectMovementPlan runs Algorithm 1: probabilistically gather candidate
// blocks (recent and frequent), iterate their chunks ordered by source
// site load (most loaded first), score candidate destinations, and return
// the best-scoring plan. The boolean result is false when no plan has a
// positive score.
func (m *Mover) SelectMovementPlan(env MoverEnv) (model.MovePlan, bool) {
	blocks := env.CoAccess.CandidateBlocks(m.cfg.MaxCandidateBlocks, m.rng)
	if len(blocks) == 0 {
		return model.MovePlan{}, false
	}

	byLoad := env.Loads.SitesByLoadDesc()
	siteLoadRank := make(map[model.SiteID]int, len(byLoad))
	for rank, s := range byLoad {
		siteLoadRank[s] = rank
	}

	best := model.MovePlan{Score: m.cfg.MinScoreFracOfAvgO * avgO(env)}
	found := false
	evals := 0
	w2 := m.effectiveW2(env)

	for _, id := range blocks {
		meta, ok := env.Catalog.BlockMeta(id)
		if !ok {
			continue
		}
		ctx := m.blockContext(env, meta)
		// Order this block's chunks by the load of their current site,
		// most loaded first (Algorithm 1 line 5 note).
		chunks := make([]int, 0, len(meta.Sites))
		for c := range meta.Sites {
			if meta.Sites[c] != model.NoSite {
				chunks = append(chunks, c)
			}
		}
		for i := 1; i < len(chunks); i++ {
			for j := i; j > 0; j-- {
				a, b := chunks[j-1], chunks[j]
				if siteLoadRank[meta.Sites[b]] < siteLoadRank[meta.Sites[a]] {
					chunks[j-1], chunks[j] = b, a
				}
			}
		}

		for _, chunk := range chunks {
			src := meta.Sites[chunk]
			for _, dst := range m.candidateDestinations(env, byLoad, meta, chunk) {
				score := m.cfg.W1*m.accessGain(env, ctx, chunk, dst) +
					w2*m.LoadGain(env, meta, src, dst)
				evals++
				if score > best.Score {
					best = model.MovePlan{Block: id, Chunk: chunk, From: src, To: dst, Score: score}
					found = true
				}
				if evals >= m.cfg.MaxEvaluations {
					return best, found
				}
			}
		}
	}
	return best, found
}

// candidateDestinations lists the sites eligible to receive the given
// chunk of the block under the shared rule — including the zone cap,
// which an optional move never relaxes — ordered from least to most
// loaded (byLoad runs the other way) so the greedy search sees the most
// promising destinations first.
func (m *Mover) candidateDestinations(env MoverEnv, byLoad []model.SiteID, meta *model.BlockMeta, chunk int) []model.SiteID {
	rule := Eligibility{Infos: env.Infos, Available: env.Available}.
		ForBlock(meta.Sites, chunk, model.MaxChunksPerZone(meta.R))
	dests := make([]model.SiteID, 0, m.cfg.MaxDestinations)
	for i := len(byLoad) - 1; i >= 0 && len(dests) < m.cfg.MaxDestinations; i-- {
		if s := byLoad[i]; rule.Allows(s) && rule.UnderCap(s) {
			dests = append(dests, s)
		}
	}
	return dests
}

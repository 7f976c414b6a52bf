// Package model defines the shared vocabulary of EC-Store: blocks, chunks,
// sites, placements and access plans. It sits below every service package
// so that the metadata, statistics, placement, storage and client layers
// can exchange state without import cycles.
package model

import (
	"fmt"
	"sort"
)

// BlockID identifies a stored block (the paper's B_i). Blocks are the unit
// of the client API; chunks are the unit of distribution.
type BlockID string

// SiteID identifies a storage site (the paper's S_j, a physical machine).
type SiteID int

// NoSite is the zero SiteID sentinel for "no site chosen".
const NoSite SiteID = -1

// SortedSites returns a site-keyed map's ids in ascending order: the
// iteration order for anything that must not depend on Go's randomized
// map order, such as a float sum or a printed table.
func SortedSites[V any](m map[SiteID]V) []SiteID {
	ids := make([]SiteID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// BlockName returns the canonical id of the i-th block of a generated
// population, shared by workload generators and cluster loaders.
func BlockName(i int) BlockID {
	return BlockID(fmt.Sprintf("b%07d", i))
}

// ChunkRef names one chunk of one block.
type ChunkRef struct {
	Block BlockID
	Chunk int
}

func (c ChunkRef) String() string {
	return fmt.Sprintf("%s/%d", c.Block, c.Chunk)
}

// Scheme describes how a block is made fault tolerant.
type Scheme int

// Fault-tolerance schemes.
const (
	// SchemeErasure stores k data + r parity chunks (RS(k, r)).
	SchemeErasure Scheme = iota + 1
	// SchemeReplicated stores r+1 full copies of the block.
	SchemeReplicated
)

func (s Scheme) String() string {
	switch s {
	case SchemeErasure:
		return "erasure"
	case SchemeReplicated:
		return "replicated"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// PackedMember records one small block sealed into a pack container:
// Off/Len locate its bytes inside the container's logical byte stream.
type PackedMember struct {
	ID  BlockID
	Off int64
	Len int64
}

// BlockMeta is the metadata service's record for one block: the system
// state row C_i in the paper's notation. Sites[c] is the site storing chunk
// c; for replicated blocks each "chunk" is a full copy.
type BlockMeta struct {
	ID     BlockID
	Scheme Scheme
	// Size is the original block length in bytes.
	Size int64
	// K and R are the coding parameters. For replication K is 1 and R
	// is the number of additional copies.
	K int
	R int
	// ChunkSize is the stored size of each chunk in bytes (z_i).
	ChunkSize int64
	// Sites maps chunk id -> site. len(Sites) == K+R for erasure coding
	// and R+1 for replication.
	Sites []SiteID
	// Version increments on every placement change so concurrent
	// movement and access can detect stale plans.
	Version uint64

	// StripeUnit, when positive, marks the block as stripe-interleaved:
	// stripe t holds block bytes [t*K*StripeUnit, (t+1)*K*StripeUnit) and
	// contributes StripeUnit bytes at offset t*StripeUnit of every chunk.
	// ChunkSize is then a whole multiple of StripeUnit. Zero means the
	// contiguous layout (chunk c holds block bytes
	// [c*ChunkSize, (c+1)*ChunkSize)).
	StripeUnit int64

	// Members, on a pack container, lists the small blocks sealed into
	// it. Member blocks have no chunks of their own; the catalog
	// synthesizes their metadata from the container's entry.
	Members []PackedMember
	// PackedIn and PackedOff are set only on synthesized member
	// metadata: the block's bytes are [PackedOff, PackedOff+Size) of
	// container PackedIn. Sites then mirrors the container's placement
	// for health accounting, but the member owns no chunks.
	PackedIn  BlockID
	PackedOff int64
}

// TotalChunks returns the number of stored chunks (or copies).
func (m *BlockMeta) TotalChunks() int {
	if m.Scheme == SchemeReplicated {
		return m.R + 1
	}
	return m.K + m.R
}

// RequiredChunks returns how many chunks a reader needs (k_i; 1 for
// replication).
func (m *BlockMeta) RequiredChunks() int {
	if m.Scheme == SchemeReplicated {
		return 1
	}
	return m.K
}

// SiteSet returns the set of sites holding a chunk of this block.
func (m *BlockMeta) SiteSet() map[SiteID]bool {
	s := make(map[SiteID]bool, len(m.Sites))
	for _, site := range m.Sites {
		if site != NoSite {
			s[site] = true
		}
	}
	return s
}

// ChunksAt returns the chunk ids stored at the given site, in order.
func (m *BlockMeta) ChunksAt(site SiteID) []int {
	var ids []int
	for c, s := range m.Sites {
		if s == site {
			ids = append(ids, c)
		}
	}
	return ids
}

// Clone returns a deep copy.
func (m *BlockMeta) Clone() *BlockMeta {
	c := *m
	c.Sites = append([]SiteID(nil), m.Sites...)
	if m.Members != nil {
		c.Members = append([]PackedMember(nil), m.Members...)
	}
	return &c
}

// Packed reports whether this metadata describes a member of a pack
// container rather than a block with chunks of its own.
func (m *BlockMeta) Packed() bool { return m.PackedIn != "" }

// AccessPlan says which chunks to fetch from which sites for one read
// request: the selected s_ij variables of the paper's ILP.
type AccessPlan struct {
	// Reads maps each accessed site to the chunk fetches issued there.
	Reads map[SiteID][]ChunkRef
}

// NewAccessPlan returns an empty plan.
func NewAccessPlan() *AccessPlan {
	return &AccessPlan{Reads: make(map[SiteID][]ChunkRef)}
}

// Add records that chunk ref is read from site.
func (p *AccessPlan) Add(site SiteID, ref ChunkRef) {
	p.Reads[site] = append(p.Reads[site], ref)
}

// SitesAccessed returns the accessed-site count (the paper's Σ a_j).
func (p *AccessPlan) SitesAccessed() int { return len(p.Reads) }

// ChunkCount returns the total number of chunk fetches in the plan.
func (p *AccessPlan) ChunkCount() int {
	n := 0
	for _, refs := range p.Reads {
		n += len(refs)
	}
	return n
}

// ChunksFor returns how many chunks the plan fetches for the given block.
func (p *AccessPlan) ChunksFor(id BlockID) int {
	n := 0
	for _, refs := range p.Reads {
		for _, ref := range refs {
			if ref.Block == id {
				n++
			}
		}
	}
	return n
}

// SortedSites returns accessed sites in ascending order, for deterministic
// iteration.
func (p *AccessPlan) SortedSites() []SiteID {
	sites := make([]SiteID, 0, len(p.Reads))
	for s := range p.Reads {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	return sites
}

// Clone returns a deep copy of the plan.
func (p *AccessPlan) Clone() *AccessPlan {
	c := NewAccessPlan()
	for site, refs := range p.Reads {
		c.Reads[site] = append([]ChunkRef(nil), refs...)
	}
	return c
}

// SiteCosts carries the cost-model parameters of Section IV: O[j] is the
// overhead of accessing site j (o_j) and M[j] the per-byte read cost of its
// storage medium (m_j). Entries default to DefaultO / DefaultM when absent.
type SiteCosts struct {
	O map[SiteID]float64
	M map[SiteID]float64
	// DefaultO and DefaultM apply to sites missing from the maps.
	DefaultO float64
	DefaultM float64
}

// OCost returns o_j for a site.
func (c *SiteCosts) OCost(j SiteID) float64 {
	if c.O != nil {
		if v, ok := c.O[j]; ok {
			return v
		}
	}
	return c.DefaultO
}

// MCost returns m_j for a site.
func (c *SiteCosts) MCost(j SiteID) float64 {
	if c.M != nil {
		if v, ok := c.M[j]; ok {
			return v
		}
	}
	return c.DefaultM
}

// MovePlan is a selected chunk movement (B_b, S_s, S_d) with its estimated
// benefit Δ(C, b, s, d).
type MovePlan struct {
	Block BlockID
	Chunk int
	From  SiteID
	To    SiteID
	Score float64
}

func (m MovePlan) String() string {
	return fmt.Sprintf("move %s/%d: site %d -> site %d (score %.3f)", m.Block, m.Chunk, m.From, m.To, m.Score)
}

// Breakdown is the per-request response-time decomposition used throughout
// the paper's evaluation (Figures 1, 4b, 4e, 4g). All values are seconds.
type Breakdown struct {
	Metadata float64
	Planning float64
	Retrieve float64
	Decode   float64
}

// Total returns the end-to-end response time.
func (b Breakdown) Total() float64 {
	return b.Metadata + b.Planning + b.Retrieve + b.Decode
}

// Add accumulates another breakdown into this one.
func (b *Breakdown) Add(o Breakdown) {
	b.Metadata += o.Metadata
	b.Planning += o.Planning
	b.Retrieve += o.Retrieve
	b.Decode += o.Decode
}

// Scale multiplies every component by f (used for averaging).
func (b *Breakdown) Scale(f float64) {
	b.Metadata *= f
	b.Planning *= f
	b.Retrieve *= f
	b.Decode *= f
}

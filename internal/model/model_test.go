package model

import (
	"math"
	"testing"
)

func TestBlockMetaChunkCounts(t *testing.T) {
	cases := []struct {
		name         string
		meta         BlockMeta
		wantTotal    int
		wantRequired int
	}{
		{
			name:         "erasure RS(2,2)",
			meta:         BlockMeta{Scheme: SchemeErasure, K: 2, R: 2},
			wantTotal:    4,
			wantRequired: 2,
		},
		{
			name:         "erasure RS(4,2)",
			meta:         BlockMeta{Scheme: SchemeErasure, K: 4, R: 2},
			wantTotal:    6,
			wantRequired: 4,
		},
		{
			name:         "replicated 3 copies",
			meta:         BlockMeta{Scheme: SchemeReplicated, K: 1, R: 2},
			wantTotal:    3,
			wantRequired: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.meta.TotalChunks(); got != tc.wantTotal {
				t.Errorf("TotalChunks() = %d, want %d", got, tc.wantTotal)
			}
			if got := tc.meta.RequiredChunks(); got != tc.wantRequired {
				t.Errorf("RequiredChunks() = %d, want %d", got, tc.wantRequired)
			}
		})
	}
}

func TestBlockMetaSiteSet(t *testing.T) {
	m := BlockMeta{Sites: []SiteID{3, 1, NoSite, 3}}
	set := m.SiteSet()
	if len(set) != 2 || !set[3] || !set[1] {
		t.Fatalf("SiteSet() = %v", set)
	}
}

func TestBlockMetaChunksAt(t *testing.T) {
	m := BlockMeta{Sites: []SiteID{5, 2, 5, 9}}
	got := m.ChunksAt(5)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("ChunksAt(5) = %v, want [0 2]", got)
	}
	if got := m.ChunksAt(7); got != nil {
		t.Fatalf("ChunksAt(7) = %v, want nil", got)
	}
}

func TestBlockMetaCloneIsDeep(t *testing.T) {
	m := &BlockMeta{ID: "b", Sites: []SiteID{1, 2}}
	c := m.Clone()
	c.Sites[0] = 9
	if m.Sites[0] != 1 {
		t.Fatal("Clone aliases Sites")
	}
}

func TestAccessPlanCounters(t *testing.T) {
	p := NewAccessPlan()
	p.Add(1, ChunkRef{Block: "a", Chunk: 0})
	p.Add(1, ChunkRef{Block: "a", Chunk: 1})
	p.Add(2, ChunkRef{Block: "b", Chunk: 0})

	if got := p.SitesAccessed(); got != 2 {
		t.Errorf("SitesAccessed() = %d, want 2", got)
	}
	if got := p.ChunkCount(); got != 3 {
		t.Errorf("ChunkCount() = %d, want 3", got)
	}
	if got := p.ChunksFor("a"); got != 2 {
		t.Errorf("ChunksFor(a) = %d, want 2", got)
	}
	if got := p.ChunksFor("missing"); got != 0 {
		t.Errorf("ChunksFor(missing) = %d, want 0", got)
	}
	sites := p.SortedSites()
	if len(sites) != 2 || sites[0] != 1 || sites[1] != 2 {
		t.Errorf("SortedSites() = %v", sites)
	}
}

func TestAccessPlanCloneIsDeep(t *testing.T) {
	p := NewAccessPlan()
	p.Add(1, ChunkRef{Block: "a", Chunk: 0})
	c := p.Clone()
	c.Add(1, ChunkRef{Block: "a", Chunk: 1})
	if p.ChunkCount() != 1 {
		t.Fatal("Clone aliases reads")
	}
}

func TestSiteCostsDefaults(t *testing.T) {
	c := SiteCosts{DefaultO: 5, DefaultM: 1}
	if got := c.OCost(3); got != 5 {
		t.Errorf("OCost default = %v", got)
	}
	if got := c.MCost(3); got != 1 {
		t.Errorf("MCost default = %v", got)
	}
	c.O = map[SiteID]float64{3: 9}
	c.M = map[SiteID]float64{3: 2}
	if got := c.OCost(3); got != 9 {
		t.Errorf("OCost override = %v", got)
	}
	if got := c.MCost(3); got != 2 {
		t.Errorf("MCost override = %v", got)
	}
	if got := c.OCost(4); got != 5 {
		t.Errorf("OCost other site = %v", got)
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{Metadata: 1, Planning: 2, Retrieve: 3, Decode: 4}
	if got := b.Total(); got != 10 {
		t.Errorf("Total() = %v, want 10", got)
	}
	b.Add(Breakdown{Metadata: 1})
	if b.Metadata != 2 {
		t.Errorf("Add: metadata = %v", b.Metadata)
	}
	b.Scale(0.5)
	if math.Abs(b.Metadata-1) > 1e-12 || math.Abs(b.Decode-2) > 1e-12 {
		t.Errorf("Scale: %+v", b)
	}
}

func TestStringers(t *testing.T) {
	if SchemeErasure.String() != "erasure" || SchemeReplicated.String() != "replicated" {
		t.Fatal("Scheme.String mismatch")
	}
	ref := ChunkRef{Block: "blk", Chunk: 2}
	if ref.String() != "blk/2" {
		t.Fatalf("ChunkRef.String() = %q", ref.String())
	}
	mp := MovePlan{Block: "b", Chunk: 1, From: 2, To: 3, Score: 0.5}
	if mp.String() == "" {
		t.Fatal("MovePlan.String empty")
	}
}

package metadata

import (
	"testing"

	"ecstore/internal/model"
	"ecstore/internal/wire"
)

func containerMeta(id model.BlockID, members []model.PackedMember) *model.BlockMeta {
	return &model.BlockMeta{
		ID:         id,
		Scheme:     model.SchemeErasure,
		K:          2,
		R:          2,
		Size:       400,
		ChunkSize:  200,
		StripeUnit: 100,
		Sites:      []model.SiteID{1, 2, 3, 4},
		Members:    members,
	}
}

func TestRegisterContainerSynthesizesMembers(t *testing.T) {
	c := NewCatalog(sites(6))
	members := []model.PackedMember{
		{ID: "m1", Off: 0, Len: 150},
		{ID: "m2", Off: 150, Len: 250},
	}
	if err := c.Register(containerMeta("pack-1", members)); err != nil {
		t.Fatal(err)
	}

	// BlockMeta resolves a member to a synthesized view of its container.
	got, ok := c.BlockMeta("m2")
	if !ok {
		t.Fatal("member m2 not resolvable")
	}
	if got.PackedIn != "pack-1" || got.PackedOff != 150 || got.Size != 250 {
		t.Fatalf("member meta = packedIn %s off %d size %d", got.PackedIn, got.PackedOff, got.Size)
	}
	if got.StripeUnit != 100 || got.ChunkSize != 200 || got.K != 2 || len(got.Sites) != 4 {
		t.Fatalf("member does not inherit container geometry: %+v", got)
	}
	if !got.Packed() {
		t.Fatal("synthesized member meta is not Packed()")
	}

	// Lookup mixes containers and members.
	metas, err := c.Lookup([]model.BlockID{"pack-1", "m1"})
	if err != nil {
		t.Fatal(err)
	}
	if metas["pack-1"].Packed() || !metas["m1"].Packed() {
		t.Fatalf("lookup misclassified: container packed=%v member packed=%v", metas["pack-1"].Packed(), metas["m1"].Packed())
	}

	// The synthesized view is a private copy.
	got.Sites[0] = 99
	again, _ := c.BlockMeta("m2")
	if again.Sites[0] != 1 {
		t.Fatal("member meta aliases catalog state")
	}

	// Members never appear in the per-site index: repair and the mover
	// operate on containers only.
	for _, id := range c.BlocksOnSite(1) {
		if id == "m1" || id == "m2" {
			t.Fatalf("member %s indexed by site", id)
		}
	}
}

func TestRegisterMemberValidation(t *testing.T) {
	c := NewCatalog(sites(6))
	if err := c.Register(containerMeta("taken", []model.PackedMember{{ID: "used", Off: 0, Len: 10}})); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		meta *model.BlockMeta
	}{
		{"meta carries PackedIn", func() *model.BlockMeta {
			m := blockMeta("direct", 1, 2, 3, 4)
			m.PackedIn = "somewhere"
			return m
		}()},
		{"empty member id", containerMeta("p1", []model.PackedMember{{ID: "", Off: 0, Len: 1}})},
		{"member id equals container", containerMeta("p1", []model.PackedMember{{ID: "p1", Off: 0, Len: 1}})},
		{"duplicate member ids", containerMeta("p1", []model.PackedMember{{ID: "d", Off: 0, Len: 1}, {ID: "d", Off: 1, Len: 1}})},
		{"negative offset", containerMeta("p1", []model.PackedMember{{ID: "n", Off: -1, Len: 1}})},
		{"member past container size", containerMeta("p1", []model.PackedMember{{ID: "o", Off: 399, Len: 2}})},
		{"member id shadows a block", containerMeta("p1", []model.PackedMember{{ID: "taken", Off: 0, Len: 1}})},
		{"member id shadows another container's member", containerMeta("p1", []model.PackedMember{{ID: "used", Off: 0, Len: 1}})},
	}
	for _, tc := range cases {
		err := c.Register(tc.meta)
		if err == nil {
			t.Errorf("%s: registered", tc.name)
			continue
		}
		if _, ok := c.BlockMeta(tc.meta.ID); ok && tc.meta.ID == "p1" {
			t.Errorf("%s: rejected register left state behind", tc.name)
		}
	}
}

func TestDeleteMemberAndContainer(t *testing.T) {
	c := NewCatalog(sites(6))
	members := []model.PackedMember{
		{ID: "m1", Off: 0, Len: 100},
		{ID: "m2", Off: 100, Len: 100},
	}
	if err := c.Register(containerMeta("pack-1", members)); err != nil {
		t.Fatal(err)
	}

	// Deleting a member detaches it without touching chunks: the
	// returned meta carries no sites, so callers have nothing to erase.
	gone, err := c.Delete("m1")
	if err != nil {
		t.Fatal(err)
	}
	if len(gone.Sites) != 0 {
		t.Fatalf("deleted member returned sites %v", gone.Sites)
	}
	if _, ok := c.BlockMeta("m1"); ok {
		t.Fatal("deleted member still resolvable")
	}
	cm, _ := c.BlockMeta("pack-1")
	if len(cm.Members) != 1 || cm.Members[0].ID != "m2" {
		t.Fatalf("container member table after delete: %+v", cm.Members)
	}
	if _, ok := c.BlockMeta("m2"); !ok {
		t.Fatal("sibling member lost")
	}

	// Deleting the container cascades to its remaining members.
	if _, err := c.Delete("pack-1"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.BlockMeta("m2"); ok {
		t.Fatal("member survived container delete")
	}

	// Freed ids resume at a higher version than the deleted incarnation.
	reborn := blockMeta("m2", 1, 2, 3, 4)
	if err := c.Register(reborn); err != nil {
		t.Fatal(err)
	}
	got, _ := c.BlockMeta("m2")
	if got.Version <= cm.Version {
		t.Fatalf("reborn member version %d did not advance past container version %d", got.Version, cm.Version)
	}
}

func TestBlockMetaCodecRoundTripMembers(t *testing.T) {
	in := containerMeta("pack-9", []model.PackedMember{
		{ID: "tiny-a", Off: 0, Len: 123},
		{ID: "tiny-b", Off: 123, Len: 277},
	})
	in.Version = 17
	e := wire.NewEncoder(64)
	EncodeBlockMeta(e, in)
	out, err := DecodeBlockMeta(wire.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if out.StripeUnit != in.StripeUnit || out.PackedIn != in.PackedIn || out.PackedOff != in.PackedOff {
		t.Fatalf("stripe/pack fields: %+v", out)
	}
	if len(out.Members) != 2 || out.Members[1] != in.Members[1] {
		t.Fatalf("members: %+v", out.Members)
	}

	// A synthesized member view also survives the wire (the RPC lookup
	// path ships them to remote clients).
	mem := in.Clone()
	mem.ID = "tiny-a"
	mem.PackedIn, mem.PackedOff, mem.Size, mem.Members = "pack-9", 0, 123, nil
	e2 := wire.NewEncoder(64)
	EncodeBlockMeta(e2, mem)
	out2, err := DecodeBlockMeta(wire.NewDecoder(e2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if out2.PackedIn != "pack-9" || out2.PackedOff != 0 || len(out2.Members) != 0 {
		t.Fatalf("member view round trip: %+v", out2)
	}
}

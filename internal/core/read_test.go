package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ecstore/internal/faults"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/storage"
)

// TestReadEngineEquivalence is the engine's contract as a table: whatever
// the layout a block was written in, every (off, n) window of it — empty,
// one byte, chunk- and stripe-crossing, the whole block — reads back as
// whole[off:off+n], healthy and after a chunk holder failed behind the
// client's back, and every pool buffer the reads took is returned.
func TestReadEngineEquivalence(t *testing.T) {
	ctx := context.Background()
	layouts := []struct {
		name string
		cfg  Config
		size int
		put  func(t *testing.T, c *Client, data []byte)
	}{
		{"contiguous", Config{Delta: 1, Seed: 3}, 10_000, func(t *testing.T, c *Client, data []byte) {
			if err := c.Put("blk", data); err != nil {
				t.Fatal(err)
			}
		}},
		{"striped", Config{Delta: 1, Seed: 3, StripeUnit: 512}, 6*1024 + 77, func(t *testing.T, c *Client, data []byte) {
			if _, err := c.PutReader(ctx, "blk", bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		}},
		{"packed", Config{Delta: 1, Seed: 3, StripeUnit: 256, PackThreshold: 4096, PackCapacity: 64 << 10}, 3000, func(t *testing.T, c *Client, data []byte) {
			// "blk" sits between two neighbours, so its window is interior
			// to the container and not aligned to its stripes.
			for _, id := range []model.BlockID{"before", "blk", "after"} {
				d := data
				if id != "blk" {
					d = blockData(1111, 9)
				}
				if err := c.Put(id, d); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.FlushPacked(ctx); err != nil {
				t.Fatal(err)
			}
		}},
		{"replicated", Config{Delta: 1, Seed: 3, Scheme: model.SchemeReplicated}, 5000, func(t *testing.T, c *Client, data []byte) {
			if err := c.Put("blk", data); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			c := newTestCluster(t, ClusterConfig{Client: lay.cfg})
			whole := blockData(lay.size, 7)
			lay.put(t, c.Client, whole)
			meta, ok := c.Catalog.BlockMeta("blk")
			if !ok {
				t.Fatal("block not registered")
			}

			size := int64(lay.size)
			windows := [][2]int64{
				{0, 0}, {size, 0}, {size - 1, 1}, {0, size}, {0, 1},
				{meta.ChunkSize - 3, 10},     // crosses a contiguous block's chunk boundary
				{2*meta.StripeUnit - 1, 2},   // crosses a striped block's stripe boundary
				{size / 2, size - size/2},    // runs to the last byte
				{meta.ChunkSize, size / 100}, // starts on the boundary
			}
			rng := rand.New(rand.NewSource(42))
			for i := 0; i < 24; i++ {
				off := rng.Int63n(size)
				windows = append(windows, [2]int64{off, rng.Int63n(size - off + 1)})
			}

			base := settledOutstanding(t)
			var kept int64 // a replicated read returns the fetched buffer itself
			check := func(state string) {
				for _, w := range windows {
					off, n := w[0], w[1]
					if off < 0 || off+n > size {
						continue
					}
					got, err := c.Client.GetRange(ctx, "blk", off, n)
					if err != nil {
						t.Fatalf("%s: GetRange(%d, %d): %v", state, off, n, err)
					}
					if !bytes.Equal(got, whole[off:off+n]) {
						t.Fatalf("%s: GetRange(%d, %d) returned wrong bytes", state, off, n)
					}
					if lay.cfg.Scheme == model.SchemeReplicated && n > 0 {
						kept++
					}
				}
				got, err := c.Client.Get("blk")
				if err != nil || !bytes.Equal(got, whole) {
					t.Fatalf("%s: whole Get: %d bytes, %v", state, len(got), err)
				}
				if lay.cfg.Scheme == model.SchemeReplicated {
					kept++
				}
			}
			check("healthy")
			c.Services[meta.Sites[0]].Fail()
			check("one holder failed")
			if out := settledOutstanding(t) - base; out != kept {
				t.Fatalf("%d pool buffers out after the reads, want %d", out, kept)
			}
		})
	}
}

// TestRangeReadIsLateBound hangs the site holding data chunk 0 of a
// block: with Delta = 1 a range read asks k+1 holders for its window and
// answers from the first k, so it must not wait out the hung site's
// ChunkTimeout. (The engine this replaced fetched exactly chunks 0 and 1
// and sat out the whole timeout before promoting a spare.)
func TestRangeReadIsLateBound(t *testing.T) {
	siteIDs := []model.SiteID{1, 2, 3, 4}
	catalog := metadata.NewCatalog(siteIDs)
	inj := faults.NewInjector(1)
	apis := make(map[model.SiteID]storage.SiteAPI, len(siteIDs))
	wrapped := make(map[model.SiteID]*faults.Site, len(siteIDs))
	for _, id := range siteIDs {
		wrapped[id] = faults.NewSite(storage.NewService(storage.ServiceConfig{Site: id}, storage.NewMemStore()), inj)
		apis[id] = wrapped[id]
	}
	client, err := NewClient(Config{
		Delta:        1,
		ChunkTimeout: 2 * time.Second,
		StripeUnit:   256,
		Seed:         5,
	}, Deps{Meta: catalog, Sites: apis})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := context.Background()
	data := blockData(8*512, 3)
	if _, err := client.PutReader(ctx, "blk", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	meta, _ := catalog.BlockMeta("blk")
	wrapped[meta.Sites[0]].Set(faults.Plan{Hang: true})

	start := time.Now()
	got, err := client.GetRange(ctx, "blk", 300, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[300:1300]) {
		t.Fatal("wrong bytes")
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("range read took %v with one of k+1 holders hung: it was not late-bound", took)
	}
}

// TestPackMembersShareOneWindowRead reads every member of one container
// in one GetMulti: they are one planned read of the window covering them,
// so the request costs at most k+Delta site reads however many members
// it names (one range read of k chunks per member before).
func TestPackMembersShareOneWindowRead(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{
		Client: Config{Delta: 1, Seed: 3, StripeUnit: 256, PackThreshold: 1024, PackCapacity: 1 << 20},
	})
	ctx := context.Background()
	const members = 8
	want := make(map[model.BlockID][]byte, members)
	ids := make([]model.BlockID, 0, members)
	for i := 0; i < members; i++ {
		id := model.BlockID(fmt.Sprintf("small-%d", i))
		want[id] = blockData(300+i*37, byte(i+1))
		ids = append(ids, id)
		if err := c.Client.Put(id, want[id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Client.FlushPacked(ctx); err != nil {
		t.Fatal(err)
	}

	siteReads := func() (n int64) {
		for _, svc := range c.Services {
			reads, _ := svc.Totals()
			n += reads
		}
		return n
	}
	before := siteReads()
	got, _, err := c.Client.GetMultiContext(ctx, ids)
	if err != nil {
		t.Fatal(err)
	}
	for id, data := range want {
		if !bytes.Equal(got[id], data) {
			t.Fatalf("member %s: wrong bytes", id)
		}
	}
	if len(got) != members {
		t.Fatalf("GetMulti returned %d blocks, want the %d members and nothing else", len(got), members)
	}
	settledOutstanding(t) // lets the late-binding surplus read land
	if reads := siteReads() - before; reads < 2 || reads > 2+1 {
		t.Fatalf("%d members of one container cost %d site reads, want k..k+delta = 2..3", members, reads)
	}
}

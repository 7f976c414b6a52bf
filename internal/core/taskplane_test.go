package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"ecstore/internal/faults"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/storage"
)

func counterValue(reg *obs.Registry, name string) int64 {
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name && c.Label == "" {
			return c.Value
		}
	}
	return 0
}

// TestScrubDetectsAndRepairsCorruption injects bit rot into every chunk on
// one site and checks that a single control-plane round detects 100% of
// the damage, quarantines it, and re-protects every chunk in place.
func TestScrubDetectsAndRepairsCorruption(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{
		NumSites:     6,
		EnableRepair: true,
		EnableScrub:  true,
		Metrics:      reg,
	})
	ctx := context.Background()

	payloads := make(map[model.BlockID][]byte)
	for i := 0; i < 6; i++ {
		id := model.BlockID(fmt.Sprintf("b%d", i))
		payloads[id] = blockData(400, byte(i+1))
		if err := c.Client.Put(id, payloads[id]); err != nil {
			t.Fatal(err)
		}
	}

	victim := model.SiteID(2)
	damaged, err := faults.Corrupt(c.Services[victim].Store(), faults.NewInjector(7),
		faults.CorruptionPlan{BitFlipRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(damaged) == 0 {
		t.Fatal("corruption injection hit nothing")
	}

	c.Tick(ctx)

	if got := counterValue(reg, "scrub_corrupt_detected_total"); got != int64(len(damaged)) {
		t.Fatalf("scrub detected %d corrupt chunks, injected %d", got, len(damaged))
	}
	// Every damaged chunk must verify clean again after in-place repair.
	for _, ref := range damaged {
		if _, err := c.Services[victim].VerifyChunk(ctx, ref); err != nil {
			t.Fatalf("chunk %s still damaged after repair round: %v", ref, err)
		}
	}
	for id, want := range payloads {
		got, err := c.Client.Get(id)
		if err != nil {
			t.Fatalf("get %s after scrub+repair: %v", id, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %s corrupted end to end", id)
		}
	}
	// A second round finds nothing new: the damage set is fully healed.
	c.Tick(ctx)
	if got := counterValue(reg, "scrub_corrupt_detected_total"); got != int64(len(damaged)) {
		t.Fatalf("second sweep re-detected corruption: %d total, want %d", got, len(damaged))
	}
}

// TestScrubDetectsMissingChunk deletes a placed chunk behind the catalog's
// back and checks the scrubber's catalog diff finds and re-protects it.
func TestScrubDetectsMissingChunk(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{NumSites: 6, EnableRepair: true, Metrics: reg})
	ctx := context.Background()

	want := blockData(400, 5)
	if err := c.Client.Put("blk", want); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	site := meta.Sites[0]
	ref := model.ChunkRef{Block: "blk", Chunk: 0}
	if err := c.Services[site].DeleteChunk(ctx, ref); err != nil {
		t.Fatal(err)
	}

	if err := c.ScrubSite(site); err != nil {
		t.Fatal(err)
	}
	c.Tasks.RunOnce(ctx)

	if got := counterValue(reg, "scrub_missing_detected_total"); got != 1 {
		t.Fatalf("missing detections = %d, want 1", got)
	}
	if _, err := c.Services[site].VerifyChunk(ctx, ref); err != nil {
		t.Fatalf("missing chunk not re-protected: %v", err)
	}
	if got, err := c.Client.Get("blk"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("block unreadable after repair: %v", err)
	}
}

// TestDrainSiteDecommissions drains a site and checks its chunks migrate,
// the site ends decommissioned, redundancy invariants hold, and new writes
// avoid it — and that a restarted scheduler does not re-run the finished
// drain task.
func TestDrainSiteDecommissions(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{NumSites: 6, Metrics: reg})
	ctx := context.Background()

	payloads := make(map[model.BlockID][]byte)
	for i := 0; i < 8; i++ {
		id := model.BlockID(fmt.Sprintf("d%d", i))
		payloads[id] = blockData(300, byte(i+1))
		if err := c.Client.Put(id, payloads[id]); err != nil {
			t.Fatal(err)
		}
	}
	var victim model.SiteID
	for id, n := range c.SiteChunkCounts(ctx) {
		if n > 0 {
			victim = id
			break
		}
	}
	if victim == model.NoSite {
		t.Fatal("no site holds chunks")
	}

	if err := c.DrainSite(victim); err != nil {
		t.Fatal(err)
	}
	c.Tick(ctx)

	if st := c.Catalog.SiteInfos()[victim].State; st != model.SiteDecommissioned {
		t.Fatalf("site state = %v, want decommissioned", st)
	}
	if blocks := c.Catalog.BlocksOnSite(victim); len(blocks) != 0 {
		t.Fatalf("%d blocks still placed on drained site", len(blocks))
	}
	if refs, _ := c.Services[victim].ListChunks(ctx); len(refs) != 0 {
		t.Fatalf("%d chunks left on drained site's media", len(refs))
	}
	for id, want := range payloads {
		got, err := c.Client.Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %s unreadable after drain: %v", id, err)
		}
		meta, _ := c.Catalog.BlockMeta(id)
		seen := map[model.SiteID]bool{}
		for _, s := range meta.Sites {
			if seen[s] {
				t.Fatalf("block %s has two chunks on site %d after drain", id, s)
			}
			seen[s] = true
		}
	}
	// New writes must avoid the decommissioned site.
	if err := c.Client.Put("post-drain", blockData(300, 99)); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("post-drain")
	for _, s := range meta.Sites {
		if s == victim {
			t.Fatal("write after drain landed on decommissioned site")
		}
	}

	// Restart the control plane over the same catalog: the Done drain row
	// must not run again.
	var attempts int
	for _, rec := range c.Catalog.ListTasks() {
		if rec.Type == model.TaskTypeDrainSite {
			if rec.State != model.TaskDone {
				t.Fatalf("drain task state = %v, want done", rec.State)
			}
			attempts = rec.Attempts
		}
	}
	apis := make(map[model.SiteID]storage.SiteAPI, len(c.Services))
	for id, svc := range c.Services {
		apis[id] = svc
	}
	sched2 := NewControl(ClusterConfig{}, c.Catalog, apis).Tasks
	sched2.RunOnce(ctx)
	for _, rec := range c.Catalog.ListTasks() {
		if rec.Type == model.TaskTypeDrainSite && rec.Attempts != attempts {
			t.Fatalf("drain task re-ran after restart: attempts %d -> %d", attempts, rec.Attempts)
		}
	}
}

// TestZoneAwarePlacement checks writes under zone labels never put more
// than MaxChunksPerZone chunks of one block into a single zone.
func TestZoneAwarePlacement(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 6, Zones: 3})
	infos := c.Catalog.SiteInfos()
	cap := model.MaxChunksPerZone(2) // default scheme is RS(2,2)
	for i := 0; i < 12; i++ {
		id := model.BlockID(fmt.Sprintf("z%d", i))
		if err := c.Client.Put(id, blockData(300, byte(i+1))); err != nil {
			t.Fatal(err)
		}
		meta, _ := c.Catalog.BlockMeta(id)
		perZone := map[string]int{}
		for _, s := range meta.Sites {
			perZone[infos[s].Zone]++
		}
		for zone, n := range perZone {
			if n > cap {
				t.Fatalf("block %s has %d chunks in zone %s (cap %d)", id, n, zone, cap)
			}
		}
	}
}

// TestZoneFailureSurvival fails a whole zone: reads must stay available
// throughout (degraded), and repair must re-protect every block onto the
// surviving zones without exceeding their per-zone caps.
func TestZoneFailureSurvival(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{
		NumSites:     6,
		Zones:        3,
		EnableRepair: true,
		RepairGrace:  -1, // repair immediately after the first failed probe
	})
	ctx := context.Background()

	payloads := make(map[model.BlockID][]byte)
	for i := 0; i < 6; i++ {
		id := model.BlockID(fmt.Sprintf("zf%d", i))
		payloads[id] = blockData(400, byte(i+1))
		if err := c.Client.Put(id, payloads[id]); err != nil {
			t.Fatal(err)
		}
	}

	c.FailZone("z0")

	// Degraded reads: every block must still be readable with the zone down.
	for id, want := range payloads {
		got, err := c.Client.Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %s unreadable during zone outage: %v", id, err)
		}
	}

	// Drive control-plane rounds until repair converges (concurrent
	// repair-site tasks on the same block retry on CAS conflicts).
	failedSites := map[model.SiteID]bool{}
	for _, id := range c.ZoneSites("z0") {
		failedSites[id] = true
	}
	infos := c.Catalog.SiteInfos()
	zcap := model.MaxChunksPerZone(2)
	converged := false
	for round := 0; round < 8 && !converged; round++ {
		c.Tick(ctx)
		converged = true
		for id := range payloads {
			meta, _ := c.Catalog.BlockMeta(id)
			for _, s := range meta.Sites {
				if failedSites[s] {
					converged = false
				}
			}
		}
	}
	if !converged {
		t.Fatal("repair did not move all chunks off the failed zone")
	}
	for id, want := range payloads {
		meta, _ := c.Catalog.BlockMeta(id)
		perZone := map[string]int{}
		for _, s := range meta.Sites {
			perZone[infos[s].Zone]++
		}
		for zone, n := range perZone {
			if n > zcap {
				t.Fatalf("block %s has %d chunks in zone %s after repair (cap %d)", id, n, zone, zcap)
			}
		}
		got, err := c.Client.Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %s unreadable after zone repair: %v", id, err)
		}
	}
}

package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/rpc"
	"ecstore/internal/storage"
)

// repairCluster is a cluster whose repair fires on the first failed probe.
func repairCluster(t *testing.T, cfg ClusterConfig) *Cluster {
	t.Helper()
	cfg.EnableRepair = true
	cfg.RepairGrace = -1
	return newTestCluster(t, cfg)
}

func assertDistinctSites(t *testing.T, c *Cluster, id model.BlockID) {
	t.Helper()
	meta, _ := c.Catalog.BlockMeta(id)
	seen := map[model.SiteID]bool{}
	for _, s := range meta.Sites {
		if seen[s] {
			t.Fatalf("block %s has two chunks on site %d: %v", id, s, meta.Sites)
		}
		seen[s] = true
	}
}

func taskRow(c *Cluster, id string) *model.TaskRecord {
	for _, rec := range c.Catalog.ListTasks() {
		if rec.ID == id {
			return rec
		}
	}
	return nil
}

func TestRepairSiteReconstructsChunks(t *testing.T) {
	c := repairCluster(t, ClusterConfig{NumSites: 8})
	payload := blockData(1200, 3)
	if err := c.Client.Put("blk", payload); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	victim := meta.Sites[1]
	c.FailSite(victim)
	c.Tick(context.Background())

	if got := c.Repair.Repaired(); got != 1 {
		t.Fatalf("Repaired() = %d, want 1", got)
	}
	after, _ := c.Catalog.BlockMeta("blk")
	for _, s := range after.Sites {
		if s == victim {
			t.Fatalf("placement still references failed site: %v", after.Sites)
		}
	}
	assertDistinctSites(t, c, "blk")
	if rec := taskRow(c, repairSiteTaskID(victim)); rec == nil || rec.State != model.TaskDone {
		t.Fatalf("repair-site row = %+v, want done", rec)
	}
	// Data readable even with the failed site still down.
	if got, err := c.Client.Get("blk"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("repaired block unreadable: %v", err)
	}
	// Full redundancy restored: the block survives r more failures.
	c.FailSite(after.Sites[0])
	c.FailSite(after.Sites[1])
	if got, err := c.Client.Get("blk"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("post-repair redundancy insufficient: %v", err)
	}
}

func TestRepairReplicatedBlock(t *testing.T) {
	c := repairCluster(t, ClusterConfig{NumSites: 8, Client: Config{Scheme: model.SchemeReplicated}})
	payload := blockData(500, 5)
	if err := c.Client.Put("blk", payload); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	c.FailSite(meta.Sites[0])
	c.Tick(context.Background())
	if got := c.Repair.Repaired(); got != 1 {
		t.Fatalf("repaired %d copies, want 1", got)
	}
	assertDistinctSites(t, c, "blk")
	if got, err := c.Client.Get("blk"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("repaired replica unreadable: %v", err)
	}
}

func TestRepairUnrepairable(t *testing.T) {
	c := repairCluster(t, ClusterConfig{NumSites: 8})
	if err := c.Client.Put("blk", blockData(400, 2)); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	// Fail 3 of 4 chunk sites: only 1 chunk survives < k=2.
	c.FailSite(meta.Sites[0])
	c.FailSite(meta.Sites[1])
	c.FailSite(meta.Sites[2])
	c.Tick(context.Background())

	rec := taskRow(c, repairSiteTaskID(meta.Sites[0]))
	if rec == nil || rec.State == model.TaskDone || !strings.Contains(rec.LastError, ErrUnrepairable.Error()) {
		t.Fatalf("repair-site row = %+v, want a failed attempt with ErrUnrepairable", rec)
	}
	err := c.Repair.repairBlock(unthrottled{context.Background()}, "blk", meta.Sites[0])
	if !errors.Is(err, ErrUnrepairable) {
		t.Fatalf("err = %v, want ErrUnrepairable", err)
	}
	after, _ := c.Catalog.BlockMeta("blk")
	if after.Version != meta.Version {
		t.Fatal("an unrepairable block's placement changed")
	}
}

func TestRepairSweepHonorsGracePeriod(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 8, EnableRepair: true}) // default 15-minute grace
	now := time.Unix(10_000, 0)
	c.Repair.clock = func() time.Time { return now }
	if err := c.Client.Put("blk", blockData(600, 4)); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	victim := meta.Sites[0]
	c.FailSite(victim)

	// First sweep: marks the failure but must not repair yet.
	c.Tick(context.Background())
	if got := c.Repair.FailedSites(); len(got) != 1 || got[0] != victim {
		t.Fatalf("FailedSites = %v", got)
	}
	if after, _ := c.Catalog.BlockMeta("blk"); after.Version != meta.Version {
		t.Fatal("repair ran before the grace period expired")
	}
	now = now.Add(14 * time.Minute)
	c.Tick(context.Background())
	if after, _ := c.Catalog.BlockMeta("blk"); after.Version != meta.Version {
		t.Fatal("repair ran before the grace period expired")
	}

	// Past the grace period: the sweep enqueues the repair and it runs.
	now = now.Add(2 * time.Minute)
	c.Tick(context.Background())
	after, _ := c.Catalog.BlockMeta("blk")
	for _, s := range after.Sites {
		if s == victim {
			t.Fatal("chunk not relocated after grace expiry")
		}
	}
	// The clock was reset when the site came due: still down, it is not
	// due again until another full grace period has passed.
	if due := c.Repair.DueForRepair(); len(due) != 0 {
		t.Fatalf("site due again immediately: %v", due)
	}
}

func TestRepairSweepClearsRecoveredSite(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 6, EnableRepair: true})
	c.FailSite(3)
	c.Tick(context.Background())
	if len(c.Repair.FailedSites()) != 1 {
		t.Fatal("failure not tracked")
	}
	c.RecoverSite(3)
	c.Tick(context.Background())
	if len(c.Repair.FailedSites()) != 0 {
		t.Fatal("recovered site still tracked as failed")
	}
}

// TestRepairChunkStaleRefIsNoOp: a repair-chunk row whose chunk has since
// moved, or whose block was deleted, completes without touching anything.
func TestRepairChunkStaleRefIsNoOp(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 6, EnableRepair: true})
	ctx := context.Background()
	if err := c.Client.Put("blk", blockData(400, 6)); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	spare := spareSites(6, meta)[0]
	for _, rec := range []*model.TaskRecord{
		{ID: "stale-site", Type: model.TaskTypeRepairChunk, Site: spare, Block: "blk", Chunk: 0, Priority: model.PriorityRepair},
		{ID: "stale-index", Type: model.TaskTypeRepairChunk, Site: meta.Sites[0], Block: "blk", Chunk: 9, Priority: model.PriorityRepair},
		{ID: "gone", Type: model.TaskTypeRepairChunk, Site: 1, Block: "never-existed", Chunk: 0, Priority: model.PriorityRepair},
	} {
		if _, err := c.Tasks.Enqueue(rec); err != nil {
			t.Fatal(err)
		}
	}
	c.Tasks.RunOnce(ctx)
	for _, id := range []string{"stale-site", "stale-index", "gone"} {
		if rec := taskRow(c, id); rec == nil || rec.State != model.TaskDone {
			t.Fatalf("row %s = %+v, want done", id, rec)
		}
	}
	if after, _ := c.Catalog.BlockMeta("blk"); after.Version != meta.Version || c.Repair.Repaired() != 0 {
		t.Fatal("a stale repair-chunk task changed something")
	}
}

// TestRepairChunkInPlaceOrRelocated: a damaged chunk is rewritten on the
// site the placement names while that site is healthy (catalog
// untouched), and relocated through pick + commit when it is not.
func TestRepairChunkInPlaceOrRelocated(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 6, EnableRepair: true})
	ctx := context.Background()
	payload := blockData(400, 8)
	if err := c.Client.Put("blk", payload); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	ref := model.ChunkRef{Block: "blk", Chunk: 0}
	owner := meta.Sites[0]
	enqueue := func() {
		t.Helper()
		if _, err := c.Tasks.Enqueue(&model.TaskRecord{ID: repairChunkTaskID(ref), Type: model.TaskTypeRepairChunk,
			Site: owner, Block: ref.Block, Chunk: ref.Chunk, Priority: model.PriorityRepair}); err != nil {
			t.Fatal(err)
		}
		c.Tasks.RunOnce(ctx)
	}

	if err := c.Services[owner].DeleteChunk(ctx, ref); err != nil {
		t.Fatal(err)
	}
	enqueue()
	if _, err := c.Services[owner].VerifyChunk(ctx, ref); err != nil {
		t.Fatalf("chunk not rewritten in place: %v", err)
	}
	if after, _ := c.Catalog.BlockMeta("blk"); after.Version != meta.Version {
		t.Fatal("in-place rewrite touched the catalog")
	}

	c.FailSite(owner)
	enqueue()
	after, _ := c.Catalog.BlockMeta("blk")
	if after.Sites[0] == owner || after.Version == meta.Version {
		t.Fatalf("chunk not relocated off the failed owner: %v", after.Sites)
	}
	assertDistinctSites(t, c, "blk")
	if _, err := c.Services[after.Sites[0]].VerifyChunk(ctx, ref); err != nil {
		t.Fatalf("relocated chunk missing at site %d: %v", after.Sites[0], err)
	}
	if got, err := c.Client.Get("blk"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("block unreadable after chunk repair: %v", err)
	}
	if got := c.Repair.Repaired(); got != 2 {
		t.Fatalf("Repaired() = %d, want 2", got)
	}
}

// gains returns how many chunks each site holds beyond `before`.
func gains(before, after map[model.SiteID]int) (max int, total int) {
	for id, n := range after {
		if g := n - before[id]; g > 0 {
			total += g
			if g > max {
				max = g
			}
		}
	}
	return max, total
}

// TestRelocationSpread: rebuilding or draining one site's chunks must
// spread them over the survivors — destinations come from the load-aware
// placer's shuffled cold half, not from the head of a sort whose inputs do
// not change during the run. No survivor may gain more than 3x the mean.
func TestRelocationSpread(t *testing.T) {
	const numSites, blocks = 12, 300
	for _, mode := range []string{"repair", "drain"} {
		t.Run(mode, func(t *testing.T) {
			c := repairCluster(t, ClusterConfig{NumSites: numSites})
			ctx := context.Background()
			for i := 0; i < blocks; i++ {
				if err := c.Client.Put(model.BlockID(fmt.Sprintf("s%03d", i)), blockData(64, byte(i))); err != nil {
					t.Fatal(err)
				}
			}
			victim := model.SiteID(1)
			before := c.SiteChunkCounts(ctx)
			lost := before[victim]
			delete(before, victim)
			if mode == "repair" {
				c.FailSite(victim)
			} else if err := c.DrainSite(victim); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 4 && len(c.Catalog.BlocksOnSite(victim)) > 0; round++ {
				c.Tick(ctx)
			}
			if rest := c.Catalog.BlocksOnSite(victim); len(rest) != 0 {
				t.Fatalf("%d blocks still placed on site %d", len(rest), victim)
			}
			after := c.SiteChunkCounts(ctx)
			delete(after, victim)
			max, total := gains(before, after)
			if total != lost {
				t.Fatalf("survivors gained %d chunks, site %d held %d", total, victim, lost)
			}
			mean := float64(total) / float64(numSites-1)
			if float64(max) > 3*mean {
				t.Fatalf("one survivor gained %d of %d relocated chunks (mean %.1f): destinations are not spread", max, total, mean)
			}
		})
	}
}

// zoneCounts returns how many chunks of a block sit in each zone.
func zoneCounts(infos map[model.SiteID]model.SiteInfo, meta *model.BlockMeta) map[string]int {
	out := map[string]int{}
	for _, s := range meta.Sites {
		out[infos[s].Zone]++
	}
	return out
}

// TestRelocationsRespectZoneCap: with 3 zones and RS(2,2) (cap 2 per
// zone), co-access makes co-locating blocks attractive to the mover, a
// site fails and another is drained — and through all of it no committed
// move, repair or drain leaves a block with more than the cap in one
// zone. Nine sites keep an under-cap destination available throughout, so
// the cap never has to relax.
func TestRelocationsRespectZoneCap(t *testing.T) {
	c := repairCluster(t, ClusterConfig{NumSites: 9, Zones: 3, EnableMover: true})
	ctx := context.Background()
	const blocks = 24
	ids := make([]model.BlockID, blocks)
	payloads := make(map[model.BlockID][]byte, blocks)
	for i := range ids {
		ids[i] = model.BlockID(fmt.Sprintf("zc%02d", i))
		payloads[ids[i]] = blockData(600, byte(i+1))
		if err := c.Client.Put(ids[i], payloads[ids[i]]); err != nil {
			t.Fatal(err)
		}
	}
	infos := c.Catalog.SiteInfos()
	zcap := model.MaxChunksPerZone(2)
	checkCap := func(when string) {
		t.Helper()
		for _, id := range ids {
			meta, _ := c.Catalog.BlockMeta(id)
			for zone, n := range zoneCounts(infos, meta) {
				if n > zcap {
					t.Fatalf("%s: block %s has %d chunks in zone %s (cap %d): %v", when, id, n, zone, zcap, meta.Sites)
				}
			}
			assertDistinctSites(t, c, id)
		}
	}
	checkCap("after writes")

	round := 0
	drive := func(rounds int, when string) {
		t.Helper()
		for end := round + rounds; round < end; round++ {
			for q := 0; q < 6; q++ {
				pair := []model.BlockID{ids[(2*q+round)%blocks], ids[(2*q+round+1)%blocks]}
				if _, _, err := c.Client.GetMulti(pair); err != nil {
					t.Fatalf("%s: read %v: %v", when, pair, err)
				}
			}
			c.Tick(ctx)
			checkCap(when)
		}
	}
	drive(60, "mover only")
	if moved, _ := c.Mover.Moves(); moved == 0 {
		t.Fatal("the co-access workload produced no movement; the test exercises nothing")
	}
	c.FailSite(2)
	drive(20, "with site 2 failed")
	if rest := c.Catalog.BlocksOnSite(2); len(rest) != 0 {
		t.Fatalf("repair left %d blocks on the failed site", len(rest))
	}
	if err := c.DrainSite(6); err != nil {
		t.Fatal(err)
	}
	drive(20, "with site 6 draining")
	if st := c.Catalog.SiteInfos()[6].State; st != model.SiteDecommissioned {
		t.Fatalf("site 6 state = %v, want decommissioned", st)
	}
	for id, want := range payloads {
		if got, err := c.Client.Get(id); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %s unreadable at the end: %v", id, err)
		}
	}
}

// TestMoveRevalidatesDestination: a plan whose destination stopped being
// eligible between planning and execution (another chunk of the block
// landed there, its zone filled up, it began draining) is stale, not
// committed.
func TestMoveRevalidatesDestination(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 9, Zones: 3, EnableMover: true})
	tc := unthrottled{context.Background()}
	if err := c.Client.Put("blk", blockData(300, 1)); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	infos := c.Catalog.SiteInfos()
	counts := zoneCounts(infos, meta)
	var full string
	for zone, n := range counts {
		if n == model.MaxChunksPerZone(2) {
			full = zone
		}
	}
	if full == "" {
		t.Fatalf("no zone at its cap: %v", counts)
	}
	chunk := -1 // a chunk outside the full zone: moving it in would exceed the cap
	for i, s := range meta.Sites {
		if infos[s].Zone != full {
			chunk = i
		}
	}
	var overCap, draining model.SiteID
	for _, s := range spareSites(9, meta) {
		if infos[s].Zone == full {
			overCap = s
		} else {
			draining = s
		}
	}
	info := infos[draining]
	info.State = model.SiteDraining
	if err := c.Catalog.SetSiteInfo(info); err != nil {
		t.Fatal(err)
	}
	for name, to := range map[string]model.SiteID{"over-cap zone": overCap, "draining site": draining, "holder": meta.Sites[(chunk+1)%4]} {
		plan := model.MovePlan{Block: "blk", Chunk: chunk, From: meta.Sites[chunk], To: to}
		if err := c.Mover.Execute(tc, plan); !errors.Is(err, ErrStalePlan) {
			t.Fatalf("move to %s (site %d): err = %v, want ErrStalePlan", name, to, err)
		}
	}
	if after, _ := c.Catalog.BlockMeta("blk"); after.Version != meta.Version {
		t.Fatal("an ineligible move was committed")
	}
}

// goldenPlacement is the first 64 results of Client.place(4) on six sites
// for Config{K: 2, R: 2, Seed: 1}, recorded at the commit before the
// shared eligibility rule existed: the rule must not move where writes
// land or how they consume the placer's random stream (the benchmark's
// preload depends on it). "zoned" adds three round-robin zones and marks
// site 6 draining.
var goldenPlacement = map[string]string{
	"flat": "3541 2541 1362 4521 5623 3152 3416 3142 4561 4532 3245 4256 2316 6531 3651 5641 " +
		"2163 6413 4652 3125 1654 4235 2136 4653 4135 4621 3641 6432 2531 6451 1564 5463 " +
		"6423 4236 6431 1526 6531 6153 6342 4652 3465 5241 2356 3521 4632 3642 1243 4562 " +
		"5326 6541 5136 3164 1542 4562 1346 4631 2631 5643 2651 5412 6531 5241 1634 2153",
	"zoned": "4352 3125 4351 1345 4521 5421 2154 4152 4351 3142 5413 2541 4312 5431 4251 2154 " +
		"3145 3251 2435 5241 1243 4513 4352 4513 3125 4152 2314 1243 2315 4153 1342 4135 " +
		"5214 4235 5432 4215 4512 4315 4123 5413 3524 2531 4213 5423 1524 3512 4215 3415 " +
		"4152 4152 3245 3524 3154 1342 3521 3251 2435 1532 5124 4532 2354 4312 4513 4215",
}

func TestGoldenWritePlacement(t *testing.T) {
	for name, want := range goldenPlacement {
		ids := []model.SiteID{1, 2, 3, 4, 5, 6}
		catalog := metadata.NewCatalog(ids)
		apis := map[model.SiteID]storage.SiteAPI{}
		for _, id := range ids {
			apis[id] = storage.NewService(storage.ServiceConfig{Site: id}, storage.NewMemStore())
		}
		deps := Deps{Meta: catalog, Sites: apis}
		if name == "zoned" {
			for i, id := range ids {
				info := model.SiteInfo{ID: id, Zone: fmt.Sprintf("z%d", i%3)}
				if id == 6 {
					info.State = model.SiteDraining
				}
				if err := catalog.SetSiteInfo(info); err != nil {
					t.Fatal(err)
				}
			}
			deps.Zones = catalog.SiteInfos
		}
		c, err := NewClient(Config{K: 2, R: 2, Seed: 1}, deps)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for i := 0; i < 64; i++ {
			sites, err := c.place(4)
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			for _, s := range sites {
				fmt.Fprintf(&sb, "%d", s)
			}
			got = append(got, sb.String())
		}
		c.Close()
		if strings.Join(got, " ") != want {
			t.Errorf("%s write placement moved:\n got %s\nwant %s", name, strings.Join(got, " "), want)
		}
	}
}

// TestResumedRowsComplete: task rows left in the catalog by a daemon of
// the previous commit — same type strings, same ID format, same record
// fields — are picked up and completed by the shared-engine executors.
func TestResumedRowsComplete(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 8, EnableRepair: true, EnableMover: true})
	ctx := context.Background()
	payloads := map[model.BlockID][]byte{}
	for i := 0; i < 6; i++ {
		id := model.BlockID(fmt.Sprintf("r%d", i))
		payloads[id] = blockData(300, byte(i+1))
		if err := c.Client.Put(id, payloads[id]); err != nil {
			t.Fatal(err)
		}
	}
	meta, _ := c.Catalog.BlockMeta("r0")
	failed, drained := model.SiteID(1), model.SiteID(2)
	c.FailSite(failed)
	var moveChunk int
	for i, s := range meta.Sites {
		if s != failed && s != drained {
			moveChunk = i
		}
	}
	var moveTo model.SiteID
	for _, s := range spareSites(8, meta) {
		if s != failed && s != drained {
			moveTo = s
		}
	}
	// Rows exactly as the parent's sources and CLI wrote them; the move
	// row was mid-run when its daemon died.
	rows := []*model.TaskRecord{
		{ID: fmt.Sprintf("repair-site-%d", failed), Type: "repair-site", Site: failed, Priority: 100, State: model.TaskPending},
		{ID: fmt.Sprintf("drain-site-%d", drained), Type: "drain-site", Site: drained, Priority: 60, State: model.TaskPending},
		{ID: fmt.Sprintf("move-%s.%d", "r0", moveChunk), Type: "move", Site: meta.Sites[moveChunk], Dest: moveTo,
			Block: "r0", Chunk: moveChunk, Priority: 20, State: model.TaskRunning, Attempts: 1},
	}
	// One row per pass, the move first: run concurrently, a relocated chunk
	// of the same block could legitimately take the move's destination
	// (finishing the row as stale instead of applying it), and repair and
	// drain could lose a CAS to each other and need another pass.
	for _, rec := range []*model.TaskRecord{rows[2], rows[0], rows[1]} {
		if err := c.Catalog.PutTask(rec); err != nil {
			t.Fatal(err)
		}
		c.Tasks.RunOnce(ctx)
	}

	for _, rec := range rows {
		if got := taskRow(c, rec.ID); got == nil || got.State != model.TaskDone {
			t.Fatalf("row %s = %+v, want done", rec.ID, got)
		}
	}
	if n := len(c.Catalog.BlocksOnSite(failed)) + len(c.Catalog.BlocksOnSite(drained)); n != 0 {
		t.Fatalf("%d block placements left on the repaired and drained sites", n)
	}
	if st := c.Catalog.SiteInfos()[drained].State; st != model.SiteDecommissioned {
		t.Fatalf("drained site state = %v", st)
	}
	if after, _ := c.Catalog.BlockMeta("r0"); after.Sites[moveChunk] != moveTo {
		t.Fatalf("move row not applied: chunk %d on site %d, want %d", moveChunk, after.Sites[moveChunk], moveTo)
	}
	for id, want := range payloads {
		assertDistinctSites(t, c, id)
		if got, err := c.Client.Get(id); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %s unreadable after resumed tasks: %v", id, err)
		}
	}
}

// outageMeta is a metadata.Service whose Lookup can be made to fail the
// way a dead connection or a remote not-found answer does.
type outageMeta struct {
	metadata.Service
	lookupErr atomic.Pointer[error]
}

func (m *outageMeta) Lookup(ids []model.BlockID) (map[model.BlockID]*model.BlockMeta, error) {
	if err := m.lookupErr.Load(); err != nil {
		return nil, *err
	}
	return m.Service.Lookup(ids)
}

// TestMetadataOutageFailsTasksNotFoundFinishesThem: repair-chunk, the
// scrubber's catalog diff and drain all look blocks up. "The block is
// gone" (ErrNotFound in process, a RemoteError over the wire) means there
// is nothing left to do; a transport failure means nothing is known, so
// the task must fail and be retried rather than be marked done with the
// damage forgotten.
func TestMetadataOutageFailsTasksNotFoundFinishesThem(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 6})
	ctx := context.Background()
	if err := c.Client.Put("blk", blockData(400, 3)); err != nil {
		t.Fatal(err)
	}
	placed, _ := c.Catalog.BlockMeta("blk")
	owner := placed.Sites[0]
	ref := model.ChunkRef{Block: "blk", Chunk: 0}
	if err := c.Services[owner].DeleteChunk(ctx, ref); err != nil { // the damage to repair
		t.Fatal(err)
	}

	meta := &outageMeta{Service: c.Catalog}
	apis := make(map[model.SiteID]storage.SiteAPI, len(c.Services))
	for id, svc := range c.Services {
		apis[id] = svc
	}
	sched := NewControl(ClusterConfig{EnableRepair: true}, meta, apis).Tasks
	rows := func() []*model.TaskRecord {
		return []*model.TaskRecord{
			{ID: repairChunkTaskID(ref), Type: model.TaskTypeRepairChunk, Site: owner, Block: "blk", Priority: model.PriorityRepair},
			{ID: scrubSiteTaskID(owner), Type: model.TaskTypeScrubSite, Site: owner, Priority: model.PriorityScrub},
			{ID: drainSiteTaskID(owner), Type: model.TaskTypeDrainSite, Site: owner, Priority: model.PriorityDrain},
		}
	}
	run := func(lookupErr error) {
		t.Helper()
		meta.lookupErr.Store(nil)
		if lookupErr != nil {
			meta.lookupErr.Store(&lookupErr)
		}
		for _, rec := range rows() {
			if _, err := sched.Enqueue(rec); err != nil {
				t.Fatal(err)
			}
		}
		sched.RunOnce(ctx)
	}

	run(errors.New("rpc: connection reset"))
	for _, rec := range rows() {
		got := taskRow(c, rec.ID)
		if got == nil || got.State != model.TaskPending || !strings.Contains(got.LastError, "connection reset") {
			t.Fatalf("metadata outage: row %s = %+v, want a failed attempt awaiting retry", rec.ID, got)
		}
	}
	if _, err := c.Services[owner].VerifyChunk(ctx, ref); err == nil {
		t.Fatal("chunk repaired although the lookup failed")
	}

	// The server answers "no such block": every task finishes, and the
	// drain — finding nothing it can still look up — must not decommission
	// a site the catalog still places blocks on.
	run(&rpc.RemoteError{Msg: metadata.ErrNotFound.Error() + ": blk"})
	for _, rec := range rows()[:2] {
		if got := taskRow(c, rec.ID); got == nil || got.State != model.TaskDone {
			t.Fatalf("not-found: row %s = %+v, want done", rec.ID, got)
		}
	}
	if st := c.Catalog.SiteInfos()[owner].State; st == model.SiteDecommissioned {
		t.Fatal("drain decommissioned a site that still holds placed chunks")
	}

	// With metadata back, the same tasks do the work.
	run(nil)
	if _, err := c.Services[owner].VerifyChunk(ctx, ref); err == nil {
		t.Fatal("drained site still holds the repaired chunk")
	}
	if st := c.Catalog.SiteInfos()[owner].State; st != model.SiteDecommissioned {
		t.Fatalf("site state = %v, want decommissioned", st)
	}
	if got, err := c.Client.Get("blk"); err != nil || !bytes.Equal(got, blockData(400, 3)) {
		t.Fatalf("block unreadable after recovery: %v", err)
	}
}

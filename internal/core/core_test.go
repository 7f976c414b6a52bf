package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/placement"
)

func newTestCluster(t testing.TB, cfg ClusterConfig) *Cluster {
	t.Helper()
	if cfg.NumSites == 0 {
		cfg.NumSites = 8
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// unthrottled is the task context of a test that drives an executor's
// steps directly, outside the scheduler: no byte budget applies.
type unthrottled struct{ context.Context }

func (unthrottled) Throttle(int64) error { return nil }

func blockData(n int, seed byte) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i)*seed + seed
	}
	return d
}

func TestPutGetRoundTripErasure(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	data := blockData(1000, 3)
	if err := c.Client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round-trip mismatch")
	}
}

func TestPutGetRoundTripReplication(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{
		Client: Config{Scheme: model.SchemeReplicated, Strategy: placement.StrategyRandom},
	})
	data := blockData(512, 7)
	if err := c.Client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round-trip mismatch")
	}
	// 3 copies stored.
	counts := c.SiteChunkCounts(context.Background())
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 3 {
		t.Fatalf("stored %d copies, want 3", total)
	}
}

func TestStorageOverheadMatchesPaper(t *testing.T) {
	ec := newTestCluster(t, ClusterConfig{})
	rep := newTestCluster(t, ClusterConfig{
		Client: Config{Scheme: model.SchemeReplicated, Strategy: placement.StrategyRandom},
	})
	data := blockData(4096, 1)
	if err := ec.Client.Put("b", data); err != nil {
		t.Fatal(err)
	}
	if err := rep.Client.Put("b", data); err != nil {
		t.Fatal(err)
	}
	// RS(2,2) stores 2x; replication stores 3x: replication stores 50%
	// more, exactly the paper's comparison.
	ecBytes := ec.TotalStoredBytes()
	repBytes := rep.TotalStoredBytes()
	if ecBytes != 2*int64(len(data)) {
		t.Fatalf("EC stored %d bytes, want %d", ecBytes, 2*len(data))
	}
	if repBytes != 3*int64(len(data)) {
		t.Fatalf("R stored %d bytes, want %d", repBytes, 3*len(data))
	}
	if ec.Client.StorageOverhead() != 2.0 || rep.Client.StorageOverhead() != 3.0 {
		t.Fatal("StorageOverhead values wrong")
	}
}

func TestGetMultiBreakdown(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	var ids []model.BlockID
	for i := 0; i < 5; i++ {
		id := model.BlockID(fmt.Sprintf("b%d", i))
		if err := c.Client.Put(id, blockData(300, byte(i+1))); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	got, bd, err := c.Client.GetMulti(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d blocks", len(got))
	}
	if bd.Total() <= 0 {
		t.Fatalf("breakdown total = %v", bd.Total())
	}
	for _, id := range ids {
		if !bytes.Equal(got[id], blockData(300, byte(id[1]-'0'+1))) {
			t.Fatalf("block %s corrupted", id)
		}
	}
}

func TestGetMultiEmptyAndMissing(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	got, _, err := c.Client.GetMulti(nil)
	if err != nil || got != nil {
		t.Fatalf("empty GetMulti = (%v, %v)", got, err)
	}
	if _, _, err := c.Client.GetMulti([]model.BlockID{"ghost"}); err == nil {
		t.Fatal("missing block read succeeded")
	}
}

func TestDeleteRemovesChunks(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	if err := c.Client.Put("blk", blockData(100, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Client.Delete("blk"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Client.Get("blk"); err == nil {
		t.Fatal("read succeeded after delete")
	}
	counts := c.SiteChunkCounts(context.Background())
	for id, n := range counts {
		if n != 0 {
			t.Fatalf("site %d still holds %d chunks", id, n)
		}
	}
	if err := c.Client.Delete("blk"); err == nil {
		t.Fatal("double delete succeeded")
	}
}

func TestReadSurvivesRFailures(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 8})
	data := blockData(2000, 5)
	if err := c.Client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	meta, ok := c.Catalog.BlockMeta("blk")
	if !ok {
		t.Fatal("metadata missing")
	}
	// Fail r=2 of the 4 chunk sites: the block must stay readable.
	c.FailSite(meta.Sites[0])
	c.FailSite(meta.Sites[2])
	got, err := c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read mismatch")
	}
	// Failing a third chunk site makes it unreadable.
	c.FailSite(meta.Sites[1])
	if _, err := c.Client.Get("blk"); err == nil {
		t.Fatal("read succeeded with k-1 chunks")
	}
	// Recovery restores access.
	c.RecoverSite(meta.Sites[0])
	if _, err := c.Client.Get("blk"); err != nil {
		t.Fatalf("read after recovery: %v", err)
	}
}

func TestReadReplansAroundUnknownFailure(t *testing.T) {
	// The client does NOT know about the failure in advance: the first
	// fetch fails, availability is learned, and the retry succeeds.
	c := newTestCluster(t, ClusterConfig{NumSites: 8})
	data := blockData(1500, 9)
	if err := c.Client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	c.Services[meta.Sites[0]].Fail() // fail behind the client's back
	c.Services[meta.Sites[1]].Fail()
	got, err := c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("mismatch after transparent replan")
	}
}

func TestLateBindingFetchesExtraChunks(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{
		NumSites: 8,
		Client:   Config{Delta: 1, Strategy: placement.StrategyCost},
		Metrics:  reg,
	})
	data := blockData(900, 4)
	if err := c.Client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("late-binding read mismatch")
	}
	// k+delta = 3 chunk reads were planned. The read returns as soon as
	// any k of them land; the surplus request is then either already
	// complete or canceled and discarded, so fetched + discarded must
	// account for all 3 planned reads.
	snap := reg.Snapshot()
	fetched := snap.CounterValue("client_chunks_fetched_total", "")
	discarded := snap.CounterValue("client_late_binding_discarded_total", "")
	if fetched < 2 {
		t.Fatalf("client_chunks_fetched_total = %d, want >= k=2", fetched)
	}
	if fetched+discarded != 3 {
		t.Fatalf("fetched(%d) + discarded(%d) = %d planned reads accounted, want 3",
			fetched, discarded, fetched+discarded)
	}
	// No more than k+delta storage reads were ever issued.
	var reads int64
	for _, svc := range c.Services {
		r, _ := svc.Totals()
		reads += r
	}
	if reads < 2 || reads > 3 {
		t.Fatalf("late binding issued %d chunk reads, want 2..3", reads)
	}
}

func TestMoverRunnerCoLocatesAndPreservesData(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 10, EnableMover: true})
	// Two co-accessed blocks initially scattered.
	a := blockData(800, 1)
	b := blockData(800, 2)
	if err := c.Client.Put("a", a); err != nil {
		t.Fatal(err)
	}
	if err := c.Client.Put("b", b); err != nil {
		t.Fatal(err)
	}
	// Drive a co-access workload and control-plane rounds.
	for i := 0; i < 60; i++ {
		if _, _, err := c.Client.GetMulti([]model.BlockID{"a", "b"}); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			c.Tick(context.Background())
		}
	}
	moved, _ := c.Mover.Moves()
	if moved == 0 {
		t.Skip("no beneficial move found on this layout (placement already co-located)")
	}
	// Data survives movement.
	got, _, err := c.Client.GetMulti([]model.BlockID{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got["a"], a) || !bytes.Equal(got["b"], b) {
		t.Fatal("data corrupted by movement")
	}
	// Fault tolerance preserved.
	for _, id := range []model.BlockID{"a", "b"} {
		meta, _ := c.Catalog.BlockMeta(id)
		seen := map[model.SiteID]bool{}
		for _, s := range meta.Sites {
			if seen[s] {
				t.Fatalf("block %s has two chunks on site %d", id, s)
			}
			seen[s] = true
		}
	}
}

func TestMoverExecuteStalePlan(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 6, EnableMover: true})
	if err := c.Client.Put("a", blockData(100, 1)); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("a")
	stale := model.MovePlan{Block: "a", Chunk: 0, From: 99, To: 5} // wrong From
	if err := c.Mover.Execute(unthrottled{context.Background()}, stale); err == nil {
		t.Fatal("stale plan executed")
	}
	_ = meta
}

func TestClusterSchedulerStartStop(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 6, EnableMover: true, MoverInterval: time.Millisecond})
	c.Start()
	c.Start() // idempotent
	time.Sleep(5 * time.Millisecond)
	c.Close()
	c.Close() // idempotent
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{NumSites: 1}); err == nil {
		t.Fatal("1-site cluster accepted")
	}
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient(Config{}, Deps{}); !errors.Is(err, ErrNoSites) {
		t.Fatalf("err = %v, want ErrNoSites", err)
	}
}

func TestPutEmptyID(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{})
	if err := c.Client.Put("", nil); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestClusterStartStop(t *testing.T) {
	cfg := ClusterConfig{NumSites: 6, EnableMover: true, EnableRepair: true,
		StatsInterval: time.Millisecond, MoverInterval: time.Millisecond}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Client.Put("x", blockData(64, 1)); err != nil {
		t.Fatal(err)
	}
	c.Start()
	time.Sleep(10 * time.Millisecond)
	c.Close()
}

func TestPlanCacheHitRateUnderRepeatedAccess(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 8})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		id := model.BlockID(fmt.Sprintf("b%d", i))
		if err := c.Client.Put(id, blockData(128, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Repeatedly read a small set of request shapes.
	shapes := [][]model.BlockID{
		{"b0", "b1"}, {"b2", "b3"}, {"b4", "b5", "b6"},
	}
	for i := 0; i < 60; i++ {
		q := shapes[rng.Intn(len(shapes))]
		if _, _, err := c.Client.GetMulti(q); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Client.PlannerStats()
	if st.HitRate() < 0.8 {
		t.Fatalf("plan cache hit rate = %.2f, want >= 0.8 (paper reports ~0.9)", st.HitRate())
	}
}

func TestProbeAllUpdatesCostsAndAvailability(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 4})
	c.FailSite(2)
	c.Client.MarkAvailable(2) // pretend we don't know yet
	c.Client.ProbeAll()
	if c.Client.available(2) {
		t.Fatal("probe did not detect failed site")
	}
	if !c.Client.available(1) {
		t.Fatal("healthy site marked failed")
	}
	c.RecoverSite(2)
	c.Client.ProbeAll()
	if !c.Client.available(2) {
		t.Fatal("probe did not clear recovered site")
	}
}

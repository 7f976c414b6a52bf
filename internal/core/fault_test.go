package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/storage"
)

func TestIsSiteFailureClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{storage.ErrChunkNotFound, false},
		{fmt.Errorf("read chunk: %w", storage.ErrChunkNotFound), false},
		{storage.ErrSiteDown, true},
		{context.DeadlineExceeded, true},
		{errors.New("connection reset"), true},
	}
	for _, tc := range cases {
		if got := isSiteFailure(tc.err); got != tc.want {
			t.Errorf("isSiteFailure(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{storage.ErrChunkNotFound, false}, // stale metadata: retrying cannot help
		{context.Canceled, false},         // caller is gone
		{context.DeadlineExceeded, false}, // attempt consumed its deadline
		{storage.ErrSiteDown, true},
		{errors.New("connection reset"), true},
	}
	for _, tc := range cases {
		if got := retryable(tc.err); got != tc.want {
			t.Errorf("retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

// TestPutCleansUpOrphanedChunks: a partial write failure must roll back
// the chunks that did land, so an aborted Put cannot leak storage.
func TestPutCleansUpOrphanedChunks(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{NumSites: 4, Metrics: reg})
	c.Services[3].Fail() // k+r=4 of 4 sites: the placement must include it

	err := c.Client.Put("blk", blockData(1200, 5))
	if err == nil {
		t.Fatal("Put with a dead site succeeded, want error")
	}
	for id, n := range c.SiteChunkCounts(context.Background()) {
		if n != 0 {
			t.Fatalf("site %d kept %d orphaned chunks after failed Put", id, n)
		}
	}
	if n := reg.Snapshot().CounterValue("client_put_cleanups_total", ""); n != 1 {
		t.Fatalf("client_put_cleanups_total = %d, want 1", n)
	}
	// The block never became readable.
	if _, err := c.Client.Get("blk"); err == nil {
		t.Fatal("Get after failed Put succeeded")
	}
}

// TestReplanStopsWhenFailureSetStable: a fetch failure that does not
// implicate any site (stale metadata: the chunk is simply gone) leaves
// the failure set unchanged, so the replan loop must exit immediately
// instead of replaying the same plan len(sites) times.
func TestReplanStopsWhenFailureSetStable(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{NumSites: 4, Metrics: reg})
	data := blockData(1000, 3)
	if err := c.Client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	// Delete 3 of the 4 chunks behind the catalog's back; any plan now
	// trips ErrChunkNotFound, which is not a site failure.
	for i := 0; i < 3; i++ {
		ref := model.ChunkRef{Block: "blk", Chunk: i}
		if err := c.Services[meta.Sites[i]].DeleteChunk(context.Background(), ref); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	_, err := c.Client.Get("blk")
	if !errors.Is(err, ErrBlockUnavailable) {
		t.Fatalf("err = %v, want ErrBlockUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stable-failure read took %v, replan loop did not stop early", elapsed)
	}
	snap := reg.Snapshot()
	if n := snap.CounterValue("client_replans_total", ""); n != 0 {
		t.Fatalf("client_replans_total = %d, want 0 (failure set never changed)", n)
	}
	if un := c.Client.Health().Unavailable(); len(un) != 0 {
		t.Fatalf("missing chunks opened breakers for %v", un)
	}
}

// TestReplanBoundedWhenAllSitesFail: when every site is down, the loop
// replans only while breakers keep opening, then stops on the planner's
// error — it must not iterate once per site with identical plans.
func TestReplanBoundedWhenAllSitesFail(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{NumSites: 6, Metrics: reg})
	if err := c.Client.Put("blk", blockData(1000, 7)); err != nil {
		t.Fatal(err)
	}
	for _, svc := range c.Services {
		svc.Fail() // behind the client's back: breakers learn per fetch
	}
	_, err := c.Client.Get("blk")
	if err == nil {
		t.Fatal("Get with every site down succeeded")
	}
	replans := reg.Snapshot().CounterValue("client_replans_total", "")
	if replans >= 6 {
		t.Fatalf("client_replans_total = %d, want < NumSites (loop must stop early)", replans)
	}
}

// TestMarkFailedExcludesSiteUntilRecovery exercises the breaker /
// planner contract: a site marked failed never appears in a fresh plan,
// and after recovery it is planned again.
func TestMarkFailedExcludesSiteUntilRecovery(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 6})
	data := blockData(1400, 9)
	if err := c.Client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.Catalog.BlockMeta("blk")
	excluded := meta.Sites[0]

	c.Client.MarkFailed(excluded)
	if c.Client.available(excluded) {
		t.Fatal("marked-failed site still available to the planner")
	}
	for i := 0; i < 5; i++ {
		got, err := c.Client.Get("blk")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("read mismatch while site excluded")
		}
	}
	if reads, _ := c.Services[excluded].Totals(); reads != 0 {
		t.Fatalf("failed site served %d reads, want 0 (must not be planned)", reads)
	}

	// Recovery: the site becomes plannable again. Excluding every other
	// chunk holder forces the next plan to use it.
	c.Client.MarkAvailable(excluded)
	if !c.Client.available(excluded) {
		t.Fatal("recovered site still unavailable to the planner")
	}
	for _, s := range meta.Sites[2:] {
		c.Client.MarkFailed(s)
	}
	got, err := c.Client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read mismatch after recovery")
	}
	if reads, _ := c.Services[excluded].Totals(); reads == 0 {
		t.Fatal("recovered site never rejoined planning")
	}
}

// TestHealthTrackerSharedAcrossComponents: the cluster wires one breaker
// set into client, mover and repair, so a failure seen by one component
// is respected by all.
func TestHealthTrackerSharedAcrossComponents(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 4, EnableMover: true, EnableRepair: true})
	if c.Health == nil {
		t.Fatal("cluster has no shared health tracker")
	}
	if c.Client.Health() != c.Health {
		t.Fatal("client does not share the cluster health tracker")
	}
	c.Client.MarkFailed(2)
	meta := &model.BlockMeta{ID: "x", K: 2, R: 2, Sites: []model.SiteID{3, 4, model.NoSite, model.NoSite}}
	for name, ops := range map[string]*relocator{"mover": c.Mover.ops, "repair": c.Repair.ops, "drain": c.drainer.ops} {
		rule := ops.rule(meta, 0)
		if rule.Allows(2) {
			t.Fatalf("%s accepts a destination whose breaker the client opened", name)
		}
		if !rule.Allows(1) {
			t.Fatalf("%s rejects a healthy site", name)
		}
	}
}

// TestRequestTimeoutExpires: a request-level deadline must abort a
// GetMulti whose sites never respond, and count the expiration.
func TestRequestTimeoutExpires(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{
		NumSites: 4,
		Client: Config{
			RequestTimeout: 80 * time.Millisecond,
			// Per-chunk reads are allowed to outlive the request so only
			// the request deadline can end it.
			ChunkTimeout: 10 * time.Second,
		},
		ReadDelayFixed: time.Second, // every read is slower than the request budget
		Metrics:        reg,
	})
	if err := c.Client.Put("blk", blockData(800, 2)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := c.Client.Get("blk")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("request ran %v past its 80ms deadline", elapsed)
	}
	if n := reg.Snapshot().CounterValue("client_deadline_expirations_total", ""); n < 1 {
		t.Fatalf("client_deadline_expirations_total = %d, want >= 1", n)
	}
}

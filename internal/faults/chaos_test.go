package faults_test

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/faults"
	"ecstore/internal/health"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/storage"
)

// chaosCluster wires a core.Client to real in-process storage services,
// each behind a faults.Site wrapper so tests can inject failures per
// site. Everything is seeded, so fault schedules replay deterministically.
type chaosCluster struct {
	catalog  *metadata.Catalog
	services map[model.SiteID]*storage.Service
	wrapped  map[model.SiteID]*faults.Site
	client   *core.Client
	reg      *obs.Registry
}

func newChaosCluster(t *testing.T, numSites int, cfg core.Config, hcfg health.Config) *chaosCluster {
	t.Helper()
	inj := faults.NewInjector(cfg.Seed)
	siteIDs := make([]model.SiteID, numSites)
	for i := range siteIDs {
		siteIDs[i] = model.SiteID(i + 1)
	}
	catalog := metadata.NewCatalog(siteIDs)
	reg := obs.NewRegistry()
	services := make(map[model.SiteID]*storage.Service, numSites)
	wrapped := make(map[model.SiteID]*faults.Site, numSites)
	apis := make(map[model.SiteID]storage.SiteAPI, numSites)
	for _, id := range siteIDs {
		svc := storage.NewService(storage.ServiceConfig{Site: id, Metrics: reg}, storage.NewMemStore())
		services[id] = svc
		wrapped[id] = faults.NewSite(svc, inj)
		apis[id] = wrapped[id]
	}
	hcfg.Metrics = reg
	client, err := core.NewClient(cfg, core.Deps{
		Meta:    catalog,
		Sites:   apis,
		Health:  health.NewTracker(hcfg),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return &chaosCluster{catalog: catalog, services: services, wrapped: wrapped, client: client, reg: reg}
}

func chaosData(n int) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = byte(i * 31)
	}
	return d
}

// TestGetMultiHungSitesWithinTimeoutBudget is the headline chaos
// scenario: r sites hang mid-request (they accept chunk reads but never
// respond). Per-chunk deadlines must bound each hung read to one
// ChunkTimeout, hedged reads must race the stalled ones so a partially
// hung plan completes without waiting out the timeout, the breakers must
// take the hung sites out of the replan, and the whole degraded GetMulti
// must return correct data within twice the per-chunk timeout.
func TestGetMultiHungSitesWithinTimeoutBudget(t *testing.T) {
	const chunkTimeout = 250 * time.Millisecond
	c := newChaosCluster(t, 6, core.Config{
		K: 2, R: 2, Seed: 11,
		ChunkTimeout: chunkTimeout,
		HedgeDelay:   25 * time.Millisecond,
	}, health.Config{})

	data := chaosData(4096)
	if err := c.client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	meta, ok := c.catalog.BlockMeta("blk")
	if !ok {
		t.Fatal("blk not registered")
	}
	// Hang r=2 of the chunk-holding sites: the worst case a correct
	// RS(2,2) read must still survive.
	hung := []model.SiteID{meta.Sites[0], meta.Sites[1]}
	for _, id := range hung {
		c.wrapped[id].Set(faults.Plan{Hang: true})
	}

	start := time.Now()
	blocks, _, err := c.client.GetMulti([]model.BlockID{"blk"})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("degraded GetMulti failed after %v: %v", elapsed, err)
	}
	if !bytes.Equal(blocks["blk"], data) {
		t.Fatal("degraded read returned wrong data")
	}
	if elapsed >= 2*chunkTimeout {
		t.Fatalf("degraded read took %v, want < 2x chunk timeout (%v)", elapsed, 2*chunkTimeout)
	}
	// The hung sites' breakers opened, keeping them out of fresh plans.
	for _, id := range hung {
		if st := c.client.Health().State(id); st != health.Open {
			t.Fatalf("hung site %d breaker = %v, want Open", id, st)
		}
	}
}

// TestFlappingSiteBreakerRecovery drives one site through a full
// fail -> open -> half-open -> closed cycle and checks the planner sees
// it leave and rejoin, all from a seeded injector and explicit plan
// swaps (no real outages), so the schedule is deterministic.
func TestFlappingSiteBreakerRecovery(t *testing.T) {
	const backoff = 40 * time.Millisecond
	c := newChaosCluster(t, 4, core.Config{
		K: 2, R: 2, Seed: 23,
		ChunkTimeout: time.Second,
	}, health.Config{OpenBackoff: backoff})

	data := chaosData(2048)
	if err := c.client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.catalog.BlockMeta("blk")
	flapper := meta.Sites[0]

	// Site starts flapping: every operation fails.
	c.wrapped[flapper].Set(faults.Plan{ErrorRate: 1})
	got, err := c.client.Get("blk")
	if err != nil {
		t.Fatalf("read during flap: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read during flap returned wrong data")
	}
	tr := c.client.Health()
	if st := tr.State(flapper); st != health.Open {
		t.Fatalf("flapping site breaker = %v, want Open", st)
	}
	if tr.Available(flapper) {
		t.Fatal("open breaker still reports the site available to planning")
	}

	// While open, probes are suppressed entirely (no half-open until the
	// backoff elapses), so a failed probe storm cannot keep it open.
	c.client.ProbeAll()
	if st := tr.State(flapper); st != health.Open {
		t.Fatalf("breaker = %v after early probe, want still Open", st)
	}

	// The site heals; once the backoff expires a half-open probe from
	// ProbeAll closes the breaker again.
	c.wrapped[flapper].Set(faults.Plan{})
	deadline := time.Now().Add(5 * time.Second)
	for tr.State(flapper) != health.Closed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed; state = %v", tr.State(flapper))
		}
		time.Sleep(backoff / 2)
		c.client.ProbeAll()
	}
	if !tr.Available(flapper) {
		t.Fatal("closed breaker should report the site available")
	}

	// Reads keep working after recovery.
	if got, err := c.client.Get("blk"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-recovery read: %v", err)
	}

	// The whole cycle is visible in metrics: at least one transition to
	// open, one to half-open and one back to closed, and no breaker
	// remains open.
	snap := c.reg.Snapshot()
	for _, to := range []string{"open", "half-open", "closed"} {
		if n := snap.CounterValue("health_transitions_total", to); n < 1 {
			t.Fatalf("health_transitions_total{to=%q} = %d, want >= 1", to, n)
		}
	}
	if g := snap.GaugeValue("health_open_sites"); g != 0 {
		t.Fatalf("health_open_sites = %d, want 0 after recovery", g)
	}
}

// TestHedgedReadRacesSlowSite checks deadline-triggered hedging: when
// every planned read is slower than the hedge delay, the client fetches
// a not-yet-planned chunk from another site and the hedge metrics show
// the race.
func TestHedgedReadRacesSlowSite(t *testing.T) {
	c := newChaosCluster(t, 6, core.Config{
		K: 2, R: 2, Seed: 31,
		HedgeDelay:   20 * time.Millisecond,
		ChunkTimeout: 2 * time.Second,
	}, health.Config{})

	data := chaosData(4096)
	if err := c.client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.catalog.BlockMeta("blk")
	// Every chunk-holding site is slow; the hedge fires and races them.
	for _, id := range meta.Sites {
		c.wrapped[id].Set(faults.Plan{Latency: 120 * time.Millisecond})
	}
	// One parity site stays fast: hedged reads pick the cheapest
	// unplanned chunk, which must come from one of the slow-free sites.
	fast := meta.Sites[len(meta.Sites)-1]
	c.wrapped[fast].Set(faults.Plan{})

	got, err := c.client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("hedged read returned wrong data")
	}
	snap := c.reg.Snapshot()
	if n := snap.CounterValue("client_hedged_reads_total", ""); n < 1 {
		t.Fatalf("client_hedged_reads_total = %d, want >= 1", n)
	}
	won := snap.CounterValue("client_hedges_won_total", "")
	lost := snap.CounterValue("client_hedges_lost_total", "")
	if won+lost != snap.CounterValue("client_hedged_reads_total", "") {
		t.Fatalf("hedges won(%d)+lost(%d) != launched(%d)", won, lost,
			snap.CounterValue("client_hedged_reads_total", ""))
	}
}

// TestRetriesRecoverFromTransientErrors checks the retry loop: a site
// that fails exactly once per operation succeeds on the second attempt,
// so reads complete without replanning and the retry counter advances.
func TestRetriesRecoverFromTransientErrors(t *testing.T) {
	c := newChaosCluster(t, 4, core.Config{
		K: 2, R: 2, Seed: 47,
		Retry: core.RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond},
	}, health.Config{FailureThreshold: 10})

	data := chaosData(1024)
	if err := c.client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	meta, _ := c.catalog.BlockMeta("blk")
	// Half the operations fail; with 4 attempts per chunk the read still
	// converges (deterministically, from the shared seeded injector).
	for _, id := range meta.Sites {
		c.wrapped[id].Set(faults.Plan{ErrorRate: 0.5})
	}
	got, err := c.client.Get("blk")
	if err != nil {
		t.Fatalf("read with transient errors: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read with transient errors returned wrong data")
	}
	snap := c.reg.Snapshot()
	if n := snap.CounterValue("client_retries_total", ""); n < 1 {
		t.Fatalf("client_retries_total = %d, want >= 1", n)
	}
}

// TestZoneOutageReadsStayAvailable is the whole-zone chaos scenario:
// every site in one zone dies at once while reader goroutines hammer the
// cluster. Reads must stay available throughout the outage (degraded,
// reconstructing from surviving zones), repair must migrate every lost
// chunk onto healthy zones, and reads must still be correct afterward.
// Run under -race this also exercises the scheduler's concurrency caps
// against the foreground read path.
func TestZoneOutageReadsStayAvailable(t *testing.T) {
	cfg := core.ClusterConfig{
		NumSites:     6,
		Zones:        3,
		EnableRepair: true,
		RepairGrace:  -1, // repair immediately after the first failed probe
	}
	cfg.Client.Seed = 53
	c, err := core.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	payloads := make(map[model.BlockID][]byte)
	for i := 0; i < 8; i++ {
		id := model.BlockID(string(rune('a'+i)) + "-blk")
		payloads[id] = chaosData(600 + i)
		if err := c.Client.Put(id, payloads[id]); err != nil {
			t.Fatal(err)
		}
	}

	// Readers hammer every block for the whole outage + repair window.
	stop := make(chan struct{})
	errs := make(chan error, 64)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for id, want := range payloads {
					got, err := c.Client.Get(id)
					if err != nil {
						select {
						case errs <- fmt.Errorf("read %s during outage: %w", id, err):
						default:
						}
						continue
					}
					if !bytes.Equal(got, want) {
						select {
						case errs <- fmt.Errorf("read %s returned wrong data", id):
						default:
						}
					}
				}
			}
		}()
	}

	// The whole zone drops mid-traffic.
	failed := map[model.SiteID]bool{}
	for _, id := range c.ZoneSites("z0") {
		failed[id] = true
	}
	c.FailZone("z0")
	if len(failed) == 0 {
		t.Fatal("zone z0 held no sites")
	}

	// Drive control-plane rounds until repair has moved every chunk off
	// the dead zone (retries absorb CAS conflicts between repair tasks).
	ctx := context.Background()
	converged := false
	for round := 0; round < 10 && !converged; round++ {
		c.Tick(ctx)
		converged = true
		for id := range payloads {
			meta, _ := c.Catalog.BlockMeta(id)
			for _, s := range meta.Sites {
				if failed[s] {
					converged = false
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !converged {
		t.Fatal("repair did not migrate all chunks off the failed zone")
	}
	// Post-repair reads are correct with the zone still down.
	for id, want := range payloads {
		got, err := c.Client.Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("block %s unreadable after zone repair: %v", id, err)
		}
	}
}

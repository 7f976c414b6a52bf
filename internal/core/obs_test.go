package core

import (
	"bytes"
	"context"
	"testing"

	"ecstore/internal/model"
	"ecstore/internal/obs"
)

// TestClusterObservabilityEndToEnd drives a real cluster through Put and
// two Gets and checks that the shared registry saw the whole read path:
// nonzero fetch/decode span counts, per-site storage counters, and the
// plan cache going miss-then-hit (the miss installs its plan before it
// returns, so the second Get must hit).
func TestClusterObservabilityEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{Metrics: reg})

	data := blockData(2000, 5)
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

	snap := reg.Snapshot()
	if h := snap.CounterValue("plan_cache_misses_total", ""); h != 1 {
		t.Fatalf("after first Get: misses = %d, want 1", h)
	}
	if h := snap.CounterValue("plan_cache_hits_total", ""); h != 0 {
		t.Fatalf("after first Get: hits = %d, want 0", h)
	}

	if _, err := c.Client.Get("blk"); err != nil {
		t.Fatal(err)
	}
	snap = reg.Snapshot()
	if h := snap.CounterValue("plan_cache_hits_total", ""); h != 1 {
		t.Fatalf("after second Get: hits = %d, want 1", h)
	}

	// Both reads fetched k chunks from real sites.
	if n := snap.SumCounters("storage_reads_total"); n < 4 {
		t.Fatalf("storage_reads_total = %d, want >= 4 (2 reads x k=2)", n)
	}
	if n := snap.CounterValue("client_requests_total", ""); n != 2 {
		t.Fatalf("client_requests_total = %d, want 2", n)
	}
	if n := snap.CounterValue("client_puts_total", ""); n != 1 {
		t.Fatalf("client_puts_total = %d, want 1", n)
	}
	if n := snap.CounterValue("client_chunks_fetched_total", ""); n < 4 {
		t.Fatalf("client_chunks_fetched_total = %d, want >= 4", n)
	}

	// Per-request tracing: every finished Get folded its spans into the
	// trace_span_seconds family.
	for _, span := range []string{"metadata", "plan", "fetch", "decode"} {
		h, ok := snap.Histogram("trace_span_seconds", span)
		if !ok || h.Count != 2 {
			t.Fatalf("trace_span_seconds{span=%q}: count = %d (present=%v), want 2", span, h.Count, ok)
		}
	}
	if n := snap.CounterValue("traces_total", ""); n != 2 {
		t.Fatalf("traces_total = %d, want 2", n)
	}

	// The most recent trace carries per-site fetch child spans.
	traces := c.Tracer.Recent(1)
	if len(traces) != 1 {
		t.Fatalf("Recent(1) = %d traces", len(traces))
	}
	var siteSpans int
	for _, sp := range traces[0].Spans() {
		if sp.Depth == 2 {
			siteSpans++
		}
	}
	if siteSpans == 0 {
		t.Fatalf("trace has no per-site fetch spans:\n%s", traces[0])
	}

	// Per-phase client histograms observed both reads.
	for _, name := range []string{"client_metadata_seconds", "client_plan_seconds",
		"client_fetch_seconds", "client_decode_seconds", "client_request_seconds"} {
		h, ok := snap.Histogram(name, "")
		if !ok || h.Count != 2 {
			t.Fatalf("%s: count = %d (present=%v), want 2", name, h.Count, ok)
		}
	}
}

// TestLateBindingDiscardCounter checks that a δ>0 read accounts its surplus
// responses as late-binding waste.
func TestLateBindingDiscardCounter(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{
		NumSites: 8,
		Client:   Config{Delta: 2},
		Metrics:  reg,
	})
	if err := c.Client.Put("blk", blockData(1200, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Client.Get("blk"); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	discarded := snap.CounterValue("client_late_binding_discarded_total", "")
	fetched := snap.CounterValue("client_chunks_fetched_total", "")
	if discarded+fetched < 4 { // k + δ planned reads accounted one way or the other
		t.Fatalf("fetched=%d discarded=%d, want total >= k+δ = 4", fetched, discarded)
	}
}

// TestMoverMetricsCount checks mover move counters against the runner's own
// counts after a forced co-location workload.
func TestMoverMetricsCount(t *testing.T) {
	reg := obs.NewRegistry()
	c := newTestCluster(t, ClusterConfig{
		NumSites:    6,
		EnableMover: true,
		Metrics:     reg,
	})
	for i := 0; i < 4; i++ {
		id := model.BlockID(blockName(i))
		if err := c.Client.Put(id, blockData(800, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Drive co-access so the mover has a reason to move, then tick.
	for i := 0; i < 50; i++ {
		if _, _, err := c.Client.GetMulti([]model.BlockID{blockName(0), blockName(1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		c.Tick(context.Background())
	}
	moved, failed := c.Mover.Moves()
	snap := reg.Snapshot()
	if n := snap.CounterValue("mover_moves_total", ""); n != moved {
		t.Fatalf("mover_moves_total = %d, runner says %d", n, moved)
	}
	if n := snap.CounterValue("mover_move_failures_total", ""); n != failed {
		t.Fatalf("mover_move_failures_total = %d, runner says %d", n, failed)
	}
}

func blockName(i int) model.BlockID {
	return model.BlockID([]byte{'b', 'l', 'k', byte('0' + i)})
}

package stats

import (
	"math"
	"testing"

	"ecstore/internal/rpc"
	"ecstore/internal/transport"
)

func startStatsRPC(t *testing.T) (*Client, *Aggregator, func()) {
	t.Helper()
	agg := NewAggregator(100)
	net := transport.NewMemory()
	l, err := net.Listen("stats")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(NewServer(agg))
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()
	conn, err := net.Dial("stats")
	if err != nil {
		t.Fatal(err)
	}
	rc := rpc.NewClient(conn)
	cleanup := func() {
		_ = rc.Close()
		_ = srv.Close()
		<-done
		net.Close()
	}
	return NewClient(rc), agg, cleanup
}

func TestStatsRPCRecordAccessAndPartners(t *testing.T) {
	client, agg, cleanup := startStatsRPC(t)
	defer cleanup()

	for i := 0; i < 4; i++ {
		if err := client.RecordAccess(ids("a", "b")); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.RecordAccess(ids("a", "c")); err != nil {
		t.Fatal(err)
	}

	// Server-side state updated.
	if got := agg.CoAccess.Lambda("a", "b"); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("server λ(a,b) = %v, want 0.8", got)
	}
}

func TestAggregatorDefaults(t *testing.T) {
	agg := NewAggregator(0)
	if agg.CoAccess == nil || agg.Loads == nil || agg.Probes == nil {
		t.Fatal("aggregator components missing")
	}
}

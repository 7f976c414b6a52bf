package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/faults"
	"ecstore/internal/model"
	"ecstore/internal/storage"
)

// probeCounter counts the Probe RPCs one site receives.
type probeCounter struct {
	storage.SiteAPI
	probes atomic.Int64
}

func (p *probeCounter) Probe(ctx context.Context) error {
	p.probes.Add(1)
	return p.SiteAPI.Probe(ctx)
}

// TestControlRoundProbesEachSiteOnce: with repair on, one round sends
// exactly one Probe per site. The repair sweep reads the breakers the
// probe round leaves instead of probing again, and a site whose breaker
// is open is not probed until its backoff admits a recovery probe.
func TestControlRoundProbesEachSiteOnce(t *testing.T) {
	c := newTestCluster(t, ClusterConfig{NumSites: 6})
	ctx := context.Background()
	counted := make(map[model.SiteID]*probeCounter, len(c.Services))
	apis := make(map[model.SiteID]storage.SiteAPI, len(c.Services))
	for id, svc := range c.Services {
		counted[id] = &probeCounter{SiteAPI: svc}
		apis[id] = counted[id]
	}
	ctl := NewControl(ClusterConfig{EnableRepair: true, EnableMover: true, EnableScrub: true}, c.Catalog, apis)
	probed := func(round int, want map[model.SiteID]int64) {
		t.Helper()
		for id, pc := range counted {
			if got := pc.probes.Swap(0); got != want[id] {
				t.Errorf("round %d: site %d got %d probes, want %d", round, id, got, want[id])
			}
		}
	}
	every := func(n int64) map[model.SiteID]int64 {
		want := make(map[model.SiteID]int64, len(counted))
		for id := range counted {
			want[id] = n
		}
		return want
	}

	ctl.Tick(ctx)
	probed(1, every(1))

	const victim = model.SiteID(3)
	c.Services[victim].Fail()
	ctl.Tick(ctx)
	probed(2, every(1))
	if got := ctl.Repair.FailedSites(); len(got) != 1 || got[0] != victim {
		t.Fatalf("after the failed probe, repair tracks %v, want [%d]", got, victim)
	}

	ctl.Tick(ctx)
	want := every(1)
	want[victim] = 0 // open breaker, backoff not expired
	probed(3, want)
	if got := ctl.Repair.FailedSites(); len(got) != 1 || got[0] != victim {
		t.Fatalf("the sweep lost the down site: %v", got)
	}
}

// TestControlAndClientMeasureOInOneUnit: over the same RPC sites, the
// control plane's o_j and a client's come out in the same cost-model
// unit. A fixed per-call delay on every site makes both rounds measure
// about the same round trip.
func TestControlAndClientMeasureOInOneUnit(t *testing.T) {
	d := newDistributedCluster(t, 4, Config{})
	defer d.Close()
	ctx := context.Background()
	slow := make(map[model.SiteID]storage.SiteAPI, len(d.sites))
	for id, api := range d.sites {
		s := faults.NewSite(api, nil)
		s.Set(faults.Plan{Latency: time.Millisecond})
		slow[id] = s
	}
	ctl := NewControl(ClusterConfig{}, d.meta, slow)
	ctl.Tick(ctx)
	client, err := NewClient(Config{}, Deps{Meta: d.meta, Sites: slow})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.ProbeAllContext(ctx)

	for id := range slow {
		fromControl, fromClient := ctl.Probes.O(id, -1), client.probes.O(id, -1)
		if fromControl <= 0 || fromClient <= 0 {
			t.Fatalf("site %d: no o_j sample (control %v, client %v)", id, fromControl, fromClient)
		}
		if r := fromControl / fromClient; r > 10 || r < 0.1 {
			t.Errorf("site %d: control o_j %.4g vs client o_j %.4g, want within 10x", id, fromControl, fromClient)
		}
	}
}

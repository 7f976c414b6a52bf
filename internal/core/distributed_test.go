package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/rpc"
	"ecstore/internal/storage"
	"ecstore/internal/transport"
)

// distributedCluster wires a full RPC deployment over the in-process
// memory network: one metadata server and N storage servers, with the
// client talking to every service through RPC clients — exactly the
// multi-process topology of the cmd/ binaries.
type distributedCluster struct {
	client   *Client
	meta     metadata.Service
	sites    map[model.SiteID]storage.SiteAPI
	services map[model.SiteID]*storage.Service
	cleanup  []func()
}

func (d *distributedCluster) Close() {
	d.client.Close()
	for i := len(d.cleanup) - 1; i >= 0; i-- {
		d.cleanup[i]()
	}
}

func newDistributedCluster(t testing.TB, numSites int, cfg Config) *distributedCluster {
	t.Helper()
	net := transport.NewMemory()
	d := &distributedCluster{services: make(map[model.SiteID]*storage.Service)}
	d.cleanup = append(d.cleanup, net.Close)

	// Metadata service.
	ids := make([]model.SiteID, numSites)
	for i := range ids {
		ids[i] = model.SiteID(i + 1)
	}
	catalog := metadata.NewCatalog(ids)
	metaSrv := rpc.NewServer(metadata.NewServer(catalog))
	l, err := net.Listen("meta")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = metaSrv.Serve(l) }()
	d.cleanup = append(d.cleanup, func() { _ = metaSrv.Close() })

	conn, err := net.Dial("meta")
	if err != nil {
		t.Fatal(err)
	}
	metaRPC := rpc.NewClient(conn)
	d.cleanup = append(d.cleanup, func() { _ = metaRPC.Close() })

	// Storage services.
	sites := make(map[model.SiteID]storage.SiteAPI, numSites)
	for _, id := range ids {
		svc := storage.NewService(storage.ServiceConfig{Site: id}, storage.NewMemStore())
		d.services[id] = svc
		srv := rpc.NewServer(storage.NewRPCServer(svc))
		addr := fmt.Sprintf("site-%d", id)
		l, err := net.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(l) }()
		d.cleanup = append(d.cleanup, func() { _ = srv.Close() })

		conn, err := net.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		rc := rpc.NewClient(conn)
		d.cleanup = append(d.cleanup, func() { _ = rc.Close() })
		sites[id] = storage.NewRPCClient(rc)
	}

	d.meta, d.sites = metadata.NewClient(metaRPC), sites
	client, err := NewClient(cfg, Deps{Meta: d.meta, Sites: sites})
	if err != nil {
		t.Fatal(err)
	}
	d.client = client
	return d
}

func TestDistributedPutGetDelete(t *testing.T) {
	d := newDistributedCluster(t, 6, Config{})
	defer d.Close()

	data := blockData(5000, 3)
	if err := d.client.Put("remote-block", data); err != nil {
		t.Fatal(err)
	}
	got, bd, err := d.client.GetMulti([]model.BlockID{"remote-block"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got["remote-block"], data) {
		t.Fatal("round trip over RPC mismatch")
	}
	if bd.Total() <= 0 {
		t.Fatal("no breakdown recorded")
	}
	if err := d.client.Delete("remote-block"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.client.Get("remote-block"); err == nil {
		t.Fatal("read after delete succeeded over RPC")
	}
}

func TestDistributedDegradedRead(t *testing.T) {
	d := newDistributedCluster(t, 8, Config{})
	defer d.Close()

	data := blockData(3000, 5)
	if err := d.client.Put("blk", data); err != nil {
		t.Fatal(err)
	}
	// Fail two sites behind the client's back; the fetch path must
	// learn about them through RPC errors and replan.
	failed := 0
	for id, svc := range d.services {
		refs, err := svc.ListChunks(context.Background())
		if err != nil {
			continue
		}
		if len(refs) > 0 && failed < 2 {
			svc.Fail()
			failed++
			_ = id
		}
	}
	if failed != 2 {
		t.Fatalf("failed %d sites", failed)
	}
	got, err := d.client.Get("blk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read over RPC mismatch")
	}
}

func TestDistributedMultiBlockWorkload(t *testing.T) {
	d := newDistributedCluster(t, 8, Config{})
	defer d.Close()

	var ids []model.BlockID
	for i := 0; i < 12; i++ {
		id := model.BlockID(fmt.Sprintf("wb-%d", i))
		if err := d.client.Put(id, blockData(800+i*37, byte(i+1))); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for round := 0; round < 6; round++ {
		shape := ids[(round%3)*2 : (round%3)*2+6] // three repeating shapes
		got, _, err := d.client.GetMulti(shape)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 6 {
			t.Fatalf("round %d: %d blocks", round, len(got))
		}
	}
	// The plan cache should be warming over RPC too.
	if st := d.client.PlannerStats(); st.Hits == 0 {
		t.Error("no plan cache hits in repeated workload")
	}
}

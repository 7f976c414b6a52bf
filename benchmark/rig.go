package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/faults"
	"ecstore/internal/gateway"
	"ecstore/internal/health"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/rpc"
	"ecstore/internal/storage"
	"ecstore/internal/transport"
)

// The rig's fixed shape: the paper's RS(2,2) EC+C+LB client over six
// sites, the gateway daemon's defaults in front of it.
const (
	numSites    = 6
	cacheBytes  = 32 << 20
	tenantName  = "bench"
	numClients  = 2 // closed-loop load generators; the host has 2 cores
	loopback    = "127.0.0.1:0"
	probePeriod = time.Second
)

// rig is one real-mode cluster in this process: every hop between
// gateway, metadata service and sites is a loopback TCP connection, the
// catalog logs to a WAL that fsyncs every operation, and sites keep
// chunks in DiskStore directories.
type rig struct {
	dir    string
	rec    *recorder // nil in an untraced rig
	tcp    *transport.TCP
	serves sync.WaitGroup

	catalog *metadata.Catalog
	stores  []*storage.DiskStore
	servers []*rpc.Server
	rpcs    []*rpc.Client
	slow    map[model.SiteID]*faults.Site

	client  *core.Client
	gw      *gateway.Gateway
	gwReg   *obs.Registry
	loaders []*loader

	wireBytes atomic.Int64 // all client-side connections, both directions
	inflight  atomic.Int64 // server-side handlers currently running

	probeStop chan struct{}
	probeWG   sync.WaitGroup
}

// bootRig builds the cluster under dir. slowSites are wrapped with a
// fault injector that forwards untouched until slowDown is called.
func bootRig(ctx context.Context, dir string, rec *recorder, slowSites []model.SiteID) (*rig, error) {
	r := &rig{dir: dir, rec: rec, tcp: &transport.TCP{}, slow: make(map[model.SiteID]*faults.Site)}
	if err := r.boot(ctx, slowSites); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) traced() bool { return r.rec != nil }

// serve runs one RPC server on a fresh loopback port and returns its
// address; close stops it and waits for the accept loop.
func (r *rig) serve(h rpc.Handler, reg *obs.Registry) (string, error) {
	l, err := r.tcp.Listen(loopback)
	if err != nil {
		return "", err
	}
	srv := rpc.NewServer(h)
	srv.SetMetrics(rpc.NewMetrics(reg, "rpc_server"))
	r.servers = append(r.servers, srv)
	r.serves.Add(1)
	go func() {
		defer r.serves.Done()
		_ = srv.Serve(l) // returns when close() closes the server
	}()
	return l.Addr().String(), nil
}

// dial opens one client-side connection, counted in a traced rig.
func (r *rig) dial(ctx context.Context, addr string) (*rpc.Client, error) {
	conn, err := r.tcp.DialContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	if r.traced() {
		conn = countedConn{Conn: conn, bytes: &r.wireBytes}
	}
	rc := rpc.NewClient(conn)
	r.rpcs = append(r.rpcs, rc)
	return rc, nil
}

func (r *rig) handler(h rpc.Handler, l layer, site int32) rpc.Handler {
	if !r.traced() {
		return h
	}
	return &traceHandler{inner: h, rec: r.rec, layer: l, site: site, inflight: &r.inflight}
}

func (r *rig) boot(ctx context.Context, slowSites []model.SiteID) error {
	ids := make([]model.SiteID, numSites)
	for i := range ids {
		ids[i] = model.SiteID(i + 1)
	}

	// Metadata daemon: WAL at its defaults (fsync every operation).
	catalog, err := metadata.Open(filepath.Join(r.dir, "meta"), ids, metadata.WALOptions{})
	if err != nil {
		return fmt.Errorf("open catalog: %w", err)
	}
	r.catalog = catalog
	metaReg := obs.NewRegistry()
	catalog.EnableMetrics(metaReg)
	metaAddr, err := r.serve(r.handler(metadata.NewServer(catalog), layerMetaHandle, 0), metaReg)
	if err != nil {
		return err
	}

	// Site daemons on DiskStore directories.
	siteAddrs := make([]string, numSites)
	for i, id := range ids {
		disk, err := storage.NewDiskStore(filepath.Join(r.dir, fmt.Sprintf("site-%d", id)))
		if err != nil {
			return err
		}
		r.stores = append(r.stores, disk)
		var store storage.Store = disk
		if r.traced() {
			store = &traceStore{Store: disk, rec: r.rec, site: int32(id)}
		}
		reg := obs.NewRegistry()
		svc := storage.NewService(storage.ServiceConfig{Site: id, Metrics: reg}, store)
		siteAddrs[i], err = r.serve(r.handler(storage.NewRPCServer(svc), layerSiteHandle, int32(id)), reg)
		if err != nil {
			return err
		}
	}

	// Gateway daemon: one shared client behind an unlimited default tenant.
	r.gwReg = obs.NewRegistry()
	metaRPC, err := r.dial(ctx, metaAddr)
	if err != nil {
		return err
	}
	var meta metadata.Service = metadata.NewClient(metaRPC)
	if r.traced() {
		meta = &traceMeta{Service: meta, rec: r.rec}
	}
	sites := make(map[model.SiteID]storage.SiteAPI, numSites)
	for i, id := range ids {
		rc, err := r.dial(ctx, siteAddrs[i])
		if err != nil {
			return err
		}
		var api storage.SiteAPI = storage.NewRPCClient(rc)
		for _, s := range slowSites {
			if s == id {
				fs := faults.NewSite(api, faults.NewInjector(int64(id)))
				r.slow[id] = fs
				api = fs
			}
		}
		if r.traced() {
			api = &traceSite{inner: api, rec: r.rec, site: int32(id)}
		}
		sites[id] = api
	}
	const concurrency = 64 // the gateway daemon's default
	pressure := health.NewPressure(2 * concurrency)
	r.client, err = core.NewClient(core.Config{
		K: 2, R: 2,
		Delta:      1, // late binding: the paper's EC+C+LB
		CacheBytes: cacheBytes,
		Seed:       1, // the program's own randomness is not a workload input
	}, core.Deps{Meta: meta, Sites: sites, Metrics: r.gwReg, Tracer: obs.NewTracer(128, r.gwReg), Pressure: pressure})
	if err != nil {
		return fmt.Errorf("build client: %w", err)
	}
	var proxy gateway.Proxy = r.client
	if r.traced() {
		proxy = &traceProxy{inner: r.client, rec: r.rec}
	}
	r.gw = gateway.New(gateway.Config{
		DefaultTenant: &gateway.TenantConfig{RatePerSec: -1},
		Concurrency:   concurrency,
		Metrics:       r.gwReg,
		Pressure:      pressure,
	}, proxy)
	gwAddr, err := r.serve(gateway.NewRPCServer(r.gw, r.gwReg), r.gwReg)
	if err != nil {
		return err
	}

	// Load generators: one gateway connection each.
	for i := 0; i < numClients; i++ {
		rc, err := r.dial(ctx, gwAddr)
		if err != nil {
			return err
		}
		r.loaders = append(r.loaders, &loader{rig: r, gw: gateway.NewRPCClient(rc, tenantName)})
	}

	// The gateway daemon has no probe loop of its own; feed o_j the way
	// core.Cluster.Start does.
	r.probeStop = make(chan struct{})
	r.probeWG.Add(1)
	go func() {
		defer r.probeWG.Done()
		t := time.NewTicker(probePeriod)
		defer t.Stop()
		for {
			select {
			case <-r.probeStop:
				return
			case <-t.C:
				r.client.ProbeAllContext(ctx)
			}
		}
	}()
	return nil
}

// stopProbes ends the probe loop, so a traced pass sees no
// timer-driven traffic and its byte counts repeat.
func (r *rig) stopProbes() {
	if r.probeStop != nil {
		close(r.probeStop)
		r.probeWG.Wait()
		r.probeStop = nil
	}
}

// slowDown turns the wrapped sites into stragglers.
func (r *rig) slowDown(p faults.Plan) {
	for _, fs := range r.slow {
		fs.Set(p)
	}
}

// quiesce waits until no server-side handler is running and no byte
// has crossed a connection for a few polls: late binding abandons its
// surplus read, whose response still arrives afterwards.
func (r *rig) quiesce(ctx context.Context) {
	last, stable := int64(-1), 0
	for stable < 3 && ctx.Err() == nil {
		time.Sleep(5 * time.Millisecond)
		now := r.wireBytes.Load()
		if r.inflight.Load() == 0 && now == last {
			stable++
		} else {
			stable = 0
		}
		last = now
	}
}

// storedBytes sums the chunk payload bytes on every site's disk.
func (r *rig) storedBytes() (int64, error) {
	var total int64
	for _, s := range r.stores {
		n, err := s.Bytes()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// close tears the cluster down in dependency order and waits for every
// goroutine the rig started. Its files stay for the caller to remove.
func (r *rig) close() {
	r.stopProbes()
	if r.client != nil {
		r.client.Close()
	}
	for _, rc := range r.rpcs {
		_ = rc.Close()
	}
	for _, srv := range r.servers {
		_ = srv.Close()
	}
	r.serves.Wait()
	if r.catalog != nil {
		_ = r.catalog.Close()
	}
}

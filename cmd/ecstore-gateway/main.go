// Command ecstore-gateway runs the multi-tenant access daemon: one
// pooled EC-Store client (plan cache, block cache, breakers, hedging)
// multiplexed across tenants behind per-tenant token-bucket rate limits,
// byte quotas and bounded-queue admission control (DESIGN.md §15).
//
//	ecstore-gateway -meta 127.0.0.1:7100 -sites 127.0.0.1:7101,... \
//	    -addr 127.0.0.1:7300 -http 127.0.0.1:8080 \
//	    -tenants "alice:100:200:0,bob:10:10:1048576" -default-rate -1
//
// Tenant specs are name:rate:burst:quota — rate in requests/second
// (-1 = unlimited, 0 = suspended), burst in requests (0 = rate, min 1),
// quota in total bytes transferred (0 = unlimited). Tenants not listed
// fall back to the -default-* contract; with no default, unknown
// tenants are rejected.
//
// The HTTP front serves PUT/GET/DELETE (and ?off=&len= ranges) under
// /v1/blocks/<key> with the tenant taken from the X-EC-Tenant header,
// plus /metrics, /traces and /healthz. The native RPC front speaks the
// same framing as the rest of the cluster.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/gateway"
	"ecstore/internal/health"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/rpc"
	"ecstore/internal/storage"
	"ecstore/internal/transport"
)

// probeInterval is the cadence of the client's probe round, the one the
// benchmark rig drives its own at.
const probeInterval = time.Second

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ecstore-gateway", flag.ContinueOnError)
	addr := fs.String("addr", "", "native RPC listen address (empty = RPC front disabled)")
	httpAddr := fs.String("http", "", "HTTP listen address (empty = HTTP front disabled)")
	metaAddr := fs.String("meta", "127.0.0.1:7100", "metadata server address")
	sitesCSV := fs.String("sites", "", "comma-separated storage site addresses (site 1 first)")
	k := fs.Int("k", 2, "RS data chunks")
	r := fs.Int("r", 2, "RS parity chunks")
	delta := fs.Int("delta", 0, "late-binding surplus chunk requests")
	cacheBytes := fs.Int64("cache-bytes", 0, "decoded-block cache budget in bytes (0 disables the cache)")
	stripeUnit := fs.Int64("stripe-unit", 0, "stripe unit in bytes for streamed puts (0 = 64 KiB default)")
	hedgeDelay := fs.Duration("hedge-delay", 0, "hedge straggling chunk fetches after this delay (0 = off)")
	concurrency := fs.Int("concurrency", 0, "requests proxied concurrently (0 = 64)")
	queueDepth := fs.Int("queue-depth", 0, "admission queue bound (0 = 2x concurrency)")
	tenantsSpec := fs.String("tenants", "", "tenant contracts name:rate:burst:quota, comma-separated")
	defaultRate := fs.Float64("default-rate", 0, "default tenant rate limit in req/s (-1 = unlimited, 0 with no other default knobs = reject unknown tenants)")
	defaultBurst := fs.Float64("default-burst", 0, "default tenant burst (0 = rate, min 1)")
	defaultQuota := fs.Int64("default-quota", 0, "default tenant byte quota (0 = unlimited)")
	metricsAddr := fs.String("metrics-addr", "", "separate HTTP address for /metrics (the HTTP front serves /metrics too)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" && *httpAddr == "" {
		return errors.New("need at least one front: -addr (RPC) or -http")
	}
	if *sitesCSV == "" {
		return errors.New("-sites is required")
	}
	tenants, err := parseTenants(*tenantsSpec)
	if err != nil {
		return err
	}
	var defTenant *gateway.TenantConfig
	if *defaultRate != 0 || *defaultBurst != 0 || *defaultQuota != 0 {
		defTenant = &gateway.TenantConfig{
			RatePerSec: *defaultRate,
			Burst:      *defaultBurst,
			ByteQuota:  *defaultQuota,
		}
	}

	reg := obs.NewRegistry()
	tracer := obs.NewTracer(128, reg)
	tcp := &transport.TCP{Metrics: transport.NewMetrics(reg)}

	conn, err := tcp.Dial(*metaAddr)
	if err != nil {
		return fmt.Errorf("connect metadata: %w", err)
	}
	metaRPC := rpc.NewClient(conn)
	defer func() { _ = metaRPC.Close() }()
	meta := metadata.NewClient(metaRPC)

	sites := make(map[model.SiteID]storage.SiteAPI)
	var rpcClients []*rpc.Client
	defer func() {
		for _, c := range rpcClients {
			_ = c.Close()
		}
	}()
	for i, siteAddr := range strings.Split(*sitesCSV, ",") {
		conn, err := tcp.Dial(strings.TrimSpace(siteAddr))
		if err != nil {
			return fmt.Errorf("connect site %d (%s): %w", i+1, siteAddr, err)
		}
		rc := rpc.NewClient(conn)
		rpcClients = append(rpcClients, rc)
		sites[model.SiteID(i+1)] = storage.NewRPCClient(rc)
	}

	// One shared pressure signal couples the admission queue to the
	// client's hedging policy: under access-tier overload extra chunk
	// fetches only deepen the queues they are meant to dodge.
	qd := *queueDepth
	if qd <= 0 {
		c := *concurrency
		if c <= 0 {
			c = 64
		}
		qd = 2 * c
	}
	pressure := health.NewPressure(qd)

	client, err := core.NewClient(core.Config{
		K:          *k,
		R:          *r,
		Delta:      *delta,
		CacheBytes: *cacheBytes,
		StripeUnit: *stripeUnit,
		HedgeDelay: *hedgeDelay,
	}, core.Deps{Meta: meta, Sites: sites, Metrics: reg, Tracer: tracer, Pressure: pressure})
	if err != nil {
		return err
	}
	defer client.Close()

	// One failed read opens a site's breaker and only a probe success
	// closes it again, and o_j comes from probe round trips alone: without
	// this round a site that hiccups once is out of every plan until the
	// daemon restarts, and the cost model never leaves its defaults.
	probeCtx, stopProbes := context.WithCancel(context.Background())
	probesDone := make(chan struct{})
	go func() {
		defer close(probesDone)
		tick := time.NewTicker(probeInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				client.ProbeAllContext(probeCtx)
			case <-probeCtx.Done():
				return
			}
		}
	}()
	defer func() {
		stopProbes()
		<-probesDone
	}()

	gw := gateway.New(gateway.Config{
		Tenants:       tenants,
		DefaultTenant: defTenant,
		Concurrency:   *concurrency,
		QueueDepth:    *queueDepth,
		Metrics:       reg,
		Pressure:      pressure,
	}, client)

	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Printf("metrics on http://%s/metrics\n", ml.Addr())
		//lint:ignore goleak metrics endpoint serves for the process lifetime by design
		go func() { _ = obs.Serve(ml, reg, tracer) }()
	}

	var httpSrv func() error
	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fmt.Errorf("http listener: %w", err)
		}
		fmt.Printf("ecstore-gateway HTTP on http://%s/v1/blocks/ (%s)\n", hl.Addr(), describeTenants(tenants, defTenant))
		handler := gateway.NewHTTPHandler(gw, reg, tracer)
		httpSrv = func() error { return http.Serve(hl, handler) }
	}

	if *addr != "" {
		l, err := tcp.Listen(*addr)
		if err != nil {
			return err
		}
		fmt.Printf("ecstore-gateway RPC on %s\n", l.Addr())
		srv := rpc.NewServer(gateway.NewRPCServer(gw, reg))
		srv.SetMetrics(rpc.NewMetrics(reg, "rpc_server"))
		if httpSrv != nil {
			//lint:ignore goleak HTTP front serves for the process lifetime by design
			go func() { _ = httpSrv() }()
		}
		return srv.Serve(l)
	}
	return httpSrv()
}

// parseTenants parses the -tenants spec: comma-separated
// name:rate[:burst[:quota]] entries.
func parseTenants(spec string) (map[string]gateway.TenantConfig, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	out := make(map[string]gateway.TenantConfig)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		parts := strings.Split(entry, ":")
		if len(parts) < 2 || len(parts) > 4 {
			return nil, fmt.Errorf("tenant %q: want name:rate[:burst[:quota]]", entry)
		}
		name := strings.TrimSpace(parts[0])
		if name == "" {
			return nil, fmt.Errorf("tenant %q: empty name", entry)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("tenant %q listed twice", name)
		}
		var cfg gateway.TenantConfig
		rate, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("tenant %s: bad rate %q", name, parts[1])
		}
		cfg.RatePerSec = rate
		if len(parts) >= 3 && parts[2] != "" {
			burst, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || burst < 0 {
				return nil, fmt.Errorf("tenant %s: bad burst %q", name, parts[2])
			}
			cfg.Burst = burst
		}
		if len(parts) == 4 && parts[3] != "" {
			quota, err := strconv.ParseInt(parts[3], 10, 64)
			if err != nil || quota < 0 {
				return nil, fmt.Errorf("tenant %s: bad quota %q", name, parts[3])
			}
			cfg.ByteQuota = quota
		}
		out[name] = cfg
	}
	return out, nil
}

// describeTenants renders the tenant table for the startup banner.
func describeTenants(tenants map[string]gateway.TenantConfig, def *gateway.TenantConfig) string {
	switch {
	case len(tenants) == 0 && def == nil:
		return "open access"
	case def == nil:
		return fmt.Sprintf("%d tenants, unknown rejected", len(tenants))
	default:
		return fmt.Sprintf("%d tenants + default contract", len(tenants))
	}
}

package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"ecstore/internal/health"
	"ecstore/internal/model"
	"ecstore/internal/obs"
)

// Rejection sentinels. The HTTP front maps these onto status codes
// (429/403) and the native RPC front carries them as remote errors; in
// process they compose with errors.Is.
var (
	// ErrRateLimited means the tenant's token bucket is empty.
	ErrRateLimited = errors.New("gateway: tenant rate limit exceeded")
	// ErrOverloaded means the admission queue is full: the gateway shed
	// the request instead of queueing it (back off and retry).
	ErrOverloaded = errors.New("gateway: overloaded, request shed")
	// ErrQuotaExhausted means the tenant spent its byte quota.
	ErrQuotaExhausted = errors.New("gateway: tenant byte quota exhausted")
	// ErrUnknownTenant means the tenant is not configured and the
	// gateway has no default tenant policy.
	ErrUnknownTenant = errors.New("gateway: unknown tenant")
)

// Proxy is the slice of core.Client the gateway drives. One Proxy is
// shared by every tenant, so they pool its connections, decoded-block
// cache, circuit breakers and hedging policy. The bytes GetContext and
// GetRange return are shared with that cache and with concurrent
// readers: the gateway and its fronts only read them, and never hand
// them to a buffer pool.
type Proxy interface {
	PutContext(ctx context.Context, id model.BlockID, data []byte) error
	PutReader(ctx context.Context, id model.BlockID, r io.Reader) (int64, error)
	GetContext(ctx context.Context, id model.BlockID) ([]byte, error)
	GetRange(ctx context.Context, id model.BlockID, off, n int64) ([]byte, error)
	DeleteContext(ctx context.Context, id model.BlockID) error
}

// Config tunes a Gateway.
type Config struct {
	// Tenants maps tenant names to their QoS contracts.
	Tenants map[string]TenantConfig
	// DefaultTenant, when non-nil, is the contract applied to tenants
	// not listed in Tenants (each unknown name gets its own bucket and
	// quota on first use). Nil rejects unknown tenants.
	DefaultTenant *TenantConfig
	// Concurrency is how many requests run against the proxy at once.
	// Zero means 64.
	Concurrency int
	// QueueDepth bounds how many admitted requests may wait for a
	// concurrency slot; arrivals beyond it are shed. Zero means
	// 2*Concurrency.
	QueueDepth int
	// Clock abstracts time for deterministic tests; nil uses time.Now.
	Clock func() time.Time
	// Metrics optionally exports the gateway_* family. Nil disables it.
	Metrics *obs.Registry
	// Pressure receives queue-depth and shed signals so the core client
	// can suppress hedging under access-tier overload. Nil allocates a
	// private one (reachable via Pressure()).
	Pressure *health.Pressure
}

// gatewayObs is the gateway's instrument set; every field is nil-safe.
type gatewayObs struct {
	requests   *obs.CounterVec
	admitted   *obs.Counter
	shed       *obs.CounterVec
	queueDepth *obs.Gauge
	inflight   *obs.Gauge
	latency    *obs.HistogramVec
	proxyErrs  *obs.CounterVec
	bytesIn    *obs.Counter
	bytesOut   *obs.Counter
}

func newGatewayObs(reg *obs.Registry) gatewayObs {
	if reg == nil {
		return gatewayObs{}
	}
	return gatewayObs{
		requests:   reg.CounterVec("gateway_requests_total", "op", "requests arriving at the gateway by operation"),
		admitted:   reg.Counter("gateway_admitted_total", "requests that passed rate, quota and queue admission"),
		shed:       reg.CounterVec("gateway_shed_total", "reason", "requests rejected by admission control (rate|queue|quota|tenant)"),
		queueDepth: reg.Gauge("gateway_queue_depth", "admitted requests waiting for a concurrency slot"),
		inflight:   reg.Gauge("gateway_inflight", "requests currently running against the proxy client"),
		latency:    reg.HistogramVec("gateway_request_seconds", "op", "gateway request latency including queue wait"),
		proxyErrs:  reg.CounterVec("gateway_proxy_errors_total", "op", "admitted requests that failed in the proxy client"),
		bytesIn:    reg.Counter("gateway_bytes_in_total", "payload bytes received from tenants"),
		bytesOut:   reg.Counter("gateway_bytes_out_total", "payload bytes returned to tenants"),
	}
}

// Gateway is the multi-tenant access tier over one shared Proxy.
// All methods are safe for concurrent use.
type Gateway struct {
	cfg      Config
	proxy    Proxy
	adm      *admission
	pressure *health.Pressure
	obs      gatewayObs

	mu      sync.Mutex
	tenants map[string]*tenant
}

// New builds a gateway over the shared proxy client.
func New(cfg Config, proxy Proxy) *Gateway {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Pressure == nil {
		cfg.Pressure = health.NewPressure(1)
	}
	g := &Gateway{
		cfg:      cfg,
		proxy:    proxy,
		pressure: cfg.Pressure,
		obs:      newGatewayObs(cfg.Metrics),
		tenants:  make(map[string]*tenant),
	}
	g.adm = newAdmission(cfg.Concurrency, cfg.QueueDepth, func(depth int) {
		g.pressure.SetQueueDepth(depth)
		g.obs.queueDepth.Set(int64(depth))
	})
	now := g.now()
	names := make([]string, 0, len(cfg.Tenants))
	for name := range cfg.Tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g.tenants[name] = newTenant(name, cfg.Tenants[name], now)
	}
	return g
}

func (g *Gateway) now() time.Time { return g.cfg.Clock() }

// Pressure exposes the access-tier load feed, for wiring into
// core.Deps.Pressure so hedging sees gateway overload.
func (g *Gateway) Pressure() *health.Pressure { return g.pressure }

// QueueDepth returns the current admission-queue depth.
func (g *Gateway) QueueDepth() int { return g.adm.queueDepth() }

// Inflight returns how many requests currently hold proxy slots.
func (g *Gateway) Inflight() int { return g.adm.inflight() }

// TenantBytes returns the quota bytes a tenant has spent so far (0 for
// tenants that never connected).
func (g *Gateway) TenantBytes(name string) int64 {
	g.mu.Lock()
	t := g.tenants[name]
	g.mu.Unlock()
	if t == nil {
		return 0
	}
	return t.bytesSpent()
}

// tenantFor resolves a tenant, instantiating the default contract for
// unknown names when one is configured.
func (g *Gateway) tenantFor(name string) (*tenant, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if t, ok := g.tenants[name]; ok {
		return t, nil
	}
	if g.cfg.DefaultTenant == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, name)
	}
	t := newTenant(name, *g.cfg.DefaultTenant, g.now())
	g.tenants[name] = t
	return t, nil
}

func (g *Gateway) shed(reason string) {
	g.obs.shed.With(reason).Inc()
	g.pressure.ReportShed()
}

// admit runs the full admission pipeline for one request: tenant
// resolution, token-bucket rate check, quota-exhaustion check, then the
// bounded-queue slot acquire. On success the caller owns a concurrency
// slot and must call release().
func (g *Gateway) admit(ctx context.Context, tenantName, op string) (*tenant, func(), error) {
	g.obs.requests.With(op).Inc()
	t, err := g.tenantFor(tenantName)
	if err != nil {
		g.shed("tenant")
		return nil, nil, err
	}
	if !t.allowRequest(g.now()) {
		g.shed("rate")
		return nil, nil, fmt.Errorf("%w: tenant %q", ErrRateLimited, tenantName)
	}
	// chargeBytes(0) is a pure budget probe: reject before queueing if
	// the tenant has nothing left to spend.
	if !t.chargeBytes(0) {
		g.shed("quota")
		return nil, nil, fmt.Errorf("%w: tenant %q", ErrQuotaExhausted, tenantName)
	}
	if err := g.adm.acquire(ctx); err != nil {
		if errors.Is(err, ErrOverloaded) {
			g.shed("queue")
		}
		return nil, nil, err
	}
	g.obs.admitted.Inc()
	g.pressure.ReportAdmitted()
	g.obs.inflight.Set(int64(g.adm.inflight()))
	release := func() {
		g.adm.release()
		g.obs.inflight.Set(int64(g.adm.inflight()))
	}
	return t, release, nil
}

func (g *Gateway) observe(op string, start time.Time, err error) {
	g.obs.latency.With(op).Observe(g.now().Sub(start).Seconds())
	if err != nil {
		g.obs.proxyErrs.With(op).Inc()
	}
}

// Put stores a whole block for a tenant.
func (g *Gateway) Put(ctx context.Context, tenantName string, id model.BlockID, data []byte) error {
	start := g.now()
	t, release, err := g.admit(ctx, tenantName, "put")
	if err != nil {
		return err
	}
	defer release()
	if !t.chargeBytes(int64(len(data))) {
		g.shed("quota")
		return fmt.Errorf("%w: tenant %q", ErrQuotaExhausted, tenantName)
	}
	g.obs.bytesIn.Add(int64(len(data)))
	err = g.proxy.PutContext(ctx, id, data)
	g.observe("put", start, err)
	return err
}

// PutReader streams a block in for a tenant. Quota is charged as bytes
// arrive, so a tenant that exhausts its budget mid-stream has the
// upload aborted (the proxy client rolls back partial chunks) instead
// of getting the tail for free.
func (g *Gateway) PutReader(ctx context.Context, tenantName string, id model.BlockID, r io.Reader) (int64, error) {
	start := g.now()
	t, release, err := g.admit(ctx, tenantName, "put")
	if err != nil {
		return 0, err
	}
	defer release()
	qr := &quotaReader{r: r, t: t, obs: &g.obs}
	n, err := g.proxy.PutReader(ctx, id, qr)
	if qr.exhausted {
		g.shed("quota")
		err = fmt.Errorf("%w: tenant %q mid-stream: %w", ErrQuotaExhausted, tenantName, err)
	}
	g.observe("put", start, err)
	return n, err
}

// quotaReader meters an upload against the tenant's byte quota.
type quotaReader struct {
	r         io.Reader
	t         *tenant
	obs       *gatewayObs
	exhausted bool
}

func (q *quotaReader) Read(p []byte) (int, error) {
	n, err := q.r.Read(p)
	if n > 0 {
		q.obs.bytesIn.Add(int64(n))
		if !q.t.chargeBytes(int64(n)) {
			q.exhausted = true
			return 0, ErrQuotaExhausted
		}
	}
	return n, err
}

// Get fetches a whole block for a tenant.
func (g *Gateway) Get(ctx context.Context, tenantName string, id model.BlockID) ([]byte, error) {
	start := g.now()
	t, release, err := g.admit(ctx, tenantName, "get")
	if err != nil {
		return nil, err
	}
	defer release()
	data, err := g.proxy.GetContext(ctx, id)
	if err == nil {
		g.obs.bytesOut.Add(int64(len(data)))
		t.chargeBytes(int64(len(data)))
	}
	g.observe("get", start, err)
	return data, err
}

// GetRange fetches n bytes at offset off of a block for a tenant.
func (g *Gateway) GetRange(ctx context.Context, tenantName string, id model.BlockID, off, n int64) ([]byte, error) {
	start := g.now()
	t, release, err := g.admit(ctx, tenantName, "range")
	if err != nil {
		return nil, err
	}
	defer release()
	data, err := g.proxy.GetRange(ctx, id, off, n)
	if err == nil {
		g.obs.bytesOut.Add(int64(len(data)))
		t.chargeBytes(int64(len(data)))
	}
	g.observe("range", start, err)
	return data, err
}

// Delete removes a block for a tenant.
func (g *Gateway) Delete(ctx context.Context, tenantName string, id model.BlockID) error {
	start := g.now()
	_, release, err := g.admit(ctx, tenantName, "delete")
	if err != nil {
		return err
	}
	defer release()
	err = g.proxy.DeleteContext(ctx, id)
	g.observe("delete", start, err)
	return err
}

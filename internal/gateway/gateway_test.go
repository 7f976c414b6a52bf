package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"ecstore/internal/model"
	"ecstore/internal/obs"
)

// fakeClock is a hand-advanced clock for deterministic bucket tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1700000000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// stubProxy is an in-memory Proxy. When gate is non-nil every data
// operation first announces itself on entered, then blocks until gate
// is closed — the overload tests use that to pin requests in flight.
type stubProxy struct {
	mu      sync.Mutex
	blocks  map[model.BlockID][]byte
	entered chan struct{}
	gate    chan struct{}
	// readChunk bounds each PutReader read, so quota metering sees a
	// stream of segments instead of one big read.
	readChunk int
	err       error // when non-nil, every op fails with it
}

func newStubProxy() *stubProxy {
	return &stubProxy{blocks: make(map[model.BlockID][]byte)}
}

func (p *stubProxy) wait(ctx context.Context) error {
	if p.err != nil {
		return p.err
	}
	if p.gate == nil {
		return nil
	}
	p.entered <- struct{}{}
	select {
	case <-p.gate:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *stubProxy) PutContext(ctx context.Context, id model.BlockID, data []byte) error {
	if err := p.wait(ctx); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocks[id] = append([]byte(nil), data...)
	return nil
}

func (p *stubProxy) PutReader(ctx context.Context, id model.BlockID, r io.Reader) (int64, error) {
	if err := p.wait(ctx); err != nil {
		return 0, err
	}
	chunk := p.readChunk
	if chunk <= 0 {
		chunk = 32 << 10
	}
	var buf bytes.Buffer
	seg := make([]byte, chunk)
	for {
		n, err := r.Read(seg)
		buf.Write(seg[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, fmt.Errorf("stub put-reader: %w", err)
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.blocks[id] = buf.Bytes()
	return int64(buf.Len()), nil
}

func (p *stubProxy) GetContext(ctx context.Context, id model.BlockID) ([]byte, error) {
	if err := p.wait(ctx); err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	data, ok := p.blocks[id]
	if !ok {
		return nil, fmt.Errorf("stub: block %s not found", id)
	}
	return data, nil
}

func (p *stubProxy) GetRange(ctx context.Context, id model.BlockID, off, n int64) ([]byte, error) {
	data, err := p.GetContext(ctx, id)
	if err != nil {
		return nil, err
	}
	if off < 0 || off > int64(len(data)) {
		return nil, fmt.Errorf("stub: range out of bounds")
	}
	end := off + n
	if end > int64(len(data)) {
		end = int64(len(data))
	}
	return data[off:end], nil
}

func (p *stubProxy) DeleteContext(ctx context.Context, id model.BlockID) error {
	if err := p.wait(ctx); err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.blocks, id)
	return nil
}

func TestZeroRateTenant(t *testing.T) {
	clock := newFakeClock()
	gw := New(Config{
		Clock: clock.Now,
		Tenants: map[string]TenantConfig{
			// Zero rate, explicit burst: the tenant gets Burst requests
			// total — the bucket never refills.
			"drained": {RatePerSec: 0, Burst: 2},
			// Zero-value contract: fully suspended.
			"suspended": {},
		},
	}, newStubProxy())
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if err := gw.Put(ctx, "drained", "b", []byte("x")); err != nil {
			t.Fatalf("burst request %d: %v", i, err)
		}
	}
	if err := gw.Put(ctx, "drained", "b", []byte("x")); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("after burst: err = %v, want ErrRateLimited", err)
	}
	// No refill, ever: a day later the tenant is still rate limited.
	clock.Advance(24 * time.Hour)
	if err := gw.Put(ctx, "drained", "b", []byte("x")); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("after a day: err = %v, want ErrRateLimited", err)
	}

	if err := gw.Put(ctx, "suspended", "b", []byte("x")); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("suspended tenant: err = %v, want ErrRateLimited", err)
	}
}

func TestBurstThenSustain(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	gw := New(Config{
		Clock:   clock.Now,
		Metrics: reg,
		Tenants: map[string]TenantConfig{
			"bursty": {RatePerSec: 10, Burst: 5},
		},
	}, newStubProxy())
	ctx := context.Background()

	// Burst: the full bucket drains back-to-back.
	for i := 0; i < 5; i++ {
		if _, err := gw.Get(ctx, "bursty", "b"); errors.Is(err, ErrRateLimited) {
			t.Fatalf("burst request %d rate limited", i)
		}
	}
	if _, err := gw.Get(ctx, "bursty", "b"); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("bucket should be empty, got %v", err)
	}

	// Sustain: at 10 req/s, one token every 100ms — exactly one request
	// per tick passes.
	for tick := 0; tick < 3; tick++ {
		clock.Advance(100 * time.Millisecond)
		if _, err := gw.Get(ctx, "bursty", "b"); errors.Is(err, ErrRateLimited) {
			t.Fatalf("tick %d: sustained request rate limited", tick)
		}
		if _, err := gw.Get(ctx, "bursty", "b"); !errors.Is(err, ErrRateLimited) {
			t.Fatalf("tick %d: second request should be rate limited", tick)
		}
	}

	// A long idle period refills to burst, not beyond.
	clock.Advance(time.Hour)
	for i := 0; i < 5; i++ {
		if _, err := gw.Get(ctx, "bursty", "b"); errors.Is(err, ErrRateLimited) {
			t.Fatalf("post-idle burst request %d rate limited", i)
		}
	}
	if _, err := gw.Get(ctx, "bursty", "b"); !errors.Is(err, ErrRateLimited) {
		t.Fatal("bucket must cap at burst after idle")
	}

	snap := reg.Snapshot()
	if got := snap.CounterValue("gateway_shed_total", "rate"); got == 0 {
		t.Fatal("gateway_shed_total{rate} should be nonzero")
	}
	if got := snap.CounterValue("gateway_admitted_total", ""); got == 0 {
		t.Fatal("gateway_admitted_total should be nonzero")
	}
}

func TestUnknownTenantAndDefault(t *testing.T) {
	clock := newFakeClock()
	gw := New(Config{Clock: clock.Now}, newStubProxy())
	if _, err := gw.Get(context.Background(), "nobody", "b"); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("err = %v, want ErrUnknownTenant", err)
	}

	def := TenantConfig{RatePerSec: 1, Burst: 1}
	gw = New(Config{Clock: clock.Now, DefaultTenant: &def}, newStubProxy())
	ctx := context.Background()
	if err := gw.Put(ctx, "alice", "b", []byte("x")); err != nil {
		t.Fatalf("default-tenant put: %v", err)
	}
	// Each unknown tenant gets its own bucket: alice spent hers, bob
	// still has his.
	if err := gw.Put(ctx, "alice", "b", []byte("x")); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("alice should be rate limited, got %v", err)
	}
	if err := gw.Put(ctx, "bob", "b", []byte("x")); err != nil {
		t.Fatalf("bob's first request: %v", err)
	}
}

func TestQuotaExhaustion(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	gw := New(Config{
		Clock:   clock.Now,
		Metrics: reg,
		Tenants: map[string]TenantConfig{
			"metered": {RatePerSec: -1, ByteQuota: 1000},
		},
	}, newStubProxy())
	ctx := context.Background()

	if err := gw.Put(ctx, "metered", "a", make([]byte, 600)); err != nil {
		t.Fatalf("first put: %v", err)
	}
	// The charge that crosses the budget still lands (600 < 1000 when
	// checked), but afterwards the tenant is out.
	if err := gw.Put(ctx, "metered", "b", make([]byte, 600)); err != nil {
		t.Fatalf("crossing put: %v", err)
	}
	if err := gw.Put(ctx, "metered", "c", []byte("x")); !errors.Is(err, ErrQuotaExhausted) {
		t.Fatalf("exhausted put: err = %v, want ErrQuotaExhausted", err)
	}
	// Reads are rejected too: the quota covers bytes both ways.
	if _, err := gw.Get(ctx, "metered", "a"); !errors.Is(err, ErrQuotaExhausted) {
		t.Fatalf("exhausted get: err = %v, want ErrQuotaExhausted", err)
	}
	if got := gw.TenantBytes("metered"); got != 1200 {
		t.Fatalf("TenantBytes = %d, want 1200", got)
	}
	if got := reg.Snapshot().CounterValue("gateway_shed_total", "quota"); got == 0 {
		t.Fatal("gateway_shed_total{quota} should be nonzero")
	}
}

func TestQuotaExhaustionMidStream(t *testing.T) {
	clock := newFakeClock()
	proxy := newStubProxy()
	proxy.readChunk = 256 // stream in small segments
	gw := New(Config{
		Clock: clock.Now,
		Tenants: map[string]TenantConfig{
			"metered": {RatePerSec: -1, ByteQuota: 1000},
		},
	}, proxy)
	ctx := context.Background()

	// 4 KiB upload against a 1000-byte budget: the stream is cut off
	// mid-flight, not after the whole body lands.
	_, err := gw.PutReader(ctx, "metered", "big", bytes.NewReader(make([]byte, 4096)))
	if !errors.Is(err, ErrQuotaExhausted) {
		t.Fatalf("err = %v, want ErrQuotaExhausted", err)
	}
	if _, ok := proxy.blocks["big"]; ok {
		t.Fatal("aborted upload must not be stored")
	}
	// The tenant was charged only for segments that actually streamed,
	// far less than the full 4 KiB.
	if spent := gw.TenantBytes("metered"); spent >= 4096 {
		t.Fatalf("spent %d bytes, want < 4096 (stream aborted)", spent)
	}
}

func TestOverloadShedsInsteadOfQueueing(t *testing.T) {
	clock := newFakeClock()
	reg := obs.NewRegistry()
	proxy := newStubProxy()
	proxy.blocks["b"] = []byte("v")
	proxy.entered = make(chan struct{}, 16)
	proxy.gate = make(chan struct{})
	gw := New(Config{
		Clock:       clock.Now,
		Metrics:     reg,
		Concurrency: 2,
		QueueDepth:  2,
		Tenants:     map[string]TenantConfig{"t": {RatePerSec: -1}},
	}, proxy)
	ctx := context.Background()

	var wg sync.WaitGroup
	errc := make(chan error, 4)
	// Two requests occupy both concurrency slots...
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := gw.Get(ctx, "t", "b")
			errc <- err
		}()
	}
	for i := 0; i < 2; i++ {
		<-proxy.entered // in flight, holding a slot
	}
	// ...two more wait in the bounded queue...
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := gw.Get(ctx, "t", "b")
			errc <- err
		}()
	}
	waitFor(t, func() bool { return gw.QueueDepth() == 2 })
	if got := reg.Snapshot().GaugeValue("gateway_queue_depth"); got != int64(gw.QueueDepth()) {
		t.Fatalf("gateway_queue_depth = %d while the queue holds %d", got, gw.QueueDepth())
	}

	// ...and the next arrival is shed immediately, without blocking.
	if _, err := gw.Get(ctx, "t", "b"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}

	close(proxy.gate) // drain: the queued requests proceed as slots free up
	wg.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatalf("queued request failed: %v", err)
		}
	}

	snap := reg.Snapshot()
	if got := snap.CounterValue("gateway_shed_total", "queue"); got != 1 {
		t.Fatalf("gateway_shed_total{queue} = %d, want 1", got)
	}
	if gw.QueueDepth() != 0 {
		t.Fatalf("queue depth = %d after drain, want 0", gw.QueueDepth())
	}
}

func TestAbandonedQueueWaitReleasesPosition(t *testing.T) {
	clock := newFakeClock()
	proxy := newStubProxy()
	proxy.blocks["b"] = []byte("v")
	proxy.entered = make(chan struct{}, 16)
	proxy.gate = make(chan struct{})
	gw := New(Config{
		Clock:       clock.Now,
		Concurrency: 1,
		QueueDepth:  1,
		Tenants:     map[string]TenantConfig{"t": {RatePerSec: -1}},
	}, proxy)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = gw.Get(context.Background(), "t", "b")
	}()
	<-proxy.entered

	// A queued request whose caller gives up must free its queue slot.
	ctx, cancel := context.WithCancel(context.Background())
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := gw.Get(ctx, "t", "b")
		if !errors.Is(err, context.Canceled) {
			t.Errorf("abandoned wait: err = %v, want context.Canceled", err)
		}
	}()
	waitFor(t, func() bool { return gw.QueueDepth() == 1 })
	cancel()
	waitFor(t, func() bool { return gw.QueueDepth() == 0 })

	close(proxy.gate)
	wg.Wait()
}

// waitFor polls briefly for an asynchronous condition.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached")
}

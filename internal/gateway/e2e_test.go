package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"ecstore/internal/core"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/wire"
)

func newGatewayCluster(t *testing.T, gwCfg Config) (*Gateway, *core.Cluster) {
	t.Helper()
	cl, err := core.NewCluster(core.ClusterConfig{
		NumSites: 6,
		Client: core.Config{
			K: 2, R: 2, Delta: 1,
			StripeUnit: 1 << 10, // small stripes so PutReader streams many segments
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	gw := New(gwCfg, cl.Client)
	return gw, cl
}

// TestConcurrentTenantsSharedProxy drives many tenants through one
// pooled core.Client at once (run under -race in the full suite): the
// shared cache/breaker state must stay consistent and each
// tenant's accounting must remain isolated.
func TestConcurrentTenantsSharedProxy(t *testing.T) {
	reg := obs.NewRegistry()
	gw, _ := newGatewayCluster(t, Config{
		Metrics:     reg,
		Concurrency: 8,
		QueueDepth:  64,
		Tenants: map[string]TenantConfig{
			"throttled": {RatePerSec: 0, Burst: 3},
		},
		DefaultTenant: &TenantConfig{RatePerSec: -1},
	})
	ctx := context.Background()

	const tenants, opsPerTenant = 6, 12
	var wg sync.WaitGroup
	var failures atomic.Int64
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("tenant-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(len(name))))
			for op := 0; op < opsPerTenant; op++ {
				id := blockID(name, op)
				payload := make([]byte, 512+rng.Intn(2048))
				for b := range payload {
					payload[b] = byte(op)
				}
				if err := gw.Put(ctx, name, id, payload); err != nil {
					t.Errorf("%s put %d: %v", name, op, err)
					failures.Add(1)
					return
				}
				got, err := gw.Get(ctx, name, id)
				if err != nil {
					t.Errorf("%s get %d: %v", name, op, err)
					failures.Add(1)
					return
				}
				if !bytes.Equal(got, payload) {
					t.Errorf("%s block %d: payload mismatch", name, op)
					failures.Add(1)
					return
				}
			}
		}()
	}
	// A rate-limited tenant competes for the same proxy concurrently.
	wg.Add(1)
	var limited atomic.Int64
	go func() {
		defer wg.Done()
		for op := 0; op < 10; op++ {
			err := gw.Put(ctx, "throttled", blockID("throttled", op), []byte("x"))
			if errors.Is(err, ErrRateLimited) {
				limited.Add(1)
			}
		}
	}()
	wg.Wait()

	if failures.Load() != 0 {
		t.Fatalf("%d tenant operations failed", failures.Load())
	}
	if got := limited.Load(); got != 7 {
		t.Fatalf("throttled tenant: %d rate-limited ops, want 7 (burst 3 of 10)", got)
	}
	snap := reg.Snapshot()
	if snap.CounterValue("gateway_admitted_total", "") == 0 {
		t.Fatal("gateway_admitted_total should be nonzero")
	}
	if snap.CounterValue("gateway_shed_total", "rate") == 0 {
		t.Fatal("gateway_shed_total{rate} should be nonzero")
	}
}

func blockID(tenant string, op int) model.BlockID {
	return model.BlockID(fmt.Sprintf("%s/blk-%d", tenant, op))
}

// TestQuotaExhaustionMidStreamRealClient streams an upload through the
// actual core.Client stripe pipeline: the quota trips partway through
// the 64 KiB body, PutReader aborts, and the rollback leaves no
// readable block behind.
func TestQuotaExhaustionMidStreamRealClient(t *testing.T) {
	gw, _ := newGatewayCluster(t, Config{
		Tenants: map[string]TenantConfig{
			"metered": {RatePerSec: -1, ByteQuota: 4 << 10},
		},
	})
	ctx := context.Background()

	body := make([]byte, 64<<10)
	_, err := gw.PutReader(ctx, "metered", "big", bytes.NewReader(body))
	if !errors.Is(err, ErrQuotaExhausted) {
		t.Fatalf("err = %v, want ErrQuotaExhausted", err)
	}
	spent := gw.TenantBytes("metered")
	if spent == 0 || spent >= int64(len(body)) {
		t.Fatalf("spent %d bytes, want mid-stream cutoff in (0, %d)", spent, len(body))
	}
	// The aborted upload must not have committed; unlimited tenants see
	// no trace of it.
	def := TenantConfig{RatePerSec: -1}
	gw2 := New(Config{DefaultTenant: &def}, gwProxy(gw))
	if _, err := gw2.Get(ctx, "reader", "big"); err == nil {
		t.Fatal("aborted upload should not be readable")
	}
}

// gwProxy recovers the shared proxy from a gateway for a second front.
func gwProxy(g *Gateway) Proxy { return g.proxy }

// TestUnboundedRangeOffsets sends ranges whose off+n wraps int64 through
// both fronts at a real client, against a block in each state a range
// read can find it in. At the parent commit the staged and cached blocks
// panicked the process on a slice bound, and the uncached one sent the
// wrapped window to every chunk holder, whose ErrShortChunk answers
// opened their breakers and made the next plain Get infeasible.
func TestUnboundedRangeOffsets(t *testing.T) {
	cl, err := core.NewCluster(core.ClusterConfig{
		NumSites: 6,
		Client:   core.Config{K: 2, R: 2, CacheBytes: 1 << 20, PackThreshold: 64, Seed: 11},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	gw := New(Config{DefaultTenant: &TenantConfig{RatePerSec: -1}}, cl.Client)
	rpcFront := NewRPCServer(gw, nil)
	httpFront := httptest.NewServer(NewHTTPHandler(gw, nil, nil))
	t.Cleanup(httpFront.Close)
	ctx := context.Background()

	payload := bytes.Repeat([]byte("0123456789"), 200)
	for _, id := range []model.BlockID{"uncached", "cached"} {
		if err := gw.Put(ctx, "t", id, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := gw.Put(ctx, "t", "staged", payload[:40]); err != nil { // under PackThreshold: stays in the packer
		t.Fatal(err)
	}
	if _, err := gw.Get(ctx, "t", "cached"); err != nil { // the miss that fills the cache
		t.Fatal(err)
	}

	const hugeOff = math.MaxInt64 - 8
	for _, id := range []string{"uncached", "cached", "staged"} {
		e := wire.NewEncoder(64)
		e.String("t")
		e.String(id)
		e.Uint64(hugeOff)
		e.Uint64(100)
		_, err := rpcFront.Handle(ctx, methodGwRange, e.Bytes())
		if !errors.Is(err, core.ErrRangeOutOfBounds) {
			t.Fatalf("rpc range of %s block: err = %v, want ErrRangeOutOfBounds", id, err)
		}
		for _, q := range []string{"off=9223372036854775800&len=100", "off=-1&len=1", "off=0&len=-1", "off=1&len=9223372036854775807"} {
			resp := doReq(t, http.MethodGet, httpFront.URL+"/v1/blocks/"+id+"?"+q, "t", nil)
			if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
				t.Fatalf("GET %s?%s = %d, want 416", id, q, resp.StatusCode)
			}
		}
	}
	// No site was contacted for any of them, so no breaker moved and the
	// blocks still read whole.
	if down := cl.Client.Health().Unavailable(); len(down) != 0 {
		t.Fatalf("out-of-bounds ranges opened the breakers of sites %v", down)
	}
	for _, id := range []string{"uncached", "cached"} {
		resp := doReq(t, http.MethodGet, httpFront.URL+"/v1/blocks/"+id, "t", nil)
		got, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, payload) {
			t.Fatalf("plain GET %s after the bad ranges = %d, %d bytes", id, resp.StatusCode, len(got))
		}
	}
}

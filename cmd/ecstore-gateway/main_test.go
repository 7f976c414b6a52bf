package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ecstore/internal/gateway"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/rpc"
	"ecstore/internal/storage"
	"ecstore/internal/transport"
)

func TestParseTenants(t *testing.T) {
	got, err := parseTenants("alice:100:200:1048576, bob:-1, carol:0:0")
	if err != nil {
		t.Fatal(err)
	}
	a := got["alice"]
	if a.RatePerSec != 100 || a.Burst != 200 || a.ByteQuota != 1<<20 {
		t.Fatalf("alice = %+v", a)
	}
	if got["bob"].RatePerSec != -1 || got["bob"].ByteQuota != 0 {
		t.Fatalf("bob = %+v", got["bob"])
	}
	c := got["carol"]
	if c.RatePerSec != 0 || c.Burst != 0 {
		t.Fatalf("carol = %+v", c)
	}

	if m, err := parseTenants("  "); err != nil || m != nil {
		t.Fatalf("empty spec = %v, %v", m, err)
	}
	for _, bad := range []string{"noratehere", "x:abc", "x:1:y", "x:1:1:-3", "a:1,a:2", ":5"} {
		if _, err := parseTenants(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bogus flag accepted")
	}
	if err := run([]string{"-sites", "x"}); err == nil {
		t.Fatal("missing fronts accepted")
	}
	if err := run([]string{"-http", "127.0.0.1:0"}); err == nil {
		t.Fatal("missing -sites accepted")
	}
	if err := run([]string{"-http", "127.0.0.1:0", "-sites", "x", "-tenants", "oops"}); err == nil {
		t.Fatal("bad tenant spec accepted")
	}
}

// backendSite is one storage site of startBackend's cluster: its service,
// for failure injection, and a count of the RPCs it has been sent.
type backendSite struct {
	svc   *storage.Service
	calls atomic.Int64
	rpc.Handler
}

func (s *backendSite) Handle(ctx context.Context, m rpc.Method, body []byte) ([]byte, error) {
	s.calls.Add(1)
	return s.Handler.Handle(ctx, m, body)
}

// startBackend brings up a real metadata server and n storage sites over
// TCP, returning their addresses.
func startBackend(t *testing.T, n int) (metaAddr string, siteAddrs []string, sites []*backendSite) {
	t.Helper()
	ids := make([]model.SiteID, n)
	for i := range ids {
		ids[i] = model.SiteID(i + 1)
	}
	catalog := metadata.NewCatalog(ids)
	tcp := &transport.TCP{}

	ml, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	msrv := rpc.NewServer(metadata.NewServer(catalog))
	go msrv.Serve(ml) //lint:ignore goleak test server torn down by Close in cleanup
	t.Cleanup(func() { msrv.Close() })
	metaAddr = ml.Addr().String()

	for _, id := range ids {
		svc := storage.NewService(storage.ServiceConfig{Site: id}, storage.NewMemStore())
		sl, err := tcp.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		site := &backendSite{svc: svc, Handler: storage.NewRPCServer(svc)}
		ssrv := rpc.NewServer(site)
		go ssrv.Serve(sl) //lint:ignore goleak test server torn down by Close in cleanup
		t.Cleanup(func() { ssrv.Close() })
		siteAddrs = append(siteAddrs, sl.Addr().String())
		sites = append(sites, site)
	}
	return metaAddr, siteAddrs, sites
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}

func TestGatewayDaemonHTTPEndToEnd(t *testing.T) {
	metaAddr, siteAddrs, _ := startBackend(t, 4)
	httpAddr := freeAddr(t)

	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-http", httpAddr,
			"-meta", metaAddr,
			"-sites", strings.Join(siteAddrs, ","),
			"-tenants", "blocked:0:0",
			"-default-rate", "-1",
		})
	}()

	base := "http://" + httpAddr
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := client.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		select {
		case e := <-errCh:
			t.Fatalf("daemon exited early: %v", e)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	payload := []byte("through the daemon, erasure coded, over real TCP")
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/blocks/e2e", bytes.NewReader(payload))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put status = %d", resp.StatusCode)
	}

	resp, err = client.Get(base + "/v1/blocks/e2e")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, payload) {
		t.Fatalf("get = %d %q", resp.StatusCode, got)
	}

	resp, err = client.Get(base + "/v1/blocks/e2e?off=12&len=6")
	if err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(got) != "daemon" {
		t.Fatalf("range = %q", got)
	}

	// The suspended tenant is shed with 429 and a Retry-After hint.
	req, _ = http.NewRequest(http.MethodPut, base+"/v1/blocks/x", bytes.NewReader([]byte("y")))
	req.Header.Set("X-EC-Tenant", "blocked")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("blocked tenant status = %d", resp.StatusCode)
	}

	resp, err = client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"gateway_admitted_total", `gateway_shed_total{reason="rate"} 1`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestGatewayDaemonRPCFront(t *testing.T) {
	metaAddr, siteAddrs, _ := startBackend(t, 4)
	rpcAddr := freeAddr(t)

	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{
			"-addr", rpcAddr,
			"-meta", metaAddr,
			"-sites", strings.Join(siteAddrs, ","),
			"-default-rate", "-1",
		})
	}()

	tcp := &transport.TCP{DialTimeout: time.Second}
	var conn net.Conn
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err = tcp.Dial(rpcAddr)
		if err == nil {
			break
		}
		select {
		case e := <-errCh:
			t.Fatalf("daemon exited early: %v", e)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	rc := rpc.NewClient(conn)
	t.Cleanup(func() { rc.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cli := gateway.NewRPCClient(rc, "rpc-tenant")
	if err := cli.Put(ctx, "rpc-blk", []byte("native front over tcp")); err != nil {
		t.Fatal(err)
	}
	got, err := cli.Get(ctx, "rpc-blk")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "native front over tcp" {
		t.Fatalf("get = %q", got)
	}
}

// TestGatewayDaemonProbesSites: the daemon runs the client's probe round
// itself. Idle, every site still sees calls; and a site whose breaker one
// failure opened is probed back into plans once it recovers, where
// before it stayed excluded until the daemon restarted.
func TestGatewayDaemonProbesSites(t *testing.T) {
	metaAddr, siteAddrs, sites := startBackend(t, 4)
	httpAddr := freeAddr(t)
	errCh := make(chan error, 1)
	go func() {
		errCh <- run([]string{"-http", httpAddr, "-meta", metaAddr, "-sites", strings.Join(siteAddrs, ","), "-default-rate", "-1"})
	}()
	base := "http://" + httpAddr
	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) (int, string) {
		resp, err := client.Get(base + path)
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	// waitFor polls cond until it holds; every wait below is for the
	// daemon's own background round, which nothing here can trigger.
	waitFor := func(what string, limit time.Duration, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(limit)
		for !cond() {
			select {
			case e := <-errCh:
				t.Fatalf("daemon exited: %v", e)
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitFor("the daemon to come up", 5*time.Second, func() bool { code, _ := get("/healthz"); return code == http.StatusOK })

	payload := bytes.Repeat([]byte("probe me "), 100)
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/blocks/blk", bytes.NewReader(payload))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("put status = %d", resp.StatusCode)
	}

	// Idle daemon: the only calls a site can see are probes.
	idle := make([]int64, len(sites))
	for i, s := range sites {
		idle[i] = s.calls.Load()
	}
	waitFor("two probe rounds at every site", 5*time.Second, func() bool {
		for i, s := range sites {
			if s.calls.Load() < idle[i]+2 {
				return false
			}
		}
		return true
	})

	openSites := func(n string) bool {
		_, body := get("/metrics")
		return strings.Contains(body, "gauge health_open_sites "+n+"\n")
	}
	sites[0].svc.Fail()
	waitFor("site 1's breaker to open", 5*time.Second, func() bool { return openSites("1") })
	sites[0].svc.Recover()
	waitFor("a probe to close site 1's breaker", 15*time.Second, func() bool { return openSites("0") })

	// With sites 2 and 3 down, RS(2,2) over four sites can only be read
	// through site 1: it is back in plans, or this fails as infeasible.
	sites[1].svc.Fail()
	sites[2].svc.Fail()
	before, _ := sites[0].svc.Totals()
	if code, body := get("/v1/blocks/blk"); code != http.StatusOK || body != string(payload) {
		t.Fatalf("GET with only sites 1 and 4 up = %d %q", code, body)
	}
	if after, _ := sites[0].svc.Totals(); after == before {
		t.Fatal("the recovered site served no read")
	}
}

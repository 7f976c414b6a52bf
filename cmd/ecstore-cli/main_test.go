package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/rpc"
	"ecstore/internal/storage"
	"ecstore/internal/transport"
)

// startTCPCluster boots a metadata server and n storage servers on
// loopback TCP and returns (metaAddr, sitesCSV).
func startTCPCluster(t *testing.T, n int) (string, string) {
	t.Helper()
	tcp := &transport.TCP{}

	ids := make([]model.SiteID, n)
	for i := range ids {
		ids[i] = model.SiteID(i + 1)
	}
	metaL, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	catalog := metadata.NewCatalog(ids)
	catalog.EnableMetrics(obs.NewRegistry())
	metaSrv := rpc.NewServer(metadata.NewServer(catalog))
	go func() { _ = metaSrv.Serve(metaL) }()
	t.Cleanup(func() { _ = metaSrv.Close() })

	var addrs []string
	for _, id := range ids {
		l, err := tcp.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		svc := storage.NewService(storage.ServiceConfig{
			Site:    id,
			Metrics: obs.NewRegistry(),
		}, storage.NewMemStore())
		srv := rpc.NewServer(storage.NewRPCServer(svc))
		go func() { _ = srv.Serve(l) }()
		t.Cleanup(func() { _ = srv.Close() })
		addrs = append(addrs, l.Addr().String())
	}
	return metaL.Addr().String(), strings.Join(addrs, ",")
}

func TestCLIPutGetDelStat(t *testing.T) {
	metaAddr, sites := startTCPCluster(t, 4)

	payload := []byte("cli round trip payload")
	file := filepath.Join(t.TempDir(), "in.bin")
	if err := os.WriteFile(file, payload, 0o644); err != nil {
		t.Fatal(err)
	}

	base := []string{"-meta", metaAddr, "-sites", sites}
	if err := run(append(base, "put", "k1", file)); err != nil {
		t.Fatalf("put: %v", err)
	}

	// Capture stdout of get.
	old := os.Stdout
	rPipe, wPipe, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wPipe
	getErr := run(append(base, "get", "k1"))
	_ = wPipe.Close()
	os.Stdout = old
	if getErr != nil {
		t.Fatalf("get: %v", getErr)
	}
	got := make([]byte, len(payload)+64)
	nRead, _ := rPipe.Read(got)
	if string(got[:nRead]) != string(payload) {
		t.Fatalf("get returned %q", got[:nRead])
	}

	if err := run(append(base, "stat")); err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := run(append(base, "del", "k1")); err != nil {
		t.Fatalf("del: %v", err)
	}
	if err := run(append(base, "get", "k1")); err == nil {
		t.Fatal("get after del succeeded")
	}
}

func TestCLIStatsSubcommand(t *testing.T) {
	metaAddr, sites := startTCPCluster(t, 4)
	base := []string{"-meta", metaAddr, "-sites", sites}

	payload := []byte("stats subcommand payload that spans several chunks")
	file := filepath.Join(t.TempDir(), "in.bin")
	if err := os.WriteFile(file, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "put", "k1", file)); err != nil {
		t.Fatalf("put: %v", err)
	}

	old := os.Stdout
	rPipe, wPipe, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wPipe
	statsErr := run(append(base, "stats"))
	_ = wPipe.Close()
	os.Stdout = old
	if statsErr != nil {
		t.Fatalf("stats: %v", statsErr)
	}
	out, err := io.ReadAll(rPipe)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"== sites ==", "writes=", "== metadata ==", "registers=1", "plan cache:"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	// The put stored k+r=4 chunks, one per site.
	if !strings.Contains(string(out), "writes=1") {
		t.Errorf("expected per-site write counts in output:\n%s", out)
	}

	// -full appends the raw metric dump.
	rPipe, wPipe, err = os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = wPipe
	statsErr = run(append(base, "stats", "-full"))
	_ = wPipe.Close()
	os.Stdout = old
	if statsErr != nil {
		t.Fatalf("stats -full: %v", statsErr)
	}
	out, _ = io.ReadAll(rPipe)
	if !strings.Contains(string(out), "counter storage_writes_total") {
		t.Errorf("stats -full missing raw dump:\n%s", out)
	}
}

func TestCLIUsageErrors(t *testing.T) {
	metaAddr, sites := startTCPCluster(t, 4)
	base := []string{"-meta", metaAddr, "-sites", sites}

	cases := [][]string{
		{},                         // no command
		append(base, "put"),        // missing args
		append(base, "get"),        // missing key
		append(base, "del"),        // missing key
		append(base, "frobnicate"), // unknown command
		{"-sites", "", "get", "k"}, // missing sites
		append(base, "put", "k", "/does/not/exist"),
	}
	for i, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("case %d: expected error for %v", i, args)
		}
	}
}

func TestCLIConnectErrors(t *testing.T) {
	// Unreachable metadata server: pick a port nothing listens on.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	_ = l.Close()
	time.Sleep(10 * time.Millisecond)
	err = run([]string{"-meta", dead, "-sites", dead, "get", "x"})
	if err == nil {
		t.Fatal("connected to dead address")
	}
	_ = fmt.Sprintf("%v", err)
}

package main

import (
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/rpc"
	"ecstore/internal/stats"
	"ecstore/internal/storage"
	"ecstore/internal/transport"
)

// startMeta serves a fresh 4-site catalog over loopback TCP and returns
// the catalog and its address.
func startMeta(t *testing.T) (*metadata.Catalog, string) {
	t.Helper()
	catalog := metadata.NewCatalog([]model.SiteID{1, 2, 3, 4})
	l, err := (&transport.TCP{}).Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer(metadata.NewServer(catalog))
	go srv.Serve(l) //lint:ignore goleak test server torn down by Close in cleanup
	t.Cleanup(func() { srv.Close() })
	return catalog, l.Addr().String()
}

// runOutput runs the command with stdout captured.
func runOutput(t *testing.T, args ...string) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestDrainEnqueuesTaskThatTasksLists(t *testing.T) {
	catalog, addr := startMeta(t)

	if _, err := runOutput(t, "drain", "-meta", addr, "-site", "2"); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := catalog.SiteInfos()[2].State; st != model.SiteDraining {
		t.Fatalf("site 2 state = %v, want draining", st)
	}
	recs := catalog.ListTasks()
	if len(recs) != 1 || recs[0].Type != model.TaskTypeDrainSite || recs[0].Site != 2 {
		t.Fatalf("task table = %+v, want one drain-site row for site 2", recs)
	}

	out, err := runOutput(t, "tasks", "-meta", addr)
	if err != nil {
		t.Fatalf("tasks: %v", err)
	}
	if !strings.Contains(out, recs[0].ID) || !strings.Contains(out, model.TaskTypeDrainSite) {
		t.Fatalf("tasks output does not list %s:\n%s", recs[0].ID, out)
	}
}

// startSites serves n fresh in-memory storage sites over loopback TCP and
// returns their addresses, site 1 first.
func startSites(t *testing.T, n int) []string {
	t.Helper()
	var addrs []string
	for i := 1; i <= n; i++ {
		svc := storage.NewService(storage.ServiceConfig{Site: model.SiteID(i)}, storage.NewMemStore())
		l, err := (&transport.TCP{}).Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer(storage.NewRPCServer(svc))
		go srv.Serve(l) //lint:ignore goleak test server torn down by Close in cleanup
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, l.Addr().String())
	}
	return addrs
}

// TestDaemonProbesAndCollectsLoads boots the daemon against a loopback
// catalog and four sites. Its probe round counts one probe observation
// and one load report per site in the statistics service, read back over
// GetMetrics as `ecstore-cli stats -control` does.
func TestDaemonProbesAndCollectsLoads(t *testing.T) {
	_, metaAddr := startMeta(t)
	d, err := startDaemon([]string{
		"-addr", "127.0.0.1:0",
		"-meta", metaAddr,
		"-sites", strings.Join(startSites(t, 4), ","),
		"-stats-interval", "50ms",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	conn, err := (&transport.TCP{}).Dial(d.addr.String())
	if err != nil {
		t.Fatal(err)
	}
	rc := rpc.NewClient(conn)
	defer rc.Close()
	statsClient := stats.NewClient(rc)
	var probes, loads int64
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		snap, err := statsClient.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		probes = snap.CounterValue("stats_probe_observations_total", "")
		loads = snap.CounterValue("stats_load_reports_total", "")
		if probes >= 4 && loads >= 4 {
			return
		}
	}
	t.Fatalf("after 5s: %d probe observations and %d load reports, want >= 4 each", probes, loads)
}

func TestRunArgumentErrors(t *testing.T) {
	_, addr := startMeta(t)
	// An unknown subcommand is named, wherever it sits among the flags.
	for _, args := range [][]string{
		{"bogus"},
		{"-sites", "127.0.0.1:1", "bogus"},
	} {
		if _, err := runOutput(t, args...); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
			t.Errorf("run(%q) = %v, want an unknown-subcommand error", args, err)
		}
	}
	for _, args := range [][]string{
		{"-bogus"},
		{"drain", "-bogus"},
		{"drain", "-meta", addr},
		{"scrub", "-bogus"},
		{"tasks", "-bogus"},
	} {
		if _, err := runOutput(t, args...); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}

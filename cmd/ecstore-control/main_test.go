package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/rpc"
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

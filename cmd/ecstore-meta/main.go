// Command ecstore-meta runs the EC-Store metadata service (the control
// plane's block catalog) over TCP. With -wal-dir the catalog is
// write-ahead logged and crash-safe to the last group commit; without it
// the catalog is volatile.
//
//	ecstore-meta -addr 127.0.0.1:7100 -sites 4 -wal-dir /var/lib/ecstore/meta
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"

	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/rpc"
	"ecstore/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ecstore-meta", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7100", "listen address")
	numSites := fs.Int("sites", 4, "number of storage sites (ids 1..n)")
	walDir := fs.String("wal-dir", "", "directory for the partitioned write-ahead log (empty = volatile catalog)")
	walPartitions := fs.Int("wal-partitions", metadata.DefaultPartitions, "catalog partition count (WAL mode; safe to change across restarts)")
	walFsync := fs.Duration("wal-fsync-interval", 0, "group-commit window: 0 fsyncs every operation; >0 batches fsyncs and bounds loss on power failure to the window")
	walCompact := fs.Int64("wal-compact-bytes", 8<<20, "per-partition WAL bytes between snapshot+truncate compactions")
	metricsAddr := fs.String("metrics-addr", "", "HTTP address for /metrics (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *numSites < 2 {
		return fmt.Errorf("need at least 2 sites, got %d", *numSites)
	}

	catalog, err := openCatalog(*numSites, *walDir, metadata.WALOptions{
		Partitions:    *walPartitions,
		FsyncInterval: *walFsync,
		CompactBytes:  *walCompact,
	})
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	catalog.EnableMetrics(reg)

	tcp := &transport.TCP{Metrics: transport.NewMetrics(reg)}
	l, err := tcp.Listen(*addr)
	if err != nil {
		return err
	}
	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Printf("metrics on http://%s/metrics\n", ml.Addr())
		//lint:ignore goleak metrics endpoint serves for the process lifetime by design
		go func() { _ = obs.Serve(ml, reg, nil) }()
	}
	fmt.Printf("ecstore-meta serving on %s (%d sites, %d blocks loaded, %d partitions)\n",
		l.Addr(), *numSites, catalog.Len(), catalog.Partitions())
	srv := rpc.NewServer(metadata.NewServer(catalog))
	srv.SetMetrics(rpc.NewMetrics(reg, "rpc_server"))

	// Every acknowledged mutation is already durable (or within the
	// group-commit window) in WAL mode; shutdown just flushes and releases
	// the logs. Close is a no-op for a volatile catalog.
	serveErr := make(chan error, 1)
	//lint:ignore goleak accept loop; srv.Close on signal makes Serve return into the buffered channel
	go func() { serveErr <- srv.Serve(l) }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
		_ = srv.Close()
		<-serveErr
		return catalog.Close()
	case err := <-serveErr:
		if closeErr := catalog.Close(); closeErr != nil {
			log.Printf("wal close: %v", closeErr)
		}
		return err
	}
}

// openCatalog opens the WAL-backed catalog when walDir is set and
// otherwise starts a fresh volatile one.
func openCatalog(numSites int, walDir string, walOpts metadata.WALOptions) (*metadata.Catalog, error) {
	ids := make([]model.SiteID, numSites)
	for i := range ids {
		ids[i] = model.SiteID(i + 1)
	}
	if walDir != "" {
		return metadata.Open(walDir, ids, walOpts)
	}
	return metadata.NewCatalog(ids), nil
}

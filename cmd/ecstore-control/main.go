// Command ecstore-control runs EC-Store's control plane for a distributed
// deployment: the statistics service (served over RPC for clients to
// report accesses), periodic load collection and o_j probing of every
// storage site, and the unified background task scheduler that executes
// chunk movement, failure repair, checksum scrubbing and site drains.
//
//	ecstore-control -addr 127.0.0.1:7105 \
//	  -meta 127.0.0.1:7100 \
//	  -sites 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103,127.0.0.1:7104 \
//	  -mover -repair -scrub
//
// Administrative subcommands talk to the metadata server's durable task
// table, which the daemon's scheduler polls — so they work whether or not
// the daemon runs on the same host:
//
//	ecstore-control drain -meta 127.0.0.1:7100 -site 3
//	ecstore-control scrub -meta 127.0.0.1:7100 [-site 3]
//	ecstore-control tasks -meta 127.0.0.1:7100
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/rpc"
	"ecstore/internal/stats"
	"ecstore/internal/storage"
	"ecstore/internal/tasks"
	"ecstore/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "drain":
			return runDrain(args[1:])
		case "scrub":
			return runScrub(args[1:])
		case "tasks":
			return runTasks(args[1:])
		}
	}
	return runDaemon(args)
}

// dialMeta connects a metadata client; the caller closes the returned
// closer.
func dialMeta(addr string) (metadata.Service, func(), error) {
	tcp := &transport.TCP{}
	conn, err := tcp.Dial(addr)
	if err != nil {
		return nil, nil, fmt.Errorf("connect metadata: %w", err)
	}
	c := rpc.NewClient(conn)
	return metadata.NewClient(c), func() { _ = c.Close() }, nil
}

// runDrain marks a site draining and enqueues its drain task.
func runDrain(args []string) error {
	fs := flag.NewFlagSet("ecstore-control drain", flag.ContinueOnError)
	metaAddr := fs.String("meta", "127.0.0.1:7100", "metadata server address")
	site := fs.Int("site", 0, "site ID to drain")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *site <= 0 {
		return errors.New("-site is required")
	}
	meta, closeMeta, err := dialMeta(*metaAddr)
	if err != nil {
		return err
	}
	defer closeMeta()
	if err := core.EnqueueDrain(meta, tasks.New(tasks.Config{Store: meta}), model.SiteID(*site)); err != nil {
		return err
	}
	fmt.Printf("site %d: draining; drain task enqueued\n", *site)
	return nil
}

// runScrub enqueues scrub tasks for one site or all sites.
func runScrub(args []string) error {
	fs := flag.NewFlagSet("ecstore-control scrub", flag.ContinueOnError)
	metaAddr := fs.String("meta", "127.0.0.1:7100", "metadata server address")
	site := fs.Int("site", 0, "site ID to scrub (0 = every active site)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	meta, closeMeta, err := dialMeta(*metaAddr)
	if err != nil {
		return err
	}
	defer closeMeta()
	n, err := core.EnqueueScrub(meta, tasks.New(tasks.Config{Store: meta}), model.SiteID(*site))
	if err != nil {
		return err
	}
	fmt.Printf("scrub enqueued for %d site(s)\n", n)
	return nil
}

// runTasks prints the durable task table.
func runTasks(args []string) error {
	fs := flag.NewFlagSet("ecstore-control tasks", flag.ContinueOnError)
	metaAddr := fs.String("meta", "127.0.0.1:7100", "metadata server address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	meta, closeMeta, err := dialMeta(*metaAddr)
	if err != nil {
		return err
	}
	defer closeMeta()
	recs := meta.ListTasks()
	if len(recs) == 0 {
		fmt.Println("no tasks")
		return nil
	}
	fmt.Printf("%-28s %-14s %-9s %-5s %-8s %s\n", "ID", "TYPE", "STATE", "SITE", "ATTEMPTS", "LAST ERROR")
	for _, t := range recs {
		fmt.Printf("%-28s %-14s %-9s %-5d %-8d %s\n",
			t.ID, t.Type, t.State, t.Site, t.Attempts, t.LastError)
	}
	return nil
}

// runDaemon runs the control plane until interrupted.
func runDaemon(args []string) error {
	d, err := startDaemon(args)
	if err != nil {
		return err
	}
	defer d.Close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if d.ctl.Mover != nil {
		moved, failed := d.ctl.Mover.Moves()
		fmt.Printf("mover: %d moved, %d failed\n", moved, failed)
	}
	if d.ctl.Repair != nil {
		fmt.Printf("repair: %d chunks reconstructed\n", d.ctl.Repair.Repaired())
	}
	return nil
}

// daemon is a running control plane: its statistics service address, the
// plane itself, and what Close tears down, in reverse order.
type daemon struct {
	addr    net.Addr
	ctl     *core.Control
	closers []func()
}

// Close stops the scheduler, the statistics service and every connection.
func (d *daemon) Close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
}

// startDaemon parses the daemon flags, dials the metadata server and
// every site, builds the control plane with core.NewControl, serves its
// statistics RPC and starts the scheduler.
func startDaemon(args []string) (_ *daemon, err error) {
	fs := flag.NewFlagSet("ecstore-control", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7105", "statistics service listen address")
	metaAddr := fs.String("meta", "127.0.0.1:7100", "metadata server address")
	sitesCSV := fs.String("sites", "", "comma-separated storage site addresses (site 1 first)")
	enableMover := fs.Bool("mover", false, "run the chunk mover")
	enableRepair := fs.Bool("repair", false, "run the repair service")
	enableScrub := fs.Bool("scrub", false, "run the periodic checksum scrubber")
	moverInterval := fs.Duration("mover-interval", time.Second, "pause between movement attempts")
	statsInterval := fs.Duration("stats-interval", 5*time.Second, "probe round period (breakers, o_j, load reports, repair sweep)")
	repairGrace := fs.Duration("repair-grace", 15*time.Minute, "grace before reconstructing a failed site")
	scrubInterval := fs.Duration("scrub-interval", time.Hour, "pause between scrub sweeps")
	taskBytesPerSec := fs.Int64("task-bytes-per-sec", 0, "background task I/O budget in bytes/sec (0 = unthrottled)")
	metricsAddr := fs.String("metrics-addr", "", "HTTP address for /metrics (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unknown subcommand %q (want drain, scrub or tasks)", fs.Arg(0))
	}
	if *sitesCSV == "" {
		return nil, errors.New("-sites is required")
	}

	d := &daemon{}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	reg := obs.NewRegistry()
	tcp := &transport.TCP{Metrics: transport.NewMetrics(reg)}
	dial := func(addr string) (*rpc.Client, error) {
		conn, err := tcp.Dial(addr)
		if err != nil {
			return nil, err
		}
		rc := rpc.NewClient(conn)
		d.closers = append(d.closers, func() { _ = rc.Close() })
		return rc, nil
	}
	metaRPC, err := dial(*metaAddr)
	if err != nil {
		return nil, fmt.Errorf("connect metadata: %w", err)
	}
	sites := make(map[model.SiteID]storage.SiteAPI)
	for i, siteAddr := range strings.Split(*sitesCSV, ",") {
		rc, err := dial(strings.TrimSpace(siteAddr))
		if err != nil {
			return nil, fmt.Errorf("connect site %d (%s): %w", i+1, siteAddr, err)
		}
		sites[model.SiteID(i+1)] = storage.NewRPCClient(rc)
	}

	// The metadata server's task table is the scheduler's durable queue,
	// so tasks enqueued by the subcommands above (or left over from a
	// previous daemon run) are picked up here.
	d.ctl = core.NewControl(core.ClusterConfig{
		EnableMover:     *enableMover,
		MoverInterval:   *moverInterval,
		EnableRepair:    *enableRepair,
		RepairGrace:     *repairGrace,
		EnableScrub:     *enableScrub,
		ScrubInterval:   *scrubInterval,
		TaskBytesPerSec: *taskBytesPerSec,
		StatsInterval:   *statsInterval,
		Metrics:         reg,
	}, metadata.NewClient(metaRPC), sites)

	l, err := tcp.Listen(*addr)
	if err != nil {
		return nil, err
	}
	statsSrv := rpc.NewServer(stats.NewServer(d.ctl.Aggregator))
	statsSrv.SetMetrics(rpc.NewMetrics(reg, "rpc_server"))
	//lint:ignore goleak accept loop; unblocked by statsSrv.Close in daemon.Close
	go func() { _ = statsSrv.Serve(l) }()
	d.closers = append(d.closers, func() { _ = statsSrv.Close() })
	d.addr = l.Addr()

	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return nil, fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Printf("metrics on http://%s/metrics\n", ml.Addr())
		//lint:ignore goleak metrics endpoint serves for the process lifetime by design
		go func() { _ = obs.Serve(ml, reg, nil) }()
	}

	d.ctl.Start()
	d.closers = append(d.closers, d.ctl.Stop)
	fmt.Printf("ecstore-control: stats on %s, %d sites, mover=%v repair=%v scrub=%v\n",
		d.addr, len(sites), *enableMover, *enableRepair, *enableScrub)
	return d, nil
}

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
	"context"
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
	"ecstore/internal/health"
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
	id := model.SiteID(*site)
	info := meta.SiteInfos()[id]
	info.ID = id
	if info.State == model.SiteActive {
		info.State = model.SiteDraining
		if err := meta.SetSiteInfo(info); err != nil {
			return fmt.Errorf("mark site draining: %w", err)
		}
	}
	if err := meta.PutTask(&model.TaskRecord{
		ID:       fmt.Sprintf("drain-site-%d", id),
		Type:     model.TaskTypeDrainSite,
		Site:     id,
		Priority: model.PriorityDrain,
		State:    model.TaskPending,
	}); err != nil {
		return fmt.Errorf("enqueue drain: %w", err)
	}
	fmt.Printf("site %d: draining; drain task enqueued\n", id)
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
	var targets []model.SiteID
	if *site > 0 {
		targets = []model.SiteID{model.SiteID(*site)}
	} else {
		infos := meta.SiteInfos()
		for _, id := range meta.Sites() {
			if infos[id].State == model.SiteActive {
				targets = append(targets, id)
			}
		}
	}
	for _, id := range targets {
		if err := meta.PutTask(&model.TaskRecord{
			ID:       fmt.Sprintf("scrub-site-%d", id),
			Type:     model.TaskTypeScrubSite,
			Site:     id,
			Priority: model.PriorityScrub,
			State:    model.TaskPending,
		}); err != nil {
			return fmt.Errorf("enqueue scrub of site %d: %w", id, err)
		}
	}
	fmt.Printf("scrub enqueued for %d site(s)\n", len(targets))
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

func runDaemon(args []string) error {
	fs := flag.NewFlagSet("ecstore-control", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7105", "statistics service listen address")
	metaAddr := fs.String("meta", "127.0.0.1:7100", "metadata server address")
	sitesCSV := fs.String("sites", "", "comma-separated storage site addresses (site 1 first)")
	enableMover := fs.Bool("mover", false, "run the chunk mover")
	enableRepair := fs.Bool("repair", false, "run the repair service")
	enableScrub := fs.Bool("scrub", false, "run the periodic checksum scrubber")
	moverInterval := fs.Duration("mover-interval", time.Second, "pause between movement attempts")
	statsInterval := fs.Duration("stats-interval", 5*time.Second, "load report collection period")
	repairGrace := fs.Duration("repair-grace", 15*time.Minute, "grace before reconstructing a failed site")
	scrubInterval := fs.Duration("scrub-interval", time.Hour, "pause between scrub sweeps")
	taskBytesPerSec := fs.Int64("task-bytes-per-sec", 0, "background task I/O budget in bytes/sec (0 = unthrottled)")
	metricsAddr := fs.String("metrics-addr", "", "HTTP address for /metrics (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unknown subcommand %q (want drain, scrub or tasks)", fs.Arg(0))
	}
	if *sitesCSV == "" {
		return errors.New("-sites is required")
	}

	reg := obs.NewRegistry()
	tcp := &transport.TCP{Metrics: transport.NewMetrics(reg)}

	// Metadata client.
	conn, err := tcp.Dial(*metaAddr)
	if err != nil {
		return fmt.Errorf("connect metadata: %w", err)
	}
	metaRPC := rpc.NewClient(conn)
	defer func() { _ = metaRPC.Close() }()
	meta := metadata.NewClient(metaRPC)

	// Storage site clients.
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

	// Statistics service: local aggregator + RPC server for clients.
	agg := stats.NewAggregator(0)
	agg.EnableMetrics(reg)
	l, err := tcp.Listen(*addr)
	if err != nil {
		return err
	}
	statsSrv := rpc.NewServer(stats.NewServer(agg))
	statsSrv.SetMetrics(rpc.NewMetrics(reg, "rpc_server"))
	//lint:ignore goleak accept loop; unblocked by the deferred statsSrv.Close on every return path
	go func() { _ = statsSrv.Serve(l) }()
	defer func() { _ = statsSrv.Close() }()

	if *metricsAddr != "" {
		ml, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Printf("metrics on http://%s/metrics\n", ml.Addr())
		//lint:ignore goleak metrics endpoint serves for the process lifetime by design
		go func() { _ = obs.Serve(ml, reg, nil) }()
	}

	// The unified background scheduler: the metadata server's task table
	// is its durable queue, so tasks enqueued by the subcommands above
	// (or left over from a previous daemon run) are picked up here.
	sched := tasks.New(tasks.Config{
		Store:       meta,
		BytesPerSec: *taskBytesPerSec,
		Metrics:     reg,
	})

	// One breaker set for every background executor, fed by the stats
	// source's probe round below (and by the repair sweep's own probes):
	// destinations are restricted to sites whose breaker is closed.
	tracker := health.NewTracker(health.Config{Metrics: reg})

	var mover *core.MoverRunner
	if *enableMover {
		mover = core.NewMoverRunner(core.MoverRunnerConfig{Metrics: reg},
			meta, sites, tracker, agg.CoAccess, agg.Loads, agg.Probes)
	}
	var repairSvc *core.Repairer
	if *enableRepair {
		repairSvc = core.NewRepairer(meta, sites, agg.Loads, tracker, *repairGrace, reg)
	}
	scrubber := core.NewScrubber(meta, sites, sched.Enqueue, reg)
	drainer := core.NewDrainer(meta, sites, agg.Loads, tracker, reg)
	scrubEvery := time.Duration(0)
	if *enableScrub {
		scrubEvery = *scrubInterval
	}
	core.BuildTaskPlane(sched, core.TaskPlaneOptions{
		Repair:        repairSvc,
		Mover:         mover,
		MoverInterval: *moverInterval,
		Scrub:         scrubber,
		ScrubInterval: scrubEvery,
		Meta:          meta,
		Drain:         drainer,
		Stats: func(ctx context.Context) {
			for id, api := range sites {
				if !tracker.AllowProbe(id) {
					continue // open breaker: known down until its backoff expires
				}
				pctx, pcancel := context.WithTimeout(ctx, 2*time.Second)
				start := time.Now()
				if err := api.Probe(pctx); err != nil {
					tracker.ReportFailure(id)
					pcancel()
					continue
				}
				tracker.ReportSuccess(id)
				agg.ObserveProbe(id, time.Since(start).Seconds())
				if load, err := api.LoadReport(pctx); err == nil {
					agg.ReportLoad(id, load)
				}
				pcancel()
			}
		},
		StatsInterval: *statsInterval,
	})
	sched.Start()
	defer sched.Stop()

	fmt.Printf("ecstore-control: stats on %s, %d sites, mover=%v repair=%v scrub=%v\n",
		l.Addr(), len(sites), *enableMover, *enableRepair, *enableScrub)

	// Run until interrupted.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if mover != nil {
		moved, failed := mover.Moves()
		fmt.Printf("mover: %d moved, %d failed\n", moved, failed)
	}
	if repairSvc != nil {
		fmt.Printf("repair: %d chunks reconstructed\n", repairSvc.Repaired())
	}
	return nil
}

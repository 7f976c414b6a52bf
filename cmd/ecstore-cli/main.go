// Command ecstore-cli is a client for a distributed EC-Store deployment:
// it connects to a metadata server and a set of storage sites over TCP and
// performs put/get/delete/stat operations.
//
//	ecstore-cli -meta 127.0.0.1:7100 -sites 127.0.0.1:7101,127.0.0.1:7102,... put key file
//	ecstore-cli ... put -stream key file   # stream through the striped pipeline ("-" = stdin)
//	ecstore-cli ... get key            # prints the block to stdout
//	ecstore-cli ... get -range 65536:4096 key   # print 4096 bytes from offset 65536
//	ecstore-cli ... del key
//	ecstore-cli ... stat               # cluster health and plan stats
//	ecstore-cli ... stat key           # one block's catalog record (version, sites)
//	ecstore-cli ... stats              # cluster-wide metrics snapshot
//	ecstore-cli ... stats -full        # raw dump of every remote metric
//
// A streamed put writes the block stripe-interleaved (see DESIGN.md §13),
// which is what makes later -range reads fetch only the stripes a byte
// range touches instead of reassembling the whole block.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/rpc"
	"ecstore/internal/stats"
	"ecstore/internal/storage"
	"ecstore/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ecstore-cli", flag.ContinueOnError)
	metaAddr := fs.String("meta", "127.0.0.1:7100", "metadata server address")
	sitesCSV := fs.String("sites", "", "comma-separated storage site addresses (site 1 first)")
	gatewayURL := fs.String("gateway", "", "route put/get/del through a gateway's HTTP front at this base URL instead of dialing meta/sites directly")
	tenant := fs.String("tenant", "", "tenant name for -gateway requests (empty = default)")
	controlAddr := fs.String("control", "", "control-plane statistics service address (stats command only)")
	k := fs.Int("k", 2, "RS data chunks")
	r := fs.Int("r", 2, "RS parity chunks")
	delta := fs.Int("delta", 0, "late-binding surplus chunk requests")
	cacheBytes := fs.Int64("cache-bytes", 0, "decoded-block cache budget in bytes (0 disables the cache)")
	cacheStaleTTL := fs.Duration("cache-stale-ttl", 0, "serve cache entries invalidated up to this long ago when a block's sites are down (0 = never)")
	stripeUnit := fs.Int64("stripe-unit", 0, "stripe unit in bytes for streamed puts (0 = 64 KiB default)")
	packThreshold := fs.Int64("pack-threshold", 0, "pack puts at or below this many bytes into shared containers (0 disables packing)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return errors.New("usage: ecstore-cli [flags] put|get|del|stat ...")
	}
	if *gatewayURL != "" {
		return runViaGateway(*gatewayURL, *tenant, rest)
	}
	if *sitesCSV == "" {
		return errors.New("-sites is required")
	}

	tcp := &transport.TCP{}

	conn, err := tcp.Dial(*metaAddr)
	if err != nil {
		return fmt.Errorf("connect metadata: %w", err)
	}
	metaRPC := rpc.NewClient(conn)
	defer func() { _ = metaRPC.Close() }()
	meta := metadata.NewClient(metaRPC)

	sites := make(map[model.SiteID]storage.SiteAPI)
	siteClients := make(map[model.SiteID]*storage.Client)
	var rpcClients []*rpc.Client
	defer func() {
		for _, c := range rpcClients {
			_ = c.Close()
		}
	}()
	for i, addr := range strings.Split(*sitesCSV, ",") {
		conn, err := tcp.Dial(strings.TrimSpace(addr))
		if err != nil {
			return fmt.Errorf("connect site %d (%s): %w", i+1, addr, err)
		}
		rc := rpc.NewClient(conn)
		rpcClients = append(rpcClients, rc)
		sc := storage.NewRPCClient(rc)
		sites[model.SiteID(i+1)] = sc
		siteClients[model.SiteID(i+1)] = sc
	}

	// A local registry collects client-side instrumentation (plan cache,
	// block cache, request phases) so `stats -full` can dump it.
	reg := obs.NewRegistry()
	client, err := core.NewClient(core.Config{
		K:             *k,
		R:             *r,
		Delta:         *delta,
		CacheBytes:    *cacheBytes,
		CacheStaleTTL: *cacheStaleTTL,
		StripeUnit:    *stripeUnit,
		PackThreshold: *packThreshold,
	}, core.Deps{Meta: meta, Sites: sites, Metrics: reg})
	if err != nil {
		return err
	}
	defer client.Close()

	switch rest[0] {
	case "put":
		pfs := flag.NewFlagSet("put", flag.ContinueOnError)
		stream := pfs.Bool("stream", false, "stream through the striped pipeline (PutReader); file may be \"-\" for stdin")
		if err := pfs.Parse(rest[1:]); err != nil {
			return err
		}
		prest := pfs.Args()
		if len(prest) != 2 {
			return errors.New("usage: put [-stream] <key> <file>")
		}
		if *stream {
			var src io.Reader
			if prest[1] == "-" {
				src = os.Stdin
			} else {
				f, err := os.Open(prest[1])
				if err != nil {
					return err
				}
				defer func() { _ = f.Close() }()
				src = f
			}
			n, err := client.PutReader(context.Background(), model.BlockID(prest[0]), src)
			if err != nil {
				return err
			}
			fmt.Printf("streamed %s (%d bytes, RS(%d,%d), striped)\n", prest[0], n, *k, *r)
			return nil
		}
		data, err := os.ReadFile(prest[1])
		if err != nil {
			return err
		}
		if err := client.Put(model.BlockID(prest[0]), data); err != nil {
			return err
		}
		// A packed put stages client-side; this process is about to
		// exit, so seal now — staged blocks are not durable (§13.5).
		if *packThreshold > 0 {
			if err := client.FlushPacked(context.Background()); err != nil {
				return err
			}
		}
		fmt.Printf("stored %s (%d bytes, RS(%d,%d))\n", prest[0], len(data), *k, *r)
		return nil

	case "get":
		gfs := flag.NewFlagSet("get", flag.ContinueOnError)
		rng := gfs.String("range", "", "byte range off:len — fetch and decode only the stripes the range touches")
		if err := gfs.Parse(rest[1:]); err != nil {
			return err
		}
		grest := gfs.Args()
		if len(grest) != 1 {
			return errors.New("usage: get [-range off:len] <key>")
		}
		if *rng != "" {
			off, n, err := parseRange(*rng)
			if err != nil {
				return err
			}
			start := time.Now()
			data, err := client.GetRange(context.Background(), model.BlockID(grest[0]), off, n)
			if err != nil {
				return err
			}
			if _, err := os.Stdout.Write(data); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "\nrange [%d,+%d): %d bytes in %.2fms\n",
				off, n, len(data), time.Since(start).Seconds()*1000)
			return nil
		}
		blocks, bd, err := client.GetMulti([]model.BlockID{model.BlockID(grest[0])})
		if err != nil {
			return err
		}
		if _, err := os.Stdout.Write(blocks[model.BlockID(grest[0])]); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "\nbreakdown: meta=%.2fms plan=%.2fms retrieve=%.2fms decode=%.2fms\n",
			bd.Metadata*1000, bd.Planning*1000, bd.Retrieve*1000, bd.Decode*1000)
		return nil

	case "del":
		if len(rest) != 2 {
			return errors.New("usage: del <key>")
		}
		if err := client.Delete(model.BlockID(rest[1])); err != nil {
			return err
		}
		fmt.Printf("deleted %s\n", rest[1])
		return nil

	case "stat":
		if len(rest) == 2 {
			// stat <key>: print the block's catalog record — the version
			// line lets scripts assert monotonicity across delete,
			// re-register and metadata-server restarts.
			id := model.BlockID(rest[1])
			metas, err := meta.Lookup([]model.BlockID{id})
			if err != nil {
				return err
			}
			m, ok := metas[id]
			if !ok {
				return fmt.Errorf("stat %s: not found", rest[1])
			}
			fmt.Printf("key=%s version=%d size=%d scheme=%d k=%d r=%d sites=%v\n",
				m.ID, m.Version, m.Size, m.Scheme, m.K, m.R, m.Sites)
			return nil
		}
		client.ProbeAll()
		fmt.Printf("sites: %d configured\n", len(sites))
		for id, api := range sites {
			pctx, pcancel := context.WithTimeout(context.Background(), 2*time.Second)
			status := "up"
			if api.Probe(pctx) != nil {
				status = "DOWN"
			}
			pcancel()
			fmt.Printf("  site %d: %s\n", id, status)
		}
		st := client.PlannerStats()
		fmt.Printf("plan cache: %d hits, %d misses (%.0f%% hit rate)\n",
			st.Hits, st.Misses, 100*st.HitRate())
		if cs := client.CacheStats(); cs.MaxBytes > 0 {
			fmt.Printf("block cache: %d entries, %d/%d bytes\n",
				cs.Entries, cs.Bytes, cs.MaxBytes)
		}
		return nil

	case "stats":
		sfs := flag.NewFlagSet("stats", flag.ContinueOnError)
		full := sfs.Bool("full", false, "raw dump of every remote metric")
		if err := sfs.Parse(rest[1:]); err != nil {
			return err
		}
		return clusterStats(os.Stdout, client, reg, meta, siteClients, tcp, *controlAddr, *full)

	default:
		return fmt.Errorf("unknown command %q", rest[0])
	}
}

// parseRange parses the get -range argument "off:len" into byte offset
// and length.
func parseRange(s string) (off, n int64, err error) {
	lhs, rhs, ok := strings.Cut(s, ":")
	if !ok {
		return 0, 0, fmt.Errorf("bad -range %q, want off:len", s)
	}
	off, err = strconv.ParseInt(lhs, 10, 64)
	if err != nil || off < 0 {
		return 0, 0, fmt.Errorf("bad -range offset %q", lhs)
	}
	n, err = strconv.ParseInt(rhs, 10, 64)
	if err != nil || n < 0 {
		return 0, 0, fmt.Errorf("bad -range length %q", rhs)
	}
	return off, n, nil
}

// clusterStats snapshots every reachable service's metrics over the
// GetMetrics RPC and renders a cluster-wide summary. The plan-cache and
// block-cache lines are the local client's (both caches are per client
// process).
func clusterStats(w io.Writer, client *core.Client, reg *obs.Registry, meta *metadata.Client,
	siteClients map[model.SiteID]*storage.Client, tcp *transport.TCP, controlAddr string, full bool) error {
	ids := make([]model.SiteID, 0, len(siteClients))
	for id := range siteClients {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	fmt.Fprintln(w, "== sites ==")
	for _, id := range ids {
		snap, err := siteClients[id].Metrics()
		if err != nil {
			fmt.Fprintf(w, "site %d: unreachable (%v)\n", id, err)
			continue
		}
		label := strconv.FormatInt(int64(id), 10)
		fmt.Fprintf(w, "site %d: reads=%d writes=%d deletes=%d errors=%d",
			id,
			snap.CounterValue("storage_reads_total", label),
			snap.CounterValue("storage_writes_total", label),
			snap.CounterValue("storage_deletes_total", label),
			snap.CounterValue("storage_errors_total", label))
		if h, ok := snap.Histogram("storage_read_seconds", label); ok && h.Count > 0 {
			fmt.Fprintf(w, "  read p50=%.2fms p95=%.2fms p99=%.2fms",
				h.P50*1000, h.P95*1000, h.P99*1000)
		}
		fmt.Fprintln(w)
		if full {
			_ = snap.WriteText(w)
		}
	}

	fmt.Fprintln(w, "== metadata ==")
	if snap, err := meta.Metrics(); err != nil {
		fmt.Fprintf(w, "unreachable (%v)\n", err)
	} else {
		fmt.Fprintf(w, "blocks=%d registers=%d lookups=%d misses=%d placement updates=%d conflicts=%d\n",
			snap.GaugeValue("meta_blocks"),
			snap.CounterValue("meta_registers_total", ""),
			snap.CounterValue("meta_lookups_total", ""),
			snap.CounterValue("meta_lookup_misses_total", ""),
			snap.CounterValue("meta_placement_updates_total", ""),
			snap.CounterValue("meta_placement_conflicts_total", ""))
		if full {
			_ = snap.WriteText(w)
		}
	}

	if controlAddr != "" {
		fmt.Fprintln(w, "== control ==")
		conn, err := tcp.Dial(controlAddr)
		if err != nil {
			fmt.Fprintf(w, "unreachable (%v)\n", err)
		} else {
			rc := rpc.NewClient(conn)
			snap, err := stats.NewClient(rc).Metrics()
			_ = rc.Close()
			if err != nil {
				fmt.Fprintf(w, "unreachable (%v)\n", err)
			} else {
				fmt.Fprintf(w, "stats: accesses=%d load reports=%d probes=%d\n",
					snap.CounterValue("stats_accesses_total", ""),
					snap.CounterValue("stats_load_reports_total", ""),
					snap.CounterValue("stats_probe_observations_total", ""))
				fmt.Fprintf(w, "mover: moves=%d failures=%d\n",
					snap.CounterValue("mover_moves_total", ""),
					snap.CounterValue("mover_move_failures_total", ""))
				fmt.Fprintf(w, "repair: checks=%d repaired=%d errors=%d failed sites=%d\n",
					snap.CounterValue("repair_checks_total", ""),
					snap.CounterValue("repair_repaired_chunks_total", ""),
					snap.CounterValue("repair_errors_total", ""),
					snap.GaugeValue("repair_failed_sites"))
				if full {
					_ = snap.WriteText(w)
				}
			}
		}
	}

	st := client.PlannerStats()
	fmt.Fprintln(w, "== local client ==")
	fmt.Fprintf(w, "plan cache: %d hits, %d misses (%.0f%% hit rate), %d greedy, %d exact\n",
		st.Hits, st.Misses, 100*st.HitRate(), st.Greedy, st.Exact)
	cs := client.CacheStats()
	if cs.MaxBytes > 0 {
		fmt.Fprintf(w, "block cache: %d hits, %d misses (%.0f%% hit rate), %d entries, %d/%d bytes, %d evictions, %d stale serves\n",
			cs.Hits, cs.Misses, 100*cs.HitRatio(), cs.Entries, cs.Bytes, cs.MaxBytes, cs.Evictions, cs.StaleServes)
	} else {
		fmt.Fprintln(w, "block cache: disabled (enable with -cache-bytes)")
	}
	if full {
		_ = reg.Snapshot().WriteText(w)
	}
	return nil
}

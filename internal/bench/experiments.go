package bench

import (
	"fmt"
	"math"
	"strings"

	"ecstore/internal/model"
	"ecstore/internal/placement"
	"ecstore/internal/sim"
	"ecstore/internal/workload"
)

// Block sizes used by the paper's YCSB experiments.
const (
	BlockSize10KB  = 10 * 1024
	BlockSize100KB = 100 * 1024
	BlockSize1MB   = 1024 * 1024
)

// Fig1 reproduces Figure 1: the response-time breakdown of replication vs
// baseline erasure coding under skewed access, showing retrieval dominating.
func Fig1(sc Scale) (*Report, []*sim.Result, error) {
	var results []*sim.Result
	for _, opt := range []sim.Options{
		{Scheme: model.SchemeReplicated, Strategy: placement.StrategyRandom},
		{Scheme: model.SchemeErasure, Strategy: placement.StrategyRandom},
	} {
		res, err := RunYCSB(opt, sc, BlockSize100KB)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, res)
	}
	rep := &Report{
		ID:    "fig1",
		Title: "Response time breakdown, replication vs erasure coding (YCSB-E, 100 KB, skewed)",
		Body:  sim.FormatBreakdownTable(results),
	}
	return rep, results, nil
}

// Fig4a reproduces Figure 4a: response time over time for EC+C and EC+C+M
// after the workload change, exposing the mover's convergence.
func Fig4a(sc Scale) (*Report, []*sim.Result, error) {
	var results []*sim.Result
	for _, opt := range []sim.Options{
		{Scheme: model.SchemeErasure, Strategy: placement.StrategyCost},
		{Scheme: model.SchemeErasure, Strategy: placement.StrategyCost, Mover: true},
	} {
		// No adaptation gap: measure straight through the transient,
		// like the paper's 20-minute window after workload change.
		scT := sc
		scT.Measure += scT.Adapt
		scT.Adapt = 0
		res, err := RunYCSB(opt, scT, BlockSize100KB)
		if err != nil {
			return nil, nil, err
		}
		results = append(results, res)
	}
	var b strings.Builder
	width := results[0].Metrics.BucketWidth()
	fmt.Fprintf(&b, "%-8s", "t(s)")
	for _, r := range results {
		fmt.Fprintf(&b, " %10s", r.Config)
	}
	b.WriteString("\n")
	n := len(results[0].Metrics.Timeline())
	if m := len(results[1].Metrics.Timeline()); m < n {
		n = m
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%-8.0f", float64(i)*width)
		for _, r := range results {
			fmt.Fprintf(&b, " %8.2fms", r.Metrics.Timeline()[i]*1000)
		}
		b.WriteString("\n")
	}
	rep := &Report{ID: "fig4a", Title: "Response time over time (YCSB-E, 100 KB)", Body: b.String()}
	return rep, results, nil
}

// Fig4b reproduces Figure 4b: the six-configuration response-time
// breakdown for YCSB-E with 100 KB blocks.
func Fig4b(sc Scale) (*Report, []*sim.Result, error) {
	results, err := runAll(sc, func(opt sim.Options) (*sim.Result, error) {
		return RunYCSB(opt, sc, BlockSize100KB)
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		ID:    "fig4b",
		Title: "YCSB-E breakdown, 100 KB blocks, all configurations",
		Body:  sim.FormatBreakdownTable(results),
	}
	return rep, results, nil
}

// Fig4c reproduces Figure 4c: the tail-latency CDF (percentiles 80-100)
// for the Figure 4b run.
func Fig4c(sc Scale) (*Report, []*sim.Result, error) {
	results, err := runAll(sc, func(opt sim.Options) (*sim.Result, error) {
		return RunYCSB(opt, sc, BlockSize100KB)
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		ID:    "fig4c",
		Title: "Tail latency CDF (YCSB-E, 100 KB), percentiles 80-100",
		Body:  formatCDF(results, 80, 2),
	}
	return rep, results, nil
}

// Fig4d reproduces Figure 4d: per-site read I/O rates during the YCSB
// 100 KB experiment.
func Fig4d(sc Scale) (*Report, []*sim.Result, error) {
	results, err := runAll(sc, func(opt sim.Options) (*sim.Result, error) {
		return RunYCSB(opt, sc, BlockSize100KB)
	})
	if err != nil {
		return nil, nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "site")
	for _, r := range results {
		fmt.Fprintf(&b, " %10s", r.Config)
	}
	b.WriteString("   (MB/s)\n")
	sites := results[0].SortedSiteRates()
	for i := range sites {
		fmt.Fprintf(&b, "%-6d", sites[i].Site)
		for _, r := range results {
			fmt.Fprintf(&b, " %10.2f", r.SiteReadRate[sites[i].Site]/1e6)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-6s", "total")
	for _, r := range results {
		var sum float64
		for _, rate := range r.SiteReadRate {
			sum += rate
		}
		fmt.Fprintf(&b, " %10.2f", sum/1e6)
	}
	b.WriteString("\n")
	rep := &Report{ID: "fig4d", Title: "Per-site read I/O (YCSB-E, 100 KB)", Body: b.String()}
	return rep, results, nil
}

// Fig4e reproduces Figure 4e: the six-configuration breakdown with 1 MB
// blocks.
func Fig4e(sc Scale) (*Report, []*sim.Result, error) {
	results, err := runAll(sc, func(opt sim.Options) (*sim.Result, error) {
		return RunYCSB(opt, sc, BlockSize1MB)
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		ID:    "fig4e",
		Title: "YCSB-E breakdown, 1 MB blocks, all configurations",
		Body:  sim.FormatBreakdownTable(results),
	}
	return rep, results, nil
}

// Fig4f reproduces Figure 4f: mean response times with 0, 1 and 2 failed
// sites (failures injected before measurement, repair disabled, as in
// Section VI-C4).
func Fig4f(sc Scale) (*Report, map[string][]float64, error) {
	out := make(map[string][]float64)
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s %12s\n", "config", "0 failed", "1 failed", "2 failed")
	for _, opt := range Configs() {
		var row []float64
		for _, failures := range []int{0, 1, 2} {
			cl, err := sim.New(sim.DefaultParams(sc.Seed), opt)
			if err != nil {
				return nil, nil, err
			}
			if _, err := cl.Populate(sc.Blocks, func(int) int64 { return BlockSize100KB }); err != nil {
				return nil, nil, err
			}
			if failures > 0 {
				cl.FailSites(failures)
			}
			wl := newYCSB(sc)
			res := cl.Run(wl, sc.Warmup, sc.Adapt, sc.Measure)
			row = append(row, res.Mean.Total())
		}
		out[opt.Name()] = row
		fmt.Fprintf(&b, "%-12s %10.2fms %10.2fms %10.2fms\n",
			opt.Name(), row[0]*1000, row[1]*1000, row[2]*1000)
	}
	rep := &Report{ID: "fig4f", Title: "Response time with failed sites (YCSB-E, 100 KB)", Body: b.String()}
	return rep, out, nil
}

// Fig4g reproduces Figure 4g: the Wikipedia-trace breakdown for all six
// configurations.
func Fig4g(sc Scale) (*Report, []*sim.Result, error) {
	results, err := runAll(sc, func(opt sim.Options) (*sim.Result, error) {
		return RunWikipedia(opt, sc)
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		ID:    "fig4g",
		Title: "Wikipedia image-trace breakdown, all configurations",
		Body:  sim.FormatBreakdownTable(results),
	}
	return rep, results, nil
}

// Fig4h reproduces Figure 4h: the Wikipedia tail-latency CDF
// (percentiles 90-100).
func Fig4h(sc Scale) (*Report, []*sim.Result, error) {
	results, err := runAll(sc, func(opt sim.Options) (*sim.Result, error) {
		return RunWikipedia(opt, sc)
	})
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{
		ID:    "fig4h",
		Title: "Tail latency CDF (Wikipedia), percentiles 90-100",
		Body:  formatCDF(results, 90, 1),
	}
	return rep, results, nil
}

// Table2 reproduces Table II: the I/O load-imbalance factor λ per
// configuration under YCSB-E 100 KB.
func Table2(sc Scale) (*Report, map[string]float64, error) {
	results, err := runAll(sc, func(opt sim.Options) (*sim.Result, error) {
		return RunYCSB(opt, sc, BlockSize100KB)
	})
	if err != nil {
		return nil, nil, err
	}
	out := make(map[string]float64, len(results))
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s\n", "config", "λ")
	for _, r := range results {
		out[r.Config] = r.Lambda
		fmt.Fprintf(&b, "%-12s %8.1f\n", r.Config, r.Lambda)
	}
	rep := &Report{ID: "tab2", Title: "I/O load imbalance factor λ (YCSB-E, 100 KB)", Body: b.String()}
	return rep, out, nil
}

// Table3Row is one service's resource accounting.
type Table3Row struct {
	Service  string
	MemoryMB float64
	// NetworkKBs is control-plane traffic per second attributable to
	// the service.
	NetworkKBs float64
	// Detail carries service-specific counters.
	Detail string
}

// Table3 reproduces Table III: physical resources used by the statistics
// service, chunk read optimizer and chunk mover during a YCSB run with
// 1 MB blocks.
func Table3(sc Scale) (*Report, []Table3Row, error) {
	opt := sim.Options{Scheme: model.SchemeErasure, Strategy: placement.StrategyCost, Mover: true}
	cl, err := sim.New(sim.DefaultParams(sc.Seed), opt)
	if err != nil {
		return nil, nil, err
	}
	if _, err := cl.Populate(sc.Blocks, func(int) int64 { return BlockSize1MB }); err != nil {
		return nil, nil, err
	}
	wl := newYCSB(sc)
	res := cl.Run(wl, sc.Warmup, sc.Adapt, sc.Measure)

	duration := sc.Measure + sc.Adapt
	usage := cl.ResourceUsage()
	moveBytes := float64(res.Moves) * float64(BlockSize1MB) / 2 // RS(2,2) chunk = half a block
	totalRead := 0.0
	for _, rate := range res.SiteReadRate {
		totalRead += rate
	}

	rows := []Table3Row{
		{
			Service:    "Statistics",
			MemoryMB:   float64(usage.StatsBytes) / 1e6,
			NetworkKBs: float64(usage.StatsReports) * 64 / duration / 1e3,
			Detail:     fmt.Sprintf("%d tracked blocks, window %d reqs", usage.TrackedBlocks, usage.WindowRequests),
		},
		{
			Service:    "Chunk read optimizer",
			MemoryMB:   0,   // no plan cache: every read is planned on the spot
			NetworkKBs: 0.1, // plan exchange is piggybacked on reads
			Detail:     fmt.Sprintf("%d exact, %d greedy plans", res.Planner.Exact, res.Planner.Greedy),
		},
		{
			Service:    "Chunk mover",
			MemoryMB:   2,
			NetworkKBs: moveBytes / duration / 1e3,
			Detail: fmt.Sprintf("%d moves; %.2f%% of total read traffic",
				res.Moves, 100*moveBytes/math.Max(totalRead*duration, 1)),
		},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %10s %12s  %s\n", "service", "memory", "network", "detail")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %8.1fMB %10.1fKB/s  %s\n", r.Service, r.MemoryMB, r.NetworkKBs, r.Detail)
	}
	rep := &Report{ID: "tab3", Title: "Resources used by EC-Store services (YCSB, 1 MB blocks)", Body: b.String()}
	return rep, rows, nil
}

// formatCDF renders tail CDFs side by side.
func formatCDF(results []*sim.Result, from, step float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "pct")
	for _, r := range results {
		fmt.Fprintf(&b, " %10s", r.Config)
	}
	b.WriteString("   (ms)\n")
	for p := from; p <= 100+1e-9; p += step {
		q := math.Min(p, 100)
		fmt.Fprintf(&b, "%-6.0f", q)
		for _, r := range results {
			fmt.Fprintf(&b, " %10.2f", r.Metrics.Percentile(q)*1000)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// newYCSB builds the standard YCSB-E generator for a scale.
func newYCSB(sc Scale) *workload.YCSBE {
	return workload.NewYCSBE(sc.Blocks, 20, 1.0)
}

package bench

import (
	"fmt"
	"strings"

	"ecstore/internal/model"
	"ecstore/internal/placement"
	"ecstore/internal/sim"
	"ecstore/internal/workload"
)

// AblationDelta sweeps the late-binding surplus δ ∈ [0, r] for the cost
// configuration (Section IV-B1 allows 0 < δ ≤ r; δ=0 disables LB).
func AblationDelta(sc Scale) (*Report, map[int]float64, error) {
	out := make(map[int]float64)
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %12s\n", "delta", "mean", "p99")
	for delta := 0; delta <= 2; delta++ {
		opt := sim.Options{
			Scheme:   model.SchemeErasure,
			Strategy: placement.StrategyCost,
			Mover:    true,
			Delta:    delta,
		}
		res, err := RunYCSB(opt, sc, BlockSize100KB)
		if err != nil {
			return nil, nil, err
		}
		out[delta] = res.Mean.Total()
		fmt.Fprintf(&b, "%-8d %10.2fms %10.2fms\n",
			delta, res.Mean.Total()*1000, res.Metrics.Percentile(99)*1000)
	}
	rep := &Report{ID: "ab-delta", Title: "Late-binding δ sweep (EC+C+M, YCSB-E 100 KB)", Body: b.String(), Data: out}
	return rep, out, nil
}

// AblationK sweeps the coding parameter k with r=2 (Section V-B3: larger
// k reduces storage overhead but must access more sites in parallel).
func AblationK(sc Scale) (*Report, map[int]float64, error) {
	out := make(map[int]float64)
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %10s %12s %12s\n", "k", "overhead", "mean", "p99")
	for _, k := range []int{2, 3, 4, 6} {
		opt := sim.Options{
			Scheme:   model.SchemeErasure,
			K:        k,
			R:        2,
			Strategy: placement.StrategyCost,
		}
		res, err := RunYCSB(opt, sc, BlockSize100KB)
		if err != nil {
			return nil, nil, err
		}
		out[k] = res.Mean.Total()
		fmt.Fprintf(&b, "%-6d %9.2fx %10.2fms %10.2fms\n",
			k, res.StorageOverhead, res.Mean.Total()*1000, res.Metrics.Percentile(99)*1000)
	}
	rep := &Report{ID: "ab-k", Title: "RS(k, 2) parameter sweep (EC+C, YCSB-E 100 KB)", Body: b.String(), Data: out}
	return rep, out, nil
}

// AblationW2 sweeps the movement weight w2 around the paper's chosen value
// (Section V-B3: initial w2 = avg(o_j), tuned to 0.6 of it).
func AblationW2(sc Scale) (*Report, map[float64]float64, error) {
	out := make(map[float64]float64)
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %12s %8s\n", "w2/avgO", "mean", "λ")
	for _, w2 := range []float64{0, 0.3, 0.6, 1.0, 2.0} {
		p := sim.DefaultParams(sc.Seed)
		p.MoverW2 = w2
		cl, err := sim.New(p, sim.Options{
			Scheme:   model.SchemeErasure,
			Strategy: placement.StrategyCost,
			Mover:    true,
		})
		if err != nil {
			return nil, nil, err
		}
		if _, err := cl.Populate(sc.Blocks, func(int) int64 { return BlockSize100KB }); err != nil {
			return nil, nil, err
		}
		res := cl.Run(newYCSB(sc), sc.Warmup, sc.Adapt, sc.Measure)
		out[w2] = res.Mean.Total()
		fmt.Fprintf(&b, "%-8.1f %10.2fms %8.1f\n", w2, res.Mean.Total()*1000, res.Lambda)
	}
	rep := &Report{ID: "ab-w2", Title: "Movement weight w2 sweep (EC+C+M, YCSB-E 100 KB)", Body: b.String(), Data: floatKeys(out)}
	return rep, out, nil
}

// AblationMoverRate sweeps the mover throttle (Section VI-C5: movement is
// throttled so data transfer stays negligible).
func AblationMoverRate(sc Scale) (*Report, map[float64]float64, error) {
	out := make(map[float64]float64)
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %8s %8s\n", "interval(s)", "mean", "moves", "λ")
	for _, interval := range []float64{0.05, 0.1, 0.5, 2.0} {
		p := sim.DefaultParams(sc.Seed)
		p.MoverInterval = interval
		cl, err := sim.New(p, sim.Options{
			Scheme:   model.SchemeErasure,
			Strategy: placement.StrategyCost,
			Mover:    true,
		})
		if err != nil {
			return nil, nil, err
		}
		if _, err := cl.Populate(sc.Blocks, func(int) int64 { return BlockSize100KB }); err != nil {
			return nil, nil, err
		}
		res := cl.Run(newYCSB(sc), sc.Warmup, sc.Adapt, sc.Measure)
		out[interval] = res.Mean.Total()
		fmt.Fprintf(&b, "%-12.2f %10.2fms %8d %8.1f\n",
			interval, res.Mean.Total()*1000, res.Moves, res.Lambda)
	}
	rep := &Report{ID: "ab-mrate", Title: "Mover throttle sweep (EC+C+M, YCSB-E 100 KB)", Body: b.String(), Data: floatKeys(out)}
	return rep, out, nil
}

// AblationScrub sweeps the background checksum scrubber's per-site read
// rate (the task scheduler's byte-throttle knob): scrub reads share the
// disk queues with client traffic, so an unthrottled scrub trades read
// latency for faster corruption detection. Rate 0 is the no-scrub
// baseline.
func AblationScrub(sc Scale) (*Report, map[float64]float64, error) {
	out := make(map[float64]float64)
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s %10s\n", "rate(MB/s)", "mean", "p99", "scrub GB")
	for _, rate := range []float64{0, 10e6, 50e6, 150e6} {
		opt := sim.Options{
			Scheme:           model.SchemeErasure,
			Strategy:         placement.StrategyCost,
			Mover:            true,
			ScrubBytesPerSec: rate,
		}
		res, err := RunYCSB(opt, sc, BlockSize100KB)
		if err != nil {
			return nil, nil, err
		}
		out[rate] = res.Mean.Total()
		fmt.Fprintf(&b, "%-12.0f %10.2fms %10.2fms %10.2f\n",
			rate/1e6, res.Mean.Total()*1000, res.Metrics.Percentile(99)*1000,
			res.ScrubBytes/1e9)
	}
	rep := &Report{
		ID:    "ab-scrub",
		Title: "Scrub throttle sweep (EC+C+M, YCSB-E 100 KB)",
		Body:  b.String(),
		Data:  floatKeys(out),
	}
	return rep, out, nil
}

// AblationPlanQuality compares greedy-only planning (an exact-solve budget
// of 0) against planning that solves up to the default budget of requests
// per stats interval exactly, isolating the exact solver's contribution.
func AblationPlanQuality(sc Scale) (*Report, map[string]float64, error) {
	out := make(map[string]float64)
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %12s %8s\n", "planner", "mean", "visits")
	for _, mode := range []struct {
		name   string
		solves int
	}{
		{"greedy-only", 0},
		{"greedy+exact", sim.DefaultParams(sc.Seed).ExactSolvesPerInterval},
	} {
		p := sim.DefaultParams(sc.Seed)
		p.ExactSolvesPerInterval = mode.solves
		cl, err := sim.New(p, sim.Options{
			Scheme:   model.SchemeErasure,
			Strategy: placement.StrategyCost,
		})
		if err != nil {
			return nil, nil, err
		}
		if _, err := cl.Populate(sc.Blocks, func(int) int64 { return BlockSize100KB }); err != nil {
			return nil, nil, err
		}
		res := cl.Run(newYCSB(sc), sc.Warmup, sc.Adapt, sc.Measure)
		out[mode.name] = res.Mean.Total()
		fmt.Fprintf(&b, "%-14s %10.2fms %8.1f\n", mode.name, res.Mean.Total()*1000, res.VisitsPerRequest)
	}
	rep := &Report{ID: "ab-plan", Title: "Greedy vs exact planning (EC+C, YCSB-E 100 KB)", Body: b.String(), Data: out}
	return rep, out, nil
}

// AblationBlockSize sweeps block size (Section VI-C3: the paper also ran
// 10 KB and observed larger relative gains at larger blocks) comparing
// baseline EC against EC+C+M.
func AblationBlockSize(sc Scale) (*Report, map[string]float64, error) {
	out := make(map[string]float64)
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %10s\n", "size", "EC", "EC+C+M", "gain")
	for _, size := range []struct {
		name  string
		bytes int64
	}{
		{"10KB", BlockSize10KB},
		{"100KB", BlockSize100KB},
		{"1MB", BlockSize1MB},
	} {
		ec, err := RunYCSB(sim.Options{Scheme: model.SchemeErasure, Strategy: placement.StrategyRandom}, sc, size.bytes)
		if err != nil {
			return nil, nil, err
		}
		ecm, err := RunYCSB(sim.Options{Scheme: model.SchemeErasure, Strategy: placement.StrategyCost, Mover: true}, sc, size.bytes)
		if err != nil {
			return nil, nil, err
		}
		gain := 1 - ecm.Mean.Total()/ec.Mean.Total()
		out[size.name+"/EC"] = ec.Mean.Total()
		out[size.name+"/EC+C+M"] = ecm.Mean.Total()
		fmt.Fprintf(&b, "%-10s %10.2fms %10.2fms %9.1f%%\n",
			size.name, ec.Mean.Total()*1000, ecm.Mean.Total()*1000, 100*gain)
	}
	rep := &Report{ID: "ab-size", Title: "Block-size sweep: EC vs EC+C+M (YCSB-E)", Body: b.String(), Data: out}
	return rep, out, nil
}

// AblationCache sweeps the decoded-block cache budget on the paper's
// best configuration (EC+C+M+LB) under the skewed YCSB-E workload. The
// 0-byte row is the cache-off baseline from the same seed, so the mean
// and p99 columns read directly as the cache tier's contribution;
// hot-cover is the fraction of the statistics service's 64 hottest
// blocks resident in the cache at the end of the run (how well the
// cache's frequency-sketch admission tracks the hot set), and hits= the
// raw count of reads the cache served. The returned map holds each
// budget's result.
func AblationCache(sc Scale) (*Report, map[int64]*sim.Result, error) {
	out := make(map[int64]float64)
	results := make(map[int64]*sim.Result)
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %8s %10s\n", "budget", "mean", "p99", "hit", "hot-cover")
	for _, budget := range []int64{0, 8 << 20, 32 << 20, 128 << 20} {
		opt := sim.Options{
			Scheme:     model.SchemeErasure,
			Strategy:   placement.StrategyCost,
			Mover:      true,
			Delta:      1,
			CacheBytes: budget,
		}
		cl, err := sim.New(sim.DefaultParams(sc.Seed), opt)
		if err != nil {
			return nil, nil, err
		}
		if _, err := cl.Populate(sc.Blocks, func(int) int64 { return BlockSize100KB }); err != nil {
			return nil, nil, err
		}
		wl := workload.NewYCSBE(sc.Blocks, 20, 1.0)
		res := cl.Run(wl, sc.Warmup, sc.Adapt, sc.Measure)
		out[budget] = res.Mean.Total()
		results[budget] = res
		label := "off"
		if budget > 0 {
			label = fmt.Sprintf("%dMB", budget>>20)
		}
		fmt.Fprintf(&b, "%-10s %10.2fms %10.2fms %7.1f%% %9.1f%%  hits=%d\n",
			label, res.Mean.Total()*1000, res.Metrics.Percentile(99)*1000,
			100*res.CacheHitRatio(), 100*cl.CacheHotCoverage(64), res.CacheHits)
	}
	rep := &Report{ID: "ab-cache", Title: "Decoded-block cache budget sweep (EC+C+M+LB, YCSB-E 100 KB)", Body: b.String(), Data: out}
	return rep, results, nil
}

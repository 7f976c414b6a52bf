package sim

import (
	"fmt"
	"sort"
	"strings"

	"ecstore/internal/cache"
	"ecstore/internal/model"
	"ecstore/internal/placement"
)

// Result summarizes one simulated experiment run, carrying every quantity
// the paper's tables and figures report.
type Result struct {
	// Config is the paper's configuration label (R, EC, EC+C, ...).
	Config string

	// Requests is the number of measured requests.
	Requests int
	// Mean is the average per-phase breakdown (seconds).
	Mean model.Breakdown
	// Metrics retains the full latency sample for percentiles and CDFs.
	Metrics *Metrics

	// SiteReadRate maps each site to its measured read rate in bytes/s
	// (Figure 4d).
	SiteReadRate map[model.SiteID]float64
	// Lambda is the I/O load imbalance factor of Table II:
	// (Lmax - Lavg)/Lavg * 100 over per-site read I/O.
	Lambda float64

	// VisitsPerRequest is the average number of site visits per request.
	VisitsPerRequest float64
	// Throughput is measured requests per simulated second.
	Throughput float64
	// Moves counts executed chunk movements.
	Moves int
	// ScrubBytes is the total scrub read traffic injected across sites
	// (zero when Options.ScrubBytesPerSec is zero).
	ScrubBytes float64
	// Planner counts plans by provenance (exact, greedy, random).
	Planner placement.PlannerStats
	// StorageOverhead is the scheme's storage expansion factor.
	StorageOverhead float64

	// CacheHits/CacheMisses count decoded-block cache outcomes in the
	// measured window; Cache is the end-of-run cache snapshot. All zero
	// when the cache is disabled.
	CacheHits   int64
	CacheMisses int64
	Cache       cache.Stats

	// RangeRequests counts measured requests served through the
	// stripe-range path (Options.RangeFraction > 0).
	RangeRequests int64
}

// CacheHitRatio returns the measured-window hit ratio, or 0 when the
// cache is off or unused.
func (r *Result) CacheHitRatio() float64 {
	total := r.CacheHits + r.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(total)
}

// ResourceUsage reports the control-plane resource accounting used by the
// Table III reproduction.
type ResourceUsage struct {
	// StatsBytes approximates the statistics service's live memory.
	StatsBytes int
	// TrackedBlocks counts blocks with co-access statistics.
	TrackedBlocks int
	// WindowRequests is the sliding window's current occupancy.
	WindowRequests int
	// StatsReports counts load reports received.
	StatsReports int64
}

// CacheHotCoverage returns the fraction of the n hottest blocks (by
// sliding-window access count) currently resident in the decoded-block
// cache — a direct measure of how well stats-driven admission tracks
// the statistics service's hot set. Zero when the cache is disabled.
func (c *Cluster) CacheHotCoverage(n int) float64 {
	if c.blockCache == nil {
		return 0
	}
	hot := c.co.HottestBlocks(n)
	if len(hot) == 0 {
		return 0
	}
	resident := 0
	for _, id := range hot {
		if c.blockCache.Contains(id) {
			resident++
		}
	}
	return float64(resident) / float64(len(hot))
}

// ResourceUsage snapshots control-plane resource consumption.
func (c *Cluster) ResourceUsage() ResourceUsage {
	return ResourceUsage{
		StatsBytes:     c.co.MemoryFootprint(),
		TrackedBlocks:  c.co.TrackedBlocks(),
		WindowRequests: c.co.TotalRequests(),
		StatsReports:   c.statsReports,
	}
}

// result assembles the Result after a run.
func (c *Cluster) result(measure float64) *Result {
	r := &Result{
		Config:       c.opt.Name(),
		Requests:     c.metrics.Count(),
		Mean:         c.metrics.MeanBreakdown(),
		Metrics:      c.metrics,
		SiteReadRate: make(map[model.SiteID]float64, len(c.sites)),
		Moves:        c.moves,
		ScrubBytes:   c.scrubBytes,
		Planner:      c.planner.Stats(),
	}
	if c.opt.Scheme == model.SchemeReplicated {
		r.StorageOverhead = float64(c.opt.R + 1)
	} else {
		r.StorageOverhead = float64(c.opt.K+c.opt.R) / float64(c.opt.K)
	}
	if measure > 0 {
		r.Throughput = float64(r.Requests) / measure
	}
	if c.fetchTotal > 0 {
		r.VisitsPerRequest = float64(c.visitsTotal) / float64(c.fetchTotal)
	}
	if c.blockCache != nil {
		r.Cache = c.blockCache.Stats()
		r.CacheHits = r.Cache.Hits - c.cacheStatsAt.Hits
		r.CacheMisses = r.Cache.Misses - c.cacheStatsAt.Misses
	}
	r.RangeRequests = c.rangeReqs

	// Per-site measured I/O and the λ imbalance factor (Table II).
	// Iterate sites in ID order: rates feeds a float sum, and float
	// addition is order-sensitive, so map order would leak into λ.
	var rates []float64
	for _, id := range c.siteIDs {
		s := c.sites[id]
		if s == nil || s.failed {
			continue
		}
		rate := (s.totalBytes - c.siteBytesAt[id]) / measure
		r.SiteReadRate[id] = rate
		rates = append(rates, rate)
	}
	r.Lambda = imbalanceFactor(rates)
	return r
}

// imbalanceFactor computes λ = (Lmax - Lavg)/Lavg * 100 (Section VI-C2).
func imbalanceFactor(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum, max float64
	for _, l := range loads {
		sum += l
		if l > max {
			max = l
		}
	}
	avg := sum / float64(len(loads))
	if avg == 0 {
		return 0
	}
	return (max - avg) / avg * 100
}

// MeanMillis returns the mean breakdown scaled to milliseconds.
func (r *Result) MeanMillis() model.Breakdown {
	bd := r.Mean
	bd.Scale(1000)
	return bd
}

// String renders a one-line summary.
func (r *Result) String() string {
	bd := r.MeanMillis()
	s := fmt.Sprintf("%-11s total=%6.2fms meta=%5.2f plan=%5.2f retrieve=%6.2f decode=%5.2f p99=%6.2fms λ=%5.1f visits=%4.1f reqs=%d",
		r.Config, bd.Total(), bd.Metadata, bd.Planning, bd.Retrieve, bd.Decode,
		r.Metrics.Percentile(99)*1000, r.Lambda, r.VisitsPerRequest, r.Requests)
	if r.CacheHits+r.CacheMisses > 0 {
		s += fmt.Sprintf(" hit=%.0f%%", 100*r.CacheHitRatio())
	}
	return s
}

// SortedSiteRates returns (site, rate) pairs in site order (Figure 4d).
func (r *Result) SortedSiteRates() []struct {
	Site model.SiteID
	Rate float64
} {
	out := make([]struct {
		Site model.SiteID
		Rate float64
	}, 0, len(r.SiteReadRate))
	ids := make([]model.SiteID, 0, len(r.SiteReadRate))
	for id := range r.SiteReadRate {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		out = append(out, struct {
			Site model.SiteID
			Rate float64
		}{id, r.SiteReadRate[id]})
	}
	return out
}

// FormatBreakdownTable renders results as the paper's breakdown bars
// (Figures 1, 4b, 4e, 4g) in text form.
func FormatBreakdownTable(results []*Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %9s %9s %9s %9s\n", "config", "metadata", "planning", "retrieve", "decode", "total")
	for _, r := range results {
		bd := r.MeanMillis()
		fmt.Fprintf(&b, "%-12s %8.2f %9.2f %9.2f %9.2f %9.2f   (ms)\n",
			r.Config, bd.Metadata, bd.Planning, bd.Retrieve, bd.Decode, bd.Total())
	}
	return b.String()
}

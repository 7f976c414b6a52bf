package stats

import (
	"context"
	"fmt"

	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

// Aggregator is the statistics service state: one co-access tracker, one
// load tracker and one probe estimator, as deployed on the paper's
// dedicated statistics machine.
type Aggregator struct {
	CoAccess *CoAccessTracker
	Loads    *LoadTracker
	Probes   *ProbeEstimator

	reg         *obs.Registry
	accesses    *obs.Counter
	loadReports *obs.Counter
	probeObs    *obs.Counter
}

// EnableMetrics exports statistics-service instrumentation into reg (nil
// disables it, which is the default).
func (a *Aggregator) EnableMetrics(reg *obs.Registry) {
	a.reg = reg
	a.accesses = reg.Counter("stats_accesses_total", "sampled multi-block requests recorded")
	a.loadReports = reg.Counter("stats_load_reports_total", "site load windows reported")
	a.probeObs = reg.Counter("stats_probe_observations_total", "probe RTT observations folded into o_j")
}

// MetricsSnapshot captures the aggregator's registry (empty when metrics
// are disabled). Served remotely by the GetMetrics RPC method.
func (a *Aggregator) MetricsSnapshot() *obs.Snapshot {
	return a.reg.Snapshot()
}

// RecordAccess feeds one sampled request into the co-access tracker,
// counting it. Equivalent to calling CoAccess.Record directly, plus
// instrumentation.
func (a *Aggregator) RecordAccess(ids []model.BlockID) {
	a.accesses.Inc()
	a.CoAccess.Record(ids)
}

// ReportLoad feeds one site load window into the load tracker, counting it.
func (a *Aggregator) ReportLoad(site model.SiteID, load SiteLoad) {
	a.loadReports.Inc()
	a.Loads.Report(site, load)
}

// ObserveProbe feeds one probe RTT into the o_j estimator, counting it.
func (a *Aggregator) ObserveProbe(site model.SiteID, rtt float64) {
	a.probeObs.Inc()
	a.Probes.Observe(site, rtt)
}

// NewAggregator builds a statistics service with the given co-access
// window (0 = the paper's 5000 requests).
func NewAggregator(window int) *Aggregator {
	return &Aggregator{
		CoAccess: NewCoAccessTracker(window),
		Loads:    NewLoadTracker(),
		Probes:   NewProbeEstimator(0.3),
	}
}

// RPC method numbers of the statistics service. New methods are appended
// at the end of the iota block — numbers are part of the wire protocol and
// must never be reordered or reused (see DESIGN.md, "RPC method
// numbering").
const (
	methodRecordAccess rpc.Method = iota + 1
	_                             // 2 (ReportLoad): retired, the control plane reads loads itself
	_                             // 3 (ObserveProbe): retired, likewise for probe RTTs
	_                             // 4 (GetCosts): retired, no caller
	_                             // 5 (GetLoads): retired, no caller
	_                             // 6 (GetPartners): retired, no caller
	methodGetMetrics
)

// Server exposes an Aggregator over RPC.
type Server struct {
	agg *Aggregator
}

// NewServer wraps an aggregator.
func NewServer(agg *Aggregator) *Server { return &Server{agg: agg} }

var _ rpc.Handler = (*Server)(nil)

// Handle dispatches one statistics RPC.
func (s *Server) Handle(_ context.Context, method rpc.Method, body []byte) ([]byte, error) {
	d := wire.NewDecoder(body)
	switch method {
	case methodRecordAccess:
		n := int(d.Uint32())
		ids := make([]model.BlockID, 0, n)
		for i := 0; i < n; i++ {
			ids = append(ids, model.BlockID(d.String()))
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		s.agg.RecordAccess(ids)
		return nil, nil

	case methodGetMetrics:
		return obs.MarshalSnapshot(s.agg.MetricsSnapshot()), nil

	default:
		return nil, fmt.Errorf("stats: unknown method %d", method)
	}
}

// Client is the RPC-backed view of a remote statistics service.
type Client struct {
	rc *rpc.Client
}

// NewClient wraps an RPC client connected to a statistics server.
func NewClient(rc *rpc.Client) *Client { return &Client{rc: rc} }

// RecordAccess reports one sampled multi-block request.
func (c *Client) RecordAccess(ids []model.BlockID) error {
	e := wire.NewEncoder(16 * len(ids))
	e.Uint32(uint32(len(ids)))
	for _, id := range ids {
		e.String(string(id))
	}
	_, err := c.rc.Call(methodRecordAccess, e.Bytes())
	return err
}

// Metrics fetches the remote statistics service's metrics snapshot.
func (c *Client) Metrics() (*obs.Snapshot, error) {
	resp, err := c.rc.Call(methodGetMetrics, nil)
	if err != nil {
		return nil, err
	}
	return obs.UnmarshalSnapshot(resp)
}

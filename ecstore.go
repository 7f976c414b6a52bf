// Package ecstore is a Go implementation of EC-Store (Abebe, Daudjee,
// Glasbergen, Tian — ICDCS 2018): a distributed erasure-coded block store
// with dynamic, workload-aware data access and data movement.
//
// A Cluster stores blocks as RS(k, r) erasure-coded chunks (or replicated
// copies, for comparison) across storage sites. Reads are planned by a
// cost model that selects which chunks to fetch from which sites to
// minimize expected retrieval time (the paper's Equations 1-4), with an
// access-plan cache, a greedy fallback, and optional late binding. A
// background chunk mover co-locates co-accessed blocks and balances load
// (Equations 5-8, Algorithm 1), and a repair service reconstructs chunks
// lost to site failures.
//
// Quick start:
//
//	cluster, err := ecstore.Open(ecstore.Config{NumSites: 8})
//	if err != nil { ... }
//	defer cluster.Close()
//
//	n, err := cluster.PutReader("photo-123", file)      // streamed, bounded memory
//	head, err := cluster.GetRange("photo-123", 0, 4096) // only the touched stripes
//	blocks, breakdown, err := cluster.GetMulti([]ecstore.BlockID{"photo-123", "photo-124"})
//
// The packages under internal/ contain the full system: the Reed-Solomon
// codec, the cost-model planner (greedy and exact) and mover, the metadata,
// statistics, storage and repair services, RPC bindings for multi-process
// deployments, the deterministic cluster simulator, and the benchmark
// harness that regenerates the paper's figures and tables (see DESIGN.md
// and EXPERIMENTS.md).
package ecstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/placement"
)

// BlockID identifies a stored block.
type BlockID = model.BlockID

// Breakdown is the per-request response-time decomposition (seconds):
// metadata access, access planning, chunk retrieval, decoding.
type Breakdown = model.Breakdown

// SiteID identifies a storage site.
type SiteID = model.SiteID

// Registry collects a cluster's metrics (counters, gauges, latency
// histograms). Create one with NewRegistry and pass it in Config.Metrics.
type Registry = obs.Registry

// Trace is one finished request's span tree.
type Trace = obs.Trace

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// Scheme selects the fault-tolerance mechanism.
type Scheme int

// Fault-tolerance schemes.
const (
	// Erasure stores k data + r parity chunks per block (RS(k, r)).
	Erasure Scheme = iota + 1
	// Replicated stores r+1 full copies per block (the paper's R
	// baseline).
	Replicated
)

// AccessStrategy selects how reads are planned.
type AccessStrategy int

// Access strategies.
const (
	// CostModel plans reads by minimizing the paper's cost function
	// (the EC+C configurations).
	CostModel AccessStrategy = iota + 1
	// RandomAccess picks random chunks (the R and EC baselines).
	RandomAccess
)

// Config assembles a cluster.
type Config struct {
	// NumSites is the number of storage sites (default 8; the paper's
	// testbed uses 32).
	NumSites int
	// Scheme picks erasure coding (default) or replication.
	Scheme Scheme
	// K and R are the coding parameters; defaults RS(2, 2), tolerating
	// two site failures with 2x storage (vs 3x for replication).
	K int
	R int
	// Strategy picks the read planner (default CostModel).
	Strategy AccessStrategy
	// LateBindingDelta, when positive, fetches k+delta chunks per block
	// and uses the first k (Section IV-B1).
	LateBindingDelta int
	// EnableMover runs the background chunk mover.
	EnableMover bool
	// MoverInterval throttles movement (default 1s, <1 chunk/s as in
	// the paper).
	MoverInterval time.Duration
	// EnableRepair runs the failure detector + chunk reconstruction.
	EnableRepair bool
	// RepairGrace is how long a site must stay down before repair
	// (default 15 minutes, following GFS and the paper).
	RepairGrace time.Duration
	// EnableScrub runs the periodic checksum scrubber, which verifies
	// every chunk at rest and enqueues repair for corrupt or missing
	// ones (requires EnableRepair to actually re-protect).
	EnableScrub bool
	// ScrubInterval is the scrub sweep cadence (default 1 minute).
	ScrubInterval time.Duration
	// Background starts the control loops (probe round, mover, repair)
	// on Open. When false, call Tick to drive them manually —
	// useful for tests and deterministic examples.
	Background bool
	// Seed drives all randomized choices.
	Seed int64
	// Metrics, when non-nil, instruments every service in the cluster
	// and enables per-request tracing; snapshot it with its Snapshot
	// method or via Cluster.Metrics. Nil disables instrumentation at
	// zero cost (see OBSERVABILITY.md).
	Metrics *Registry
}

// Cluster is a single-process EC-Store deployment: in-memory storage
// services, a metadata catalog, statistics, planner, mover and repair,
// all wired together. For multi-process deployments, use the cmd/
// binaries, which expose the same services over RPC.
type Cluster struct {
	inner *core.Cluster
}

// Stats summarizes a cluster's dynamic behaviour.
type Stats struct {
	// PlanCacheHitRate is the access-plan cache hit rate (the paper
	// reports ~90% under YCSB).
	PlanCacheHitRate float64
	// ChunksMoved counts successful background chunk movements.
	ChunksMoved int64
	// ChunksRepaired counts chunks reconstructed after failures.
	ChunksRepaired int64
	// StoredBytes is the total bytes on all sites.
	StoredBytes int64
	// StorageOverhead is the scheme's expansion factor (2.0 for
	// RS(2,2), 3.0 for 3-way replication).
	StorageOverhead float64
}

// Open builds and (optionally) starts a cluster.
func Open(cfg Config) (*Cluster, error) {
	if cfg.NumSites == 0 {
		cfg.NumSites = 8
	}
	coreCfg := core.ClusterConfig{
		NumSites:      cfg.NumSites,
		EnableMover:   cfg.EnableMover,
		MoverInterval: cfg.MoverInterval,
		EnableRepair:  cfg.EnableRepair,
		RepairGrace:   cfg.RepairGrace,
		EnableScrub:   cfg.EnableScrub,
		ScrubInterval: cfg.ScrubInterval,
		Metrics:       cfg.Metrics,
	}
	coreCfg.Client = core.Config{
		K:     cfg.K,
		R:     cfg.R,
		Delta: cfg.LateBindingDelta,
		Seed:  cfg.Seed,
	}
	switch cfg.Scheme {
	case 0, Erasure:
		coreCfg.Client.Scheme = model.SchemeErasure
	case Replicated:
		coreCfg.Client.Scheme = model.SchemeReplicated
	default:
		return nil, fmt.Errorf("ecstore: unknown scheme %d", cfg.Scheme)
	}
	switch cfg.Strategy {
	case 0, CostModel:
		coreCfg.Client.Strategy = placement.StrategyCost
	case RandomAccess:
		coreCfg.Client.Strategy = placement.StrategyRandom
	default:
		return nil, fmt.Errorf("ecstore: unknown access strategy %d", cfg.Strategy)
	}

	inner, err := core.NewCluster(coreCfg)
	if err != nil {
		return nil, err
	}
	if cfg.Background {
		inner.Start()
	}
	return &Cluster{inner: inner}, nil
}

// Close stops background loops and releases resources.
func (c *Cluster) Close() { c.inner.Close() }

// Put stores a block under id, encoding and placing its chunks.
func (c *Cluster) Put(id BlockID, data []byte) error {
	return c.inner.Client.Put(id, data)
}

// PutReader streams a block from r without buffering it whole: stripe
// N encodes while stripe N-1's chunk writes are still in flight, so
// memory stays bounded regardless of block size. The block is laid out
// stripe-interleaved, which makes GetRange stripe-local (DESIGN.md
// §13). Returns the number of payload bytes stored.
//
//lint:ignore ctxfirst context-free public facade; core.Client.PutReader offers the ctx-aware entry
func (c *Cluster) PutReader(id BlockID, r io.Reader) (int64, error) {
	return c.inner.Client.PutReader(context.Background(), id, r)
}

// Get retrieves one block. Do not modify the returned slice: with the
// cache enabled it is shared with the cache and with other readers of
// the block. The same holds for GetRange and GetMulti.
func (c *Cluster) Get(id BlockID) ([]byte, error) {
	return c.inner.Client.Get(id)
}

// GetRange reads n bytes at byte offset off without assembling the
// whole block: only the stripes the range touches are fetched and
// decoded (DESIGN.md §13). Do not modify the returned slice; when the
// block is cached it is a window into the cache's copy.
//
//lint:ignore ctxfirst context-free public facade; core.Client.GetRange offers the ctx-aware entry
func (c *Cluster) GetRange(id BlockID, off, n int64) ([]byte, error) {
	return c.inner.Client.GetRange(context.Background(), id, off, n)
}

// GetMulti retrieves several blocks in one planned request and reports
// the response-time breakdown. Do not modify the returned slices (see
// Get).
func (c *Cluster) GetMulti(ids []BlockID) (map[BlockID][]byte, Breakdown, error) {
	return c.inner.Client.GetMulti(ids)
}

// Delete removes a block and its chunks.
func (c *Cluster) Delete(id BlockID) error {
	return c.inner.Client.Delete(id)
}

// Tick drives one synchronous control-plane round (one probe round and
// repair check, one movement attempt). Use when Background is false.
//
//lint:ignore ctxfirst context-free public facade; core.Cluster.Tick offers the ctx-aware entry
func (c *Cluster) Tick() { c.inner.Tick(context.Background()) }

// FailSite injects a failure at a site (1-based ids up to NumSites).
func (c *Cluster) FailSite(id SiteID) error {
	if _, ok := c.inner.Services[id]; !ok {
		return errors.New("ecstore: unknown site")
	}
	c.inner.FailSite(id)
	return nil
}

// RecoverSite heals a previously failed site.
func (c *Cluster) RecoverSite(id SiteID) error {
	if _, ok := c.inner.Services[id]; !ok {
		return errors.New("ecstore: unknown site")
	}
	c.inner.RecoverSite(id)
	return nil
}

// Stats returns a snapshot of the cluster's dynamic behaviour.
func (c *Cluster) Stats() Stats {
	s := Stats{
		PlanCacheHitRate: c.inner.Client.PlannerStats().HitRate(),
		StoredBytes:      c.inner.TotalStoredBytes(),
		StorageOverhead:  c.inner.Client.StorageOverhead(),
	}
	if c.inner.Mover != nil {
		moved, _ := c.inner.Mover.Moves()
		s.ChunksMoved = moved
	}
	if c.inner.Repair != nil {
		s.ChunksRepaired = c.inner.Repair.Repaired()
	}
	return s
}

// Metrics returns the registry passed in Config.Metrics, or nil when the
// cluster runs uninstrumented. See OBSERVABILITY.md for the metric
// families it carries.
func (c *Cluster) Metrics() *Registry { return c.inner.Metrics }

// Traces returns the n most recent finished request traces, newest
// first. It returns nil unless Config.Metrics was set (tracing rides on
// the metrics registry).
func (c *Cluster) Traces(n int) []*Trace {
	if c.inner.Tracer == nil {
		return nil
	}
	return c.inner.Tracer.Recent(n)
}

// ChunkLocations reports which sites hold each chunk of a block, in chunk
// order (diagnostic; placements change as the mover runs).
func (c *Cluster) ChunkLocations(id BlockID) ([]SiteID, error) {
	metas, err := c.inner.Catalog.Lookup([]model.BlockID{id})
	if err != nil {
		return nil, err
	}
	return append([]SiteID(nil), metas[id].Sites...), nil
}

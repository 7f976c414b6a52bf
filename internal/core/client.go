// Package core implements the EC-Store client service (Section V,
// Figure 3): the write path W1-W3 (decide placement, encode, store chunks +
// register metadata) and the read path R1-R3 (look up metadata, plan the
// access, retrieve chunks in parallel and decode), including late binding
// and per-phase response-time breakdowns.
//
// The client is hardened for partial failure: every site operation runs
// under a context with optional per-chunk and per-request deadlines,
// transient errors are retried with jittered exponential backoff, slow
// planned reads are hedged with a not-yet-planned chunk from the
// next-cheapest site, and per-site circuit breakers (package health) keep
// unhealthy sites out of fresh access plans until they recover.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/cache"
	"ecstore/internal/erasure"
	"ecstore/internal/health"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/placement"
	"ecstore/internal/stats"
	"ecstore/internal/storage"
)

// Errors returned by the client.
var (
	ErrNoSites          = errors.New("core: no storage sites")
	ErrBlockUnavailable = errors.New("core: block unavailable")
)

// RetryPolicy bounds how chunk fetches and probes are retried.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per chunk or probe
	// (1 = no retries). Zero means 1.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt up to MaxBackoff, plus up to 50% seeded jitter. Zero
	// means 10ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth. Zero means 500ms.
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 1
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 500 * time.Millisecond
	}
	return p
}

// Config selects the client's fault-tolerance scheme and strategies. Each
// of the paper's six evaluated configurations is expressible:
//
//	R           {Scheme: Replicated, Strategy: Random}
//	EC          {Scheme: Erasure, Strategy: Random}
//	EC+LB       {Scheme: Erasure, Strategy: Random, Delta: 1}
//	EC+C        {Scheme: Erasure, Strategy: Cost}
//	EC+C+M      {Scheme: Erasure, Strategy: Cost} + a running Mover
//	EC+C+M+LB   {Scheme: Erasure, Strategy: Cost, Delta: 1} + Mover
type Config struct {
	// Scheme is erasure coding or replication.
	Scheme model.Scheme
	// K and R are the RS parameters (ignored K for replication: stored
	// copies are R+1 full replicas). Defaults: K=2, R=2.
	K int
	R int
	// Strategy picks random or cost-model access planning.
	Strategy placement.Strategy
	// Delta enables late binding: fetch k+Delta chunks, use the first k.
	Delta int
	// Seed drives all client-side randomness.
	Seed int64
	// DefaultO and DefaultM seed the cost model before probes exist
	// (the paper's calibration: m_j = 1 when o_j = 5).
	DefaultO float64
	DefaultM float64

	// RequestTimeout bounds one whole GetMulti/Put/Delete call; zero
	// leaves requests unbounded (the historical behaviour).
	RequestTimeout time.Duration
	// ChunkTimeout bounds each individual chunk read or write attempt,
	// so one hung site costs at most one timeout per fetch round; zero
	// disables per-chunk deadlines.
	ChunkTimeout time.Duration
	// Retry tunes per-chunk and per-probe retransmission.
	Retry RetryPolicy
	// HedgeDelay, when positive, hedges planned chunk reads that have
	// not satisfied their block after this fixed delay.
	HedgeDelay time.Duration
	// PutFanout bounds how many chunk stores one Put issues concurrently,
	// so a burst of writes cannot spawn an unbounded goroutine swarm
	// (k+r goroutines per in-flight Put). Zero means min(k+r, 8);
	// negative means fully parallel (the historical behaviour).
	PutFanout int

	// CacheBytes enables the decoded-block cache tier with this byte
	// budget: hot blocks are kept fully decoded and served without any
	// site access, with admission driven by the co-access statistics
	// and entries keyed by placement version (a moved or overwritten
	// block never hits). Zero disables the cache.
	CacheBytes int64
	// CacheStaleTTL bounds stale-if-error serving: when a block's sites
	// are too unhealthy to reconstruct it, a cache entry invalidated up
	// to this long ago may be served instead of failing the read. Zero
	// (the default) never serves stale bytes.
	CacheStaleTTL time.Duration

	// StripeUnit is the per-chunk stripe width the streaming write path
	// (PutReader) interleaves blocks at: stripe t holds block bytes
	// [t*K*StripeUnit, (t+1)*K*StripeUnit) and contributes StripeUnit
	// bytes to every chunk. Smaller units let GetRange touch fewer bytes
	// per range; larger units amortize per-stripe overhead. Zero means
	// 64 KiB.
	StripeUnit int64
	// StreamDepth bounds how many encoded stripes one PutReader keeps in
	// flight: stripe N is encoded while up to StreamDepth earlier
	// stripes' chunk writes drain. Zero means 2; 1 disables pipelining.
	StreamDepth int
	// PackThreshold, when positive, stages erasure-coded Puts of at most
	// this many bytes into a shared pack container instead of encoding
	// each tiny block alone (which would pad every chunk). Staged blocks
	// are readable and deletable immediately but reach the sites only
	// when a container seals: at PackCapacity bytes or on FlushPacked.
	// Zero disables packing.
	PackThreshold int64
	// PackCapacity is the staged payload size that seals a pack
	// container. Zero means 1 MiB.
	PackCapacity int64
}

func (c Config) withDefaults() Config {
	if c.Scheme == 0 {
		c.Scheme = model.SchemeErasure
	}
	if c.K == 0 {
		c.K = 2
	}
	if c.R == 0 {
		c.R = 2
	}
	if c.Strategy == 0 {
		c.Strategy = placement.StrategyCost
	}
	if c.DefaultO == 0 {
		c.DefaultO = 5
	}
	if c.DefaultM == 0 {
		c.DefaultM = 1.0 / (100 * 1024) // m_j=1 per 100 KB chunk at o_j=5
	}
	if c.PutFanout == 0 {
		c.PutFanout = 8
	}
	if c.StripeUnit <= 0 {
		c.StripeUnit = 64 << 10
	}
	if c.StreamDepth <= 0 {
		c.StreamDepth = 2
	}
	if c.PackCapacity <= 0 {
		c.PackCapacity = 1 << 20
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

// probeTimeout bounds each liveness probe.
const probeTimeout = 2 * time.Second

// Client is the EC-Store client service: the component applications link
// against. It owns the erasure codec, the access planner (exact solver with
// a greedy fallback) and one connection per storage site, and implements
// the paper's read path R1-R3 (GetMulti) and write path W1-W3 (Put).
type Client struct {
	cfg    Config
	codec  *erasure.Codec // nil for replication
	meta   metadata.Service
	sites  map[model.SiteID]storage.SiteAPI
	plan   *placement.Planner
	placer *placement.Placer

	coaccess *stats.CoAccessTracker
	probes   *stats.ProbeEstimator
	zones    func() map[model.SiteID]model.SiteInfo

	// cache is the optional decoded-block tier (nil-safe: a nil cache
	// misses everything and admits nothing).
	cache *cache.Cache

	// packer stages small blocks into shared containers; nil when
	// packing is disabled (cfg.PackThreshold == 0).
	packer *packer

	obs      clientObs
	tracer   *obs.Tracer
	health   *health.Tracker
	pressure *health.Pressure // nil unless an access tier feeds one

	retry *retrier
	probe *prober
}

// clientObs is the client's instrument set; every field is nil-safe so an
// unconfigured client pays no instrumentation cost.
type clientObs struct {
	requests         *obs.Counter
	puts             *obs.Counter
	deletes          *obs.Counter
	blocks           *obs.Counter
	chunksFetched    *obs.Counter
	fetchErrors      *obs.Counter
	lateDiscarded    *obs.Counter
	replans          *obs.Counter
	hedges           *obs.Counter
	hedgesWon        *obs.Counter
	hedgesLost       *obs.Counter
	hedgesSuppressed *obs.Counter
	deadlines        *obs.Counter
	putCleanups      *obs.Counter

	streamPuts    *obs.Counter
	streamStripes *obs.Counter
	streamBytes   *obs.Counter
	rangeReads    *obs.Counter
	rangeBytes    *obs.Counter
	rangeStripes  *obs.Counter
	rangeCacheHit *obs.Counter
	packStaged    *obs.Counter
	packSealed    *obs.Counter
	packBlocks    *obs.Counter
	packBytes     *obs.Counter

	metadataH *obs.Histogram
	planH     *obs.Histogram
	fetchH    *obs.Histogram
	decodeH   *obs.Histogram
	requestH  *obs.Histogram
}

func newClientObs(reg *obs.Registry) clientObs {
	if reg == nil {
		return clientObs{}
	}
	return clientObs{
		requests:         reg.Counter("client_requests_total", "multi-block read requests"),
		puts:             reg.Counter("client_puts_total", "blocks written"),
		deletes:          reg.Counter("client_deletes_total", "blocks deleted"),
		blocks:           reg.Counter("client_blocks_total", "blocks requested across all reads"),
		chunksFetched:    reg.Counter("client_chunks_fetched_total", "chunk reads that returned data"),
		fetchErrors:      reg.Counter("client_fetch_errors_total", "chunk reads that failed"),
		lateDiscarded:    reg.Counter("client_late_binding_discarded_total", "surplus chunk responses discarded by late binding"),
		replans:          reg.Counter("client_replans_total", "re-planning rounds after mid-read site failures"),
		hedges:           reg.Counter("client_hedged_reads_total", "extra chunk reads issued for slow blocks"),
		hedgesWon:        reg.Counter("client_hedges_won_total", "hedged reads whose chunk was used"),
		hedgesLost:       reg.Counter("client_hedges_lost_total", "hedged reads that arrived too late, failed or were discarded"),
		hedgesSuppressed: reg.Counter("client_hedges_suppressed_total", "hedge opportunities skipped because the access tier reported overload"),
		deadlines:        reg.Counter("client_deadline_expirations_total", "requests abandoned because their deadline expired"),
		putCleanups:      reg.Counter("client_put_cleanups_total", "aborted writes whose stored chunks were rolled back"),
		streamPuts:       reg.Counter("stream_puts_total", "blocks written through the streaming pipeline (PutReader)"),
		streamStripes:    reg.Counter("stream_stripes_total", "stripes encoded and shipped by streaming writes"),
		streamBytes:      reg.Counter("stream_bytes_total", "payload bytes ingested by streaming writes"),
		rangeReads:       reg.Counter("range_requests_total", "byte-range read requests (GetRange)"),
		rangeBytes:       reg.Counter("range_bytes_total", "payload bytes served by range reads"),
		rangeStripes:     reg.Counter("range_stripes_decoded_total", "stripes decoded to serve range reads"),
		rangeCacheHit:    reg.Counter("range_cache_hits_total", "range reads served from cached decoded blocks"),
		packStaged:       reg.Counter("pack_staged_total", "small blocks staged into pack containers"),
		packSealed:       reg.Counter("pack_sealed_total", "pack containers sealed and registered"),
		packBlocks:       reg.Counter("pack_packed_blocks_total", "small blocks sealed inside pack containers"),
		packBytes:        reg.Counter("pack_bytes_total", "payload bytes staged for packing"),
		metadataH:        reg.Histogram("client_metadata_seconds", "read phase R1: metadata lookup latency"),
		planH:            reg.Histogram("client_plan_seconds", "read phase R2: access planning latency"),
		fetchH:           reg.Histogram("client_fetch_seconds", "read phase R3a: parallel chunk retrieval latency"),
		decodeH:          reg.Histogram("client_decode_seconds", "read phase R3b: erasure decode latency"),
		requestH:         reg.Histogram("client_request_seconds", "end-to-end multi-block read latency"),
	}
}

// newCodecMetrics builds the codec's instrument set and points
// bufpool's miss hook at the buffer_pool_miss_total counter, so one
// metric covers every data-path pool in the process (codec stripes, rpc
// frames, store reads, wire encoders). The hook is process-global; with
// several registries the most recent client's counter wins, which is
// fine for the single-registry deployments the harness runs. A nil
// registry yields nil, disabling codec instrumentation.
func newCodecMetrics(reg *obs.Registry) *erasure.Metrics {
	if reg == nil {
		return nil
	}
	miss := reg.Counter("buffer_pool_miss_total", "data-path buffer pool misses (codec, rpc and store buffers, wire encoders)")
	bufpool.SetMissHook(func() { miss.Add(1) })
	return &erasure.Metrics{
		EncodeBytes: reg.Counter("codec_encode_bytes_total", "block bytes erasure-encoded"),
		DecodeBytes: reg.Counter("codec_decode_bytes_total", "block bytes erasure-decoded"),
	}
}

// Deps wires the client to the rest of the system.
type Deps struct {
	Meta  metadata.Service
	Sites map[model.SiteID]storage.SiteAPI
	// CoAccess receives sampled multi-block requests; shared with the
	// chunk mover. Nil records nothing.
	CoAccess *stats.CoAccessTracker
	// Probes supplies o_j estimates; nil creates a private estimator.
	Probes *stats.ProbeEstimator
	// Health is the per-site breaker set, shared with the mover and
	// repair service so every component skips unhealthy sites
	// consistently. Nil creates a private tracker.
	Health *health.Tracker
	// Zones optionally supplies the per-site zone and drain-state view
	// (catalog SiteInfos). When set, writes skip draining and
	// decommissioned sites and cap chunks per failure zone at
	// model.MaxChunksPerZone(R) so one zone outage stays within the
	// erasure margin. Nil places on all connected sites, zone-blind.
	Zones func() map[model.SiteID]model.SiteInfo
	// Pressure optionally feeds access-tier load (the gateway's
	// admission-queue depth) into the read path: while it reports
	// overload, hedged reads are suppressed — duplicate speculative
	// work is the wrong response to a system that is already queueing.
	// Nil disables the coupling.
	Pressure *health.Pressure
	// Metrics optionally exports client instrumentation (request counts,
	// per-phase latency histograms, late-binding waste, planner
	// counters) into a shared registry. Nil disables it at zero cost.
	Metrics *obs.Registry
	// Tracer optionally records a per-request span tree for each
	// GetMulti (metadata/plan/fetch/decode, with per-site fetch child
	// spans). Nil disables tracing at zero cost.
	Tracer *obs.Tracer
}

// NewClient builds a client service.
func NewClient(cfg Config, deps Deps) (*Client, error) {
	cfg = cfg.withDefaults()
	if len(deps.Sites) == 0 {
		return nil, ErrNoSites
	}
	var codec *erasure.Codec
	if cfg.Scheme == model.SchemeErasure {
		var err error
		codec, err = erasure.NewCodecWith(cfg.K, cfg.R, erasure.Options{
			Metrics: newCodecMetrics(deps.Metrics),
		})
		if err != nil {
			return nil, fmt.Errorf("build codec: %w", err)
		}
	}
	placer, placerErr := placement.NewPlacer(placement.PlaceRandom, nil, cfg.Seed+1)
	if placerErr != nil {
		return nil, placerErr
	}
	probes := deps.Probes
	if probes == nil {
		probes = stats.NewProbeEstimator(0.3)
	}
	tracker := deps.Health
	if tracker == nil {
		tracker = health.NewTracker(health.Config{Metrics: deps.Metrics})
	}
	blockCache := cache.New(cache.Config{
		MaxBytes: cfg.CacheBytes,
		StaleTTL: cfg.CacheStaleTTL,
		Seed:     cfg.Seed + 3,
		Metrics:  deps.Metrics,
	})
	if blockCache != nil {
		// The sweeper only has work when stale-if-error retention is
		// on, but running it unconditionally keeps the lifecycle
		// uniform; Close stops it either way.
		sweep := cfg.CacheStaleTTL
		if sweep <= 0 {
			sweep = 30 * time.Second
		}
		blockCache.StartMaintenance(sweep)
	}
	cl := &Client{
		cfg:   cfg,
		codec: codec,
		meta:  deps.Meta,
		sites: deps.Sites,
		plan: placement.NewPlanner(placement.PlannerConfig{
			Strategy: cfg.Strategy,
			Delta:    cfg.Delta,
			Seed:     cfg.Seed,
			Metrics:  deps.Metrics,
		}),
		placer:   placer,
		coaccess: deps.CoAccess,
		probes:   probes,
		zones:    deps.Zones,
		cache:    blockCache,
		obs:      newClientObs(deps.Metrics),
		tracer:   deps.Tracer,
		health:   tracker,
		pressure: deps.Pressure,
		retry:    newRetrier(cfg, deps.Metrics),
	}
	cl.probe = &prober{cfg: cfg, sites: deps.Sites, health: tracker, retry: cl.retry, observe: probes.Observe}
	if cfg.PackThreshold > 0 && cfg.Scheme == model.SchemeErasure {
		cl.packer = newPacker(cl)
	}
	return cl, nil
}

// Close stops the cache's background maintenance goroutine, waiting for
// it to drain.
func (c *Client) Close() {
	c.cache.Close()
}

// Codec exposes the erasure codec (nil under replication).
func (c *Client) Codec() *erasure.Codec { return c.codec }

// PlannerStats returns the planner's provenance counters.
func (c *Client) PlannerStats() placement.PlannerStats { return c.plan.Stats() }

// CacheStats returns decoded-block cache statistics (zero when the
// cache is disabled).
func (c *Client) CacheStats() cache.Stats { return c.cache.Stats() }

// Health exposes the client's site breaker set.
func (c *Client) Health() *health.Tracker { return c.health }

// StorageOverhead returns the configured scheme's storage expansion factor.
func (c *Client) StorageOverhead() float64 {
	if c.cfg.Scheme == model.SchemeReplicated {
		return float64(c.cfg.R + 1)
	}
	return float64(c.cfg.K+c.cfg.R) / float64(c.cfg.K)
}

// MarkFailed records a site as unavailable for planning by forcing its
// breaker open (manual marking; mid-read failures report to the breaker
// instead, which honours the failure threshold).
func (c *Client) MarkFailed(s model.SiteID) { c.health.ForceOpen(s) }

// MarkAvailable clears a site's failed mark by closing its breaker.
func (c *Client) MarkAvailable(s model.SiteID) { c.health.Reset(s) }

// available reports whether a site is believed reachable: only sites
// with a closed breaker join fresh access plans.
func (c *Client) available(s model.SiteID) bool { return c.health.Available(s) }

// costs materializes the current cost model from probe estimates.
func (c *Client) costs() *model.SiteCosts {
	return c.probes.Costs(c.cfg.DefaultO, c.cfg.DefaultM)
}

// totalChunks returns how many chunks (or copies) each block stores.
func (c *Client) totalChunks() int {
	if c.cfg.Scheme == model.SchemeReplicated {
		return c.cfg.R + 1
	}
	return c.cfg.K + c.cfg.R
}

// requestCtx applies the configured per-request deadline.
func (c *Client) requestCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.cfg.RequestTimeout > 0 {
		return context.WithTimeout(ctx, c.cfg.RequestTimeout)
	}
	return context.WithCancel(ctx)
}

// chunkCtx applies the configured per-chunk deadline.
func (c *Client) chunkCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.cfg.ChunkTimeout > 0 {
		return context.WithTimeout(ctx, c.cfg.ChunkTimeout)
	}
	return ctx, func() {}
}

// Put stores a block under id (write path W1-W3).
//
//lint:ignore ctxfirst context-free convenience entry over PutContext; timeouts still apply via cfg.RequestTimeout
func (c *Client) Put(id model.BlockID, data []byte) error {
	return c.PutContext(context.Background(), id, data)
}

// PutContext stores a block under a caller-supplied context. If any chunk
// store or the metadata registration fails, the chunks already written are
// deleted best-effort so an aborted write does not orphan storage.
func (c *Client) PutContext(ctx context.Context, id model.BlockID, data []byte) error {
	if id == "" {
		return errors.New("core: empty block id")
	}
	// Small-block packing: below the threshold the block is staged into
	// a shared container instead of being encoded alone (a lone tiny
	// block pads every chunk to the 64-byte kernel boundary and pays k+r
	// RPCs for a handful of bytes). Staged blocks read and delete
	// normally; their bytes hit the sites when the container seals.
	if c.packer != nil && int64(len(data)) <= c.cfg.PackThreshold {
		return c.packer.put(ctx, id, data)
	}
	ctx, cancel := c.requestCtx(ctx)
	defer cancel()
	chosen, err := c.place(c.totalChunks())
	if err != nil {
		return fmt.Errorf("place %s: %w", id, err)
	}

	var chunks [][]byte
	var chunkSize int64
	var stripe *erasure.Stripe
	if c.cfg.Scheme == model.SchemeReplicated {
		chunks = make([][]byte, c.cfg.R+1)
		for i := range chunks {
			chunks[i] = data
		}
		chunkSize = int64(len(data))
	} else {
		// EncodePooled avoids copying the data path: full data chunks
		// alias data, and padding + parity live in one pooled backing
		// released below. Safe because every consumer copies on ingest:
		// the local Service's store copies on Put, and the RPC client
		// finishes writing the chunk to the socket before returning.
		stripe, err = c.codec.EncodePooled(data)
		if err != nil {
			return fmt.Errorf("encode %s: %w", id, err)
		}
		chunks = stripe.Chunks()
		chunkSize = int64(len(chunks[0]))
	}

	// Store chunks with bounded fan-out: at most cfg.PutFanout workers
	// drain the chunk list, so concurrent Puts cannot multiply into an
	// unbounded goroutine swarm while one slow site backs writes up.
	errs := make([]error, len(chunks))
	workers := c.cfg.PutFanout
	if workers < 0 || workers > len(chunks) {
		workers = len(chunks)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(chunks) {
					return
				}
				site := c.sites[chosen[i]]
				if site == nil {
					errs[i] = fmt.Errorf("%w: site %d", ErrNoSites, chosen[i])
					continue
				}
				cctx, ccancel := c.chunkCtx(ctx)
				errs[i] = site.PutChunk(cctx, model.ChunkRef{Block: id, Chunk: i}, chunks[i])
				ccancel()
			}
		}()
	}
	wg.Wait()
	// Every site has ingested (or failed) its chunk; recycle the pooled
	// stripe before the slower metadata and rollback steps.
	if stripe != nil {
		stripe.Release()
		chunks = nil
	}
	for i, err := range errs {
		if err != nil {
			c.cleanupChunks(ctx, id, chosen, errs)
			return fmt.Errorf("store chunk %d of %s: %w", i, id, err)
		}
	}

	k := c.cfg.K
	if c.cfg.Scheme == model.SchemeReplicated {
		k = 1
	}
	meta := &model.BlockMeta{
		ID:        id,
		Scheme:    c.cfg.Scheme,
		Size:      int64(len(data)),
		K:         k,
		R:         c.cfg.R,
		ChunkSize: chunkSize,
		Sites:     chosen,
	}
	if err := c.meta.Register(meta); err != nil {
		c.cleanupChunks(ctx, id, chosen, nil)
		return fmt.Errorf("register %s: %w", id, err)
	}
	// A re-created id must never be served from bytes cached under a
	// previous incarnation.
	c.cache.Invalidate(id)
	c.obs.puts.Inc()
	return nil
}

// cleanupChunks best-effort deletes the chunks an aborted Put already
// wrote: every position whose error entry is nil (a nil errs deletes all
// of them). Without this, a failed write would leak orphaned chunks until
// a repair scrub finds them. The rollback detaches from the request's
// cancellation — the Put that triggered it may have failed precisely
// because its context expired — but stays bounded by its own timeout.
func (c *Client) cleanupChunks(ctx context.Context, id model.BlockID, chosen []model.SiteID, errs []error) {
	timeout := c.cfg.ChunkTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), timeout)
	defer cancel()
	var wg sync.WaitGroup
	for i, siteID := range chosen {
		if errs != nil && errs[i] != nil {
			continue
		}
		api := c.sites[siteID]
		if api == nil {
			continue
		}
		wg.Add(1)
		go func(api storage.SiteAPI, ref model.ChunkRef) {
			defer wg.Done()
			_ = api.DeleteChunk(ctx, ref)
		}(api, model.ChunkRef{Block: id, Chunk: i})
	}
	wg.Wait()
	c.obs.putCleanups.Inc()
}

// retrier spaces chunk-read and probe retries by cfg.Retry's jittered
// exponential backoff and counts them.
type retrier struct {
	policy  RetryPolicy
	retries *obs.Counter
	mu      sync.Mutex
	rng     *rand.Rand
}

func newRetrier(cfg Config, reg *obs.Registry) *retrier {
	return &retrier{
		policy:  cfg.Retry,
		retries: reg.Counter("client_retries_total", "chunk and probe attempts retried after transient errors"),
		rng:     rand.New(rand.NewSource(cfg.Seed + 2)),
	}
}

// wait counts one retry and sleeps its backoff before the given attempt
// (1-based); false when the context expired first.
func (r *retrier) wait(ctx context.Context, attempt int) bool {
	r.retries.Inc()
	d := r.policy.BaseBackoff << uint(attempt-1)
	if d > r.policy.MaxBackoff || d <= 0 {
		d = r.policy.MaxBackoff
	}
	r.mu.Lock()
	jitter := time.Duration(r.rng.Int63n(int64(d)/2 + 1))
	r.mu.Unlock()
	t := time.NewTimer(d + jitter)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// retryable reports whether an error is worth retrying against the same
// site: transient transport and site errors are, while missing chunks
// (stale metadata) and context expiry (the attempt already consumed its
// deadline, or the caller is gone) are not.
func retryable(err error) bool {
	return !errors.Is(err, storage.ErrChunkNotFound) &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// Delete removes a block and its chunks.
//
//lint:ignore ctxfirst context-free convenience entry over DeleteContext; timeouts still apply via cfg.RequestTimeout
func (c *Client) Delete(id model.BlockID) error {
	return c.DeleteContext(context.Background(), id)
}

// DeleteContext removes a block and its chunks under a caller context.
// A block still staged for packing is simply unstaged; a sealed pack
// member is unregistered from its container's member table, whose
// chunks stay put until the container itself is deleted (the catalog
// returns its metadata with no sites, so the chunk loop is a no-op).
func (c *Client) DeleteContext(ctx context.Context, id model.BlockID) error {
	ctx, cancel := c.requestCtx(ctx)
	defer cancel()
	if c.packer != nil && c.packer.unstage(id) {
		c.obs.deletes.Inc()
		return nil
	}
	meta, err := c.meta.Delete(id)
	if err != nil {
		return fmt.Errorf("unregister %s: %w", id, err)
	}
	c.cache.Invalidate(id)
	var wg sync.WaitGroup
	for chunk, site := range meta.Sites {
		api := c.sites[site]
		if api == nil {
			continue
		}
		wg.Add(1)
		go func(api storage.SiteAPI, ref model.ChunkRef) {
			defer wg.Done()
			cctx, ccancel := c.chunkCtx(ctx)
			defer ccancel()
			// Best effort: repair garbage-collects orphans.
			_ = api.DeleteChunk(cctx, ref)
		}(api, model.ChunkRef{Block: id, Chunk: chunk})
	}
	wg.Wait()
	c.obs.deletes.Inc()
	return nil
}

// ProbeAll measures a load-status round trip to every probeable site in
// parallel, feeding o_j estimates and breaker state (Section V-B3).
// Closed breakers are always probed; open ones only once their backoff
// admits a half-open recovery probe, so a down site is not hammered.
//
//lint:ignore ctxfirst context-free convenience entry over ProbeAllContext; each probe still carries probeTimeout
func (c *Client) ProbeAll() { c.ProbeAllContext(context.Background()) }

// ProbeAllContext is ProbeAll under a caller-supplied context. Each probe
// additionally carries the 2 s probe timeout.
func (c *Client) ProbeAllContext(ctx context.Context) { c.probe.round(ctx) }

// place selects destination sites for a new block's chunks under the
// shared eligibility rule. With a zone view wired (Deps.Zones), draining
// and decommissioned sites take no new chunks and zone caps apply. The
// breaker input is left at "all closed": one transient chunk error opens
// a breaker for its whole backoff, and that must neither fail nor skew a
// write the site would have taken — a Put to a truly dead site fails at
// PutChunk and is rolled back.
func (c *Client) place(chunks int) ([]model.SiteID, error) {
	var rule placement.Eligibility
	if c.zones != nil {
		rule.Infos = c.zones()
	}
	return c.placer.Place(c.siteIDs(), chunks, rule.ForBlock(nil, -1, model.MaxChunksPerZone(c.cfg.R)))
}

func (c *Client) siteIDs() []model.SiteID { return model.SortedSites(c.sites) }

// isSiteFailure classifies an error as a site-level failure (as opposed to
// a missing chunk, which indicates stale metadata rather than an outage).
func isSiteFailure(err error) bool {
	return !errors.Is(err, storage.ErrChunkNotFound)
}

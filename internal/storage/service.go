package storage

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/rpc"
	"ecstore/internal/stats"
	"ecstore/internal/wire"
)

// ServiceConfig tunes one storage service (one site of the data plane).
type ServiceConfig struct {
	// Site is this service's identity.
	Site model.SiteID
	// ReadDelayPerByte optionally throttles reads to emulate a storage
	// medium (m_j) in real-mode experiments; zero disables throttling.
	ReadDelayPerByte time.Duration
	// ReadDelayFixed is a per-read fixed latency; zero disables it.
	ReadDelayFixed time.Duration
	// Clock abstracts time for tests; nil uses the wall clock.
	Clock func() time.Time
	// Sleep abstracts throttling for tests; nil uses a context-aware
	// timer so a canceled read stops throttling early.
	Sleep func(time.Duration)
	// Metrics optionally exports per-site instrumentation into a shared
	// registry (families are labeled by site id). Nil disables it with
	// zero overhead on the data path.
	Metrics *obs.Registry
}

// siteMetrics is one storage service's instrument set, labeled by site.
// Every field is nil-safe, so a disabled registry costs nothing.
type siteMetrics struct {
	reads        *obs.Counter
	writes       *obs.Counter
	deletes      *obs.Counter
	errors       *obs.Counter
	readBytes    *obs.Counter
	writeBytes   *obs.Counter
	rangeReads   *obs.Counter
	streamWrites *obs.Counter
	verifies     *obs.Counter
	corrupt      *obs.Counter
	readLatency  *obs.Histogram
	failed       *obs.Gauge
}

func newSiteMetrics(reg *obs.Registry, site model.SiteID) siteMetrics {
	if reg == nil {
		return siteMetrics{}
	}
	label := strconv.FormatInt(int64(site), 10)
	return siteMetrics{
		reads:        reg.CounterVec("storage_reads_total", "site", "chunk reads served").With(label),
		writes:       reg.CounterVec("storage_writes_total", "site", "chunk writes served").With(label),
		deletes:      reg.CounterVec("storage_deletes_total", "site", "chunk/block deletes served").With(label),
		errors:       reg.CounterVec("storage_errors_total", "site", "failed storage operations (including failure injection)").With(label),
		readBytes:    reg.CounterVec("storage_read_bytes_total", "site", "bytes read from the store").With(label),
		writeBytes:   reg.CounterVec("storage_write_bytes_total", "site", "bytes written to the store").With(label),
		rangeReads:   reg.CounterVec("storage_range_reads_total", "site", "stripe-range chunk reads served (GetChunkRange)").With(label),
		streamWrites: reg.CounterVec("storage_stream_writes_total", "site", "streamed chunk segment writes served (PutChunkStream)").With(label),
		verifies:     reg.CounterVec("storage_verifies_total", "site", "chunk checksum verifications served (VerifyChunk)").With(label),
		corrupt:      reg.CounterVec("storage_corrupt_total", "site", "chunks found corrupt (CRC/length mismatch) by reads or verifies").With(label),
		readLatency:  reg.HistogramVec("storage_read_seconds", "site", "chunk read service time including media throttle (m_j)").With(label),
		failed:       reg.Gauge("storage_failed_sites", "sites currently failure-injected"),
	}
}

// Service wraps a Store with the behaviours the control plane depends on:
// read/write accounting for load reports (Section V-A), load-status probes
// that expose queueing delay (o_j estimation), and failure injection for
// the fault-tolerance experiments (Section VI-C4).
type Service struct {
	cfg   ServiceConfig
	store Store
	obs   siteMetrics
	reg   *obs.Registry

	mu         sync.Mutex
	failed     bool
	bytesRead  int64
	bytesWrite int64
	reads      int64
	writes     int64
	busy       time.Duration
	windowFrom time.Time
}

// NewService wraps a store.
func NewService(cfg ServiceConfig, store Store) *Service {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Service{
		cfg:        cfg,
		store:      store,
		obs:        newSiteMetrics(cfg.Metrics, cfg.Site),
		reg:        cfg.Metrics,
		windowFrom: cfg.Clock(),
	}
}

// MetricsSnapshot captures the service's registry (empty when metrics are
// disabled). Served remotely by the GetMetrics RPC method.
func (s *Service) MetricsSnapshot() *obs.Snapshot {
	return s.reg.Snapshot()
}

// Site returns the service's site id.
func (s *Service) Site() model.SiteID { return s.cfg.Site }

// Fail marks the site unavailable: every data operation errors until
// Recover is called.
func (s *Service) Fail() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.failed {
		s.obs.failed.Add(1)
	}
	s.failed = true
}

// Recover marks the site available again.
func (s *Service) Recover() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		s.obs.failed.Add(-1)
	}
	s.failed = false
}

// Failed reports whether the site is failed.
func (s *Service) Failed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

func (s *Service) checkUp(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return fmt.Errorf("%w: site %d", ErrSiteDown, s.cfg.Site)
	}
	return nil
}

// sleep applies the media throttle, honoring the caller's deadline. A
// custom Sleep (tests) runs unconditionally, then the context is checked.
func (s *Service) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if s.cfg.Sleep != nil {
		s.cfg.Sleep(d)
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// PutChunk stores a chunk.
func (s *Service) PutChunk(ctx context.Context, ref model.ChunkRef, data []byte) error {
	if err := s.checkUp(ctx); err != nil {
		s.obs.errors.Inc()
		return err
	}
	if err := s.store.Put(ref, data); err != nil {
		s.obs.errors.Inc()
		return err
	}
	s.mu.Lock()
	s.bytesWrite += int64(len(data))
	s.writes++
	s.mu.Unlock()
	s.obs.writes.Inc()
	s.obs.writeBytes.Add(int64(len(data)))
	return nil
}

// GetChunk reads a chunk. The returned buffer is the caller's (see
// SiteAPI).
func (s *Service) GetChunk(ctx context.Context, ref model.ChunkRef) ([]byte, error) {
	return s.read(ctx, func() ([]byte, error) { return s.store.Get(ref) })
}

// GetChunkRange reads n bytes of a chunk starting at byte offset off —
// the per-chunk window a stripe-range read needs.
func (s *Service) GetChunkRange(ctx context.Context, ref model.ChunkRef, off, n int64) ([]byte, error) {
	data, err := s.read(ctx, func() ([]byte, error) { return s.store.GetAt(ref, off, n) })
	if err == nil {
		s.obs.rangeReads.Inc()
	}
	return data, err
}

// read serves one store read, applying the configured media throttle and
// accounting the read for load reports. The throttle is scaled by the
// bytes actually served, so a range read occupies the medium
// proportionally less than a whole-chunk read, and it respects the
// caller's context, so an abandoned read stops occupying the medium.
func (s *Service) read(ctx context.Context, get func() ([]byte, error)) ([]byte, error) {
	if err := s.checkUp(ctx); err != nil {
		s.obs.errors.Inc()
		return nil, err
	}
	start := s.cfg.Clock()
	data, err := get()
	if err != nil {
		s.obs.errors.Inc()
		if errors.Is(err, ErrCorruptChunk) {
			s.obs.corrupt.Inc()
		}
		return nil, err
	}
	if err := s.sleep(ctx, s.cfg.ReadDelayFixed+time.Duration(len(data))*s.cfg.ReadDelayPerByte); err != nil {
		s.obs.errors.Inc()
		bufpool.Put(data)
		return nil, err
	}
	elapsed := s.cfg.Clock().Sub(start)
	s.mu.Lock()
	s.bytesRead += int64(len(data))
	s.reads++
	s.busy += elapsed
	s.mu.Unlock()
	s.obs.reads.Inc()
	s.obs.readBytes.Add(int64(len(data)))
	s.obs.readLatency.ObserveDuration(elapsed)
	return data, nil
}

// PutChunkStream writes one segment of a chunk at byte offset off — the
// streaming put path delivers each stripe's chunk segment as it is
// encoded, so a chunk accumulates across calls. Unlike PutChunk the
// write is not atomic for the chunk as a whole; the block becomes
// visible only when the catalog registration commits it (see the
// package doc).
func (s *Service) PutChunkStream(ctx context.Context, ref model.ChunkRef, off int64, data []byte) error {
	if err := s.checkUp(ctx); err != nil {
		s.obs.errors.Inc()
		return err
	}
	if err := s.store.PutAt(ref, off, data); err != nil {
		s.obs.errors.Inc()
		return err
	}
	s.mu.Lock()
	s.bytesWrite += int64(len(data))
	s.writes++
	s.mu.Unlock()
	s.obs.writes.Inc()
	s.obs.streamWrites.Inc()
	s.obs.writeBytes.Add(int64(len(data)))
	return nil
}

// DeleteChunk removes a chunk.
func (s *Service) DeleteChunk(ctx context.Context, ref model.ChunkRef) error {
	if err := s.checkUp(ctx); err != nil {
		s.obs.errors.Inc()
		return err
	}
	if err := s.store.Delete(ref); err != nil {
		s.obs.errors.Inc()
		return err
	}
	s.obs.deletes.Inc()
	return nil
}

// DeleteBlock removes every chunk of a block.
func (s *Service) DeleteBlock(ctx context.Context, id model.BlockID) error {
	if err := s.checkUp(ctx); err != nil {
		s.obs.errors.Inc()
		return err
	}
	if err := s.store.DeleteBlock(id); err != nil {
		s.obs.errors.Inc()
		return err
	}
	s.obs.deletes.Inc()
	return nil
}

// ListChunks lists stored chunks (used by repair and the scrubber).
func (s *Service) ListChunks(ctx context.Context) ([]model.ChunkRef, error) {
	if err := s.checkUp(ctx); err != nil {
		return nil, err
	}
	return s.store.List()
}

// VerifyChunk checks one chunk's stored bytes against its checksum
// header, sealing it first if the streaming put path left it unsealed.
// The media throttle is scaled by the chunk's length — a verify reads
// the whole payload off the medium, and the scrubber's own byte throttle
// rides on top. Corruption fails with ErrCorruptChunk; the caller (the
// scrubber) deletes the bad copy and enqueues repair.
func (s *Service) VerifyChunk(ctx context.Context, ref model.ChunkRef) (ChunkCheck, error) {
	if err := s.checkUp(ctx); err != nil {
		s.obs.errors.Inc()
		return ChunkCheck{}, err
	}
	start := s.cfg.Clock()
	check, err := s.store.Seal(ref)
	s.obs.verifies.Inc()
	if err != nil {
		s.obs.errors.Inc()
		if errors.Is(err, ErrCorruptChunk) {
			s.obs.corrupt.Inc()
		}
		return ChunkCheck{}, err
	}
	if err := s.sleep(ctx, s.cfg.ReadDelayFixed+time.Duration(check.Length)*s.cfg.ReadDelayPerByte); err != nil {
		s.obs.errors.Inc()
		return ChunkCheck{}, err
	}
	elapsed := s.cfg.Clock().Sub(start)
	s.mu.Lock()
	s.bytesRead += check.Length
	s.reads++
	s.busy += elapsed
	s.mu.Unlock()
	s.obs.readBytes.Add(check.Length)
	return check, nil
}

// Store exposes the underlying chunk store. The fault injector uses it
// to reach the RawMutator corruption hook; nothing on the data path does.
func (s *Service) Store() Store { return s.store }

// Probe is the load-status endpoint: it returns an error when failed and
// nil otherwise. Its round-trip time, measured by the caller, feeds the
// o_j estimate.
func (s *Service) Probe(ctx context.Context) error {
	return s.checkUp(ctx)
}

// LoadReport drains the accounting window and returns a stats.SiteLoad:
// CPU is approximated by the busy fraction of the window, I/O by the read
// rate.
func (s *Service) LoadReport(ctx context.Context) (stats.SiteLoad, error) {
	if err := s.checkUp(ctx); err != nil {
		return stats.SiteLoad{}, err
	}
	count, err := s.store.Count()
	if err != nil {
		return stats.SiteLoad{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock()
	window := now.Sub(s.windowFrom)
	load := stats.SiteLoad{Chunks: count}
	if window > 0 {
		load.CPU = float64(s.busy) / float64(window)
		if load.CPU > 1 {
			load.CPU = 1
		}
		load.IOBytesPerSec = float64(s.bytesRead) / window.Seconds()
	}
	s.bytesRead = 0
	s.bytesWrite = 0
	s.reads = 0
	s.writes = 0
	s.busy = 0
	s.windowFrom = now
	return load, nil
}

// StoredBytes returns the total bytes held by the underlying store (even
// while failed, for experiment accounting).
func (s *Service) StoredBytes() (int64, error) {
	return s.store.Bytes()
}

// Totals returns cumulative (reads, writes) counters since construction.
func (s *Service) Totals() (reads, writes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads, s.writes
}

// RPC method numbers of the storage service. New methods are appended at
// the end of the iota block — numbers are part of the wire protocol and
// must never be reordered (see DESIGN.md, "RPC method numbering").
const (
	methodPutChunk rpc.Method = iota + 1
	methodGetChunk
	methodDeleteChunk
	methodDeleteBlock
	methodListChunks
	methodProbe
	methodLoadReport
	methodGetMetrics
	methodGetChunkRange
	methodPutChunkStream
	methodVerifyChunk
)

// VerifyChunk response status codes. Corruption and absence are results,
// not transport errors: rpc flattens application errors into strings
// (rpc.RemoteError), so sentinel identity would not survive the wire.
const (
	verifyOK       = 0
	verifyCorrupt  = 1
	verifyNotFound = 2
)

// Server exposes a Service over RPC.
type Server struct {
	svc *Service
}

// NewRPCServer wraps a storage service.
func NewRPCServer(svc *Service) *Server { return &Server{svc: svc} }

var _ rpc.Handler = (*Server)(nil)

func decodeRef(d *wire.Decoder) model.ChunkRef {
	return model.ChunkRef{Block: model.BlockID(d.String()), Chunk: int(d.Uint32())}
}

func encodeRef(e *wire.Encoder, ref model.ChunkRef) {
	e.String(string(ref.Block))
	e.Uint32(uint32(ref.Chunk))
}

// Handle dispatches one storage RPC, threading the connection context into
// the service so dropped callers stop occupying the site.
func (s *Server) Handle(ctx context.Context, method rpc.Method, body []byte) ([]byte, error) {
	d := wire.NewDecoder(body)
	switch method {
	case methodPutChunk:
		// The chunk is the request's raw trailing payload: Rest aliases
		// the request frame (no copy), which the rpc server recycles when
		// this returns; the store's Put contract is to copy on ingest.
		ref := decodeRef(d)
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, s.svc.PutChunk(ctx, ref, d.Rest())

	case methodGetChunk:
		ref := decodeRef(d)
		if err := d.Err(); err != nil {
			return nil, err
		}
		// The chunk is the whole response body; the rpc server writes it
		// as a vectored payload without an intermediate encoder copy.
		data, err := s.svc.GetChunk(ctx, ref)
		return ownedResult(ctx, data, err)

	case methodDeleteChunk:
		ref := decodeRef(d)
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, s.svc.DeleteChunk(ctx, ref)

	case methodDeleteBlock:
		id := model.BlockID(d.String())
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, s.svc.DeleteBlock(ctx, id)

	case methodListChunks:
		refs, err := s.svc.ListChunks(ctx)
		if err != nil {
			return nil, err
		}
		e := wire.NewEncoder(24 * len(refs))
		e.Uint32(uint32(len(refs)))
		for _, ref := range refs {
			encodeRef(e, ref)
		}
		return e.Bytes(), nil

	case methodGetChunkRange:
		// Request: ref | off u64 | n u32. Response: the segment as the
		// whole body, vectored like GetChunk.
		ref := decodeRef(d)
		off := d.Uint64()
		n := d.Uint32()
		if err := d.Err(); err != nil {
			return nil, err
		}
		data, err := s.svc.GetChunkRange(ctx, ref, int64(off), int64(n))
		return ownedResult(ctx, data, err)

	case methodPutChunkStream:
		// Request: ref | off u64 | segment as the raw trailing payload.
		// Rest aliases the request frame; the store copies on ingest.
		ref := decodeRef(d)
		off := d.Uint64()
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, s.svc.PutChunkStream(ctx, ref, int64(off), d.Rest())

	case methodVerifyChunk:
		// Response: status u8 | sealed u8 | length u64 | crc u32. The
		// status byte carries corrupt/not-found across the wire so the
		// client can rebuild the sentinel errors locally.
		ref := decodeRef(d)
		if err := d.Err(); err != nil {
			return nil, err
		}
		check, err := s.svc.VerifyChunk(ctx, ref)
		status := uint8(verifyOK)
		switch {
		case errors.Is(err, ErrCorruptChunk):
			status = verifyCorrupt
		case errors.Is(err, ErrChunkNotFound):
			status = verifyNotFound
		case err != nil:
			return nil, err
		}
		e := wire.NewEncoder(16)
		e.Uint8(status)
		sealed := uint8(0)
		if check.Sealed {
			sealed = 1
		}
		e.Uint8(sealed)
		e.Uint64(uint64(check.Length))
		e.Uint32(check.CRC)
		return e.Bytes(), nil

	case methodProbe:
		return nil, s.svc.Probe(ctx)

	case methodGetMetrics:
		return obs.MarshalSnapshot(s.svc.MetricsSnapshot()), nil

	case methodLoadReport:
		load, err := s.svc.LoadReport(ctx)
		if err != nil {
			return nil, err
		}
		e := wire.NewEncoder(24)
		e.Float64(load.CPU)
		e.Float64(load.IOBytesPerSec)
		e.Uint32(uint32(load.Chunks))
		return e.Bytes(), nil

	default:
		return nil, fmt.Errorf("storage: unknown method %d", method)
	}
}

// ownedResult returns a chunk read's result after telling the rpc
// server that the chunk buffer is this handler's alone — the service
// just read it off the store for this one request — so it goes back to
// bufpool once the response is written.
func ownedResult(ctx context.Context, data []byte, err error) ([]byte, error) {
	if err == nil {
		rpc.ReleaseAfterWrite(ctx, data)
	}
	return data, err
}

// Client is the RPC-backed view of one remote storage service.
type Client struct {
	rc *rpc.Client
}

// NewRPCClient wraps an RPC client connected to a storage server.
func NewRPCClient(rc *rpc.Client) *Client { return &Client{rc: rc} }

// PutChunk stores a chunk remotely. data is sent as the request's raw
// trailing payload (vectored onto the socket, never copied into an
// encoder buffer) and must stay immutable until PutChunk returns.
func (c *Client) PutChunk(ctx context.Context, ref model.ChunkRef, data []byte) error {
	e := wire.GetEncoder()
	encodeRef(e, ref)
	_, err := c.rc.CallContextPayload(ctx, methodPutChunk, e.Bytes(), data)
	wire.PutEncoder(e)
	return err
}

// GetChunk reads a chunk remotely. The response body is the chunk: it
// was read straight into a bufpool buffer that is returned as-is, so the
// caller owns it without a copy and can release it by the slice alone.
func (c *Client) GetChunk(ctx context.Context, ref model.ChunkRef) ([]byte, error) {
	e := wire.GetEncoder()
	encodeRef(e, ref)
	resp, err := c.rc.CallContextPooled(ctx, methodGetChunk, e.Bytes())
	wire.PutEncoder(e)
	return resp, err
}

// GetChunkRange reads a chunk segment remotely. Like GetChunk, the
// response body is the segment itself in a caller-owned bufpool buffer.
func (c *Client) GetChunkRange(ctx context.Context, ref model.ChunkRef, off, n int64) ([]byte, error) {
	e := wire.GetEncoder()
	encodeRef(e, ref)
	e.Uint64(uint64(off))
	e.Uint32(uint32(n))
	resp, err := c.rc.CallContextPooled(ctx, methodGetChunkRange, e.Bytes())
	wire.PutEncoder(e)
	return resp, err
}

// PutChunkStream writes a chunk segment remotely at the given offset.
// The segment rides as the request's raw trailing payload and must stay
// immutable until the call returns.
func (c *Client) PutChunkStream(ctx context.Context, ref model.ChunkRef, off int64, data []byte) error {
	e := wire.GetEncoder()
	encodeRef(e, ref)
	e.Uint64(uint64(off))
	_, err := c.rc.CallContextPayload(ctx, methodPutChunkStream, e.Bytes(), data)
	wire.PutEncoder(e)
	return err
}

// DeleteChunk removes a chunk remotely.
func (c *Client) DeleteChunk(ctx context.Context, ref model.ChunkRef) error {
	e := wire.NewEncoder(24)
	encodeRef(e, ref)
	_, err := c.rc.CallContext(ctx, methodDeleteChunk, e.Bytes())
	return err
}

// DeleteBlock removes every chunk of a block remotely.
func (c *Client) DeleteBlock(ctx context.Context, id model.BlockID) error {
	e := wire.NewEncoder(16)
	e.String(string(id))
	_, err := c.rc.CallContext(ctx, methodDeleteBlock, e.Bytes())
	return err
}

// ListChunks lists remotely stored chunks.
func (c *Client) ListChunks(ctx context.Context) ([]model.ChunkRef, error) {
	resp, err := c.rc.CallContext(ctx, methodListChunks, nil)
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(resp)
	n := int(d.Uint32())
	out := make([]model.ChunkRef, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, decodeRef(d))
	}
	return out, d.Err()
}

// VerifyChunk verifies a chunk remotely, reconstructing the corrupt /
// not-found sentinels from the response's status byte.
func (c *Client) VerifyChunk(ctx context.Context, ref model.ChunkRef) (ChunkCheck, error) {
	e := wire.NewEncoder(24)
	encodeRef(e, ref)
	resp, err := c.rc.CallContext(ctx, methodVerifyChunk, e.Bytes())
	if err != nil {
		return ChunkCheck{}, err
	}
	d := wire.NewDecoder(resp)
	status := d.Uint8()
	sealed := d.Uint8()
	length := d.Uint64()
	crc := d.Uint32()
	if err := d.Err(); err != nil {
		return ChunkCheck{}, err
	}
	switch status {
	case verifyCorrupt:
		return ChunkCheck{}, fmt.Errorf("%w: %s", ErrCorruptChunk, ref)
	case verifyNotFound:
		return ChunkCheck{}, fmt.Errorf("%w: %s", ErrChunkNotFound, ref)
	}
	return ChunkCheck{Sealed: sealed != 0, Length: int64(length), CRC: crc}, nil
}

// Probe checks liveness.
func (c *Client) Probe(ctx context.Context) error {
	_, err := c.rc.CallContext(ctx, methodProbe, nil)
	return err
}

// Metrics fetches the remote service's metrics snapshot.
func (c *Client) Metrics() (*obs.Snapshot, error) {
	resp, err := c.rc.Call(methodGetMetrics, nil)
	if err != nil {
		return nil, err
	}
	return obs.UnmarshalSnapshot(resp)
}

// LoadReport fetches and resets the site's accounting window.
func (c *Client) LoadReport(ctx context.Context) (stats.SiteLoad, error) {
	resp, err := c.rc.CallContext(ctx, methodLoadReport, nil)
	if err != nil {
		return stats.SiteLoad{}, err
	}
	d := wire.NewDecoder(resp)
	load := stats.SiteLoad{
		CPU:           d.Float64(),
		IOBytesPerSec: d.Float64(),
		Chunks:        int(d.Uint32()),
	}
	return load, d.Err()
}

// SiteAPI is the storage-site surface shared by the local Service and the
// RPC Client so the client service and repair service work in both modes.
// Every method takes a context so callers can bound and cancel site
// operations (per-chunk deadlines, hedged reads, parallel probes).
//
// Buffers: PutChunk and PutChunkStream borrow data until they return.
// GetChunk and GetChunkRange return a buffer the caller owns exclusively;
// it comes from bufpool, so a caller that is done with it may
// bufpool.Put it (the read path does, after decode) and one that keeps
// it or forgets it leaves it to the garbage collector.
type SiteAPI interface {
	PutChunk(ctx context.Context, ref model.ChunkRef, data []byte) error
	GetChunk(ctx context.Context, ref model.ChunkRef) ([]byte, error)
	GetChunkRange(ctx context.Context, ref model.ChunkRef, off, n int64) ([]byte, error)
	PutChunkStream(ctx context.Context, ref model.ChunkRef, off int64, data []byte) error
	DeleteChunk(ctx context.Context, ref model.ChunkRef) error
	DeleteBlock(ctx context.Context, id model.BlockID) error
	ListChunks(ctx context.Context) ([]model.ChunkRef, error)
	VerifyChunk(ctx context.Context, ref model.ChunkRef) (ChunkCheck, error)
	Probe(ctx context.Context) error
	LoadReport(ctx context.Context) (stats.SiteLoad, error)
}

var (
	_ SiteAPI = (*Service)(nil)
	_ SiteAPI = (*Client)(nil)
)

package main

import (
	"context"
	"io"
	"net"
	"sync/atomic"

	"ecstore/internal/gateway"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/rpc"
	"ecstore/internal/stats"
	"ecstore/internal/storage"
)

// The decorators below are the benchmark's only instrumentation: each
// wraps one public interface of the system and records a span around
// every call into it. They are installed only in a traced run
// (--trace 1); an untraced run measures the system with nothing wrapped.

// traceProxy wraps the gateway's view of core.Client. It mints the
// request id and puts it in the context so the SiteAPI spans below it
// name their request.
type traceProxy struct {
	inner gateway.Proxy
	rec   *recorder
}

var _ gateway.Proxy = (*traceProxy)(nil)

func (p *traceProxy) begin(ctx context.Context, op string) (context.Context, int32) {
	req := p.rec.mint()
	idx := p.rec.open(span{Layer: layerCore, Op: op, Parent: -1, Req: req})
	if idx < 0 {
		return ctx, idx
	}
	return withReq(ctx, reqInfo{id: req, span: idx}), idx
}

func (p *traceProxy) PutContext(ctx context.Context, id model.BlockID, data []byte) error {
	ctx, idx := p.begin(ctx, "put")
	err := p.inner.PutContext(ctx, id, data)
	p.rec.close(idx, int64(len(data)), err)
	return err
}

func (p *traceProxy) PutReader(ctx context.Context, id model.BlockID, r io.Reader) (int64, error) {
	ctx, idx := p.begin(ctx, "put_stream")
	n, err := p.inner.PutReader(ctx, id, r)
	p.rec.close(idx, n, err)
	return n, err
}

func (p *traceProxy) GetContext(ctx context.Context, id model.BlockID) ([]byte, error) {
	ctx, idx := p.begin(ctx, "get")
	data, err := p.inner.GetContext(ctx, id)
	p.rec.close(idx, int64(len(data)), err)
	return data, err
}

func (p *traceProxy) GetRange(ctx context.Context, id model.BlockID, off, n int64) ([]byte, error) {
	ctx, idx := p.begin(ctx, "get_range")
	data, err := p.inner.GetRange(ctx, id, off, n)
	p.rec.close(idx, int64(len(data)), err)
	return data, err
}

func (p *traceProxy) DeleteContext(ctx context.Context, id model.BlockID) error {
	ctx, idx := p.begin(ctx, "delete")
	err := p.inner.DeleteContext(ctx, id)
	p.rec.close(idx, 0, err)
	return err
}

// traceMeta wraps the client side of the metadata RPC. The interface
// carries no context, so these spans find their parent by interval.
// Only the three data-path calls get their own op name.
type traceMeta struct {
	metadata.Service
	rec *recorder
}

func (m *traceMeta) Register(meta *model.BlockMeta) error {
	idx := m.rec.open(root(layerMeta, "register"))
	err := m.Service.Register(meta)
	m.rec.close(idx, 0, err)
	return err
}

func (m *traceMeta) Lookup(ids []model.BlockID) (map[model.BlockID]*model.BlockMeta, error) {
	idx := m.rec.open(root(layerMeta, "lookup"))
	out, err := m.Service.Lookup(ids)
	m.rec.close(idx, 0, err)
	return out, err
}

func (m *traceMeta) Delete(id model.BlockID) (*model.BlockMeta, error) {
	idx := m.rec.open(root(layerMeta, "delete"))
	out, err := m.Service.Delete(id)
	m.rec.close(idx, 0, err)
	return out, err
}

// traceSite wraps the client side of one site's RPC. Probe, LoadReport,
// ListChunks and VerifyChunk are control-plane calls and pass through.
type traceSite struct {
	inner storage.SiteAPI
	rec   *recorder
	site  int32
}

var _ storage.SiteAPI = (*traceSite)(nil)

func (s *traceSite) open(ctx context.Context, op string, block model.BlockID) int32 {
	info := reqFrom(ctx)
	return s.rec.open(span{Layer: layerSite, Op: op, Parent: info.span, Req: info.id, Site: s.site, Block: string(block)})
}

func (s *traceSite) PutChunk(ctx context.Context, ref model.ChunkRef, data []byte) error {
	idx := s.open(ctx, "put_chunk", ref.Block)
	err := s.inner.PutChunk(ctx, ref, data)
	s.rec.close(idx, int64(len(data)), err)
	return err
}

func (s *traceSite) GetChunk(ctx context.Context, ref model.ChunkRef) ([]byte, error) {
	idx := s.open(ctx, "get_chunk", ref.Block)
	data, err := s.inner.GetChunk(ctx, ref)
	s.rec.close(idx, int64(len(data)), err)
	return data, err
}

func (s *traceSite) GetChunkRange(ctx context.Context, ref model.ChunkRef, off, n int64) ([]byte, error) {
	idx := s.open(ctx, "get_range", ref.Block)
	data, err := s.inner.GetChunkRange(ctx, ref, off, n)
	s.rec.close(idx, int64(len(data)), err)
	return data, err
}

func (s *traceSite) PutChunkStream(ctx context.Context, ref model.ChunkRef, off int64, data []byte) error {
	idx := s.open(ctx, "put_stream", ref.Block)
	err := s.inner.PutChunkStream(ctx, ref, off, data)
	s.rec.close(idx, int64(len(data)), err)
	return err
}

func (s *traceSite) DeleteChunk(ctx context.Context, ref model.ChunkRef) error {
	idx := s.open(ctx, "delete", ref.Block)
	err := s.inner.DeleteChunk(ctx, ref)
	s.rec.close(idx, 0, err)
	return err
}

func (s *traceSite) DeleteBlock(ctx context.Context, id model.BlockID) error {
	idx := s.open(ctx, "delete", id)
	err := s.inner.DeleteBlock(ctx, id)
	s.rec.close(idx, 0, err)
	return err
}

func (s *traceSite) ListChunks(ctx context.Context) ([]model.ChunkRef, error) {
	return s.inner.ListChunks(ctx)
}

func (s *traceSite) VerifyChunk(ctx context.Context, ref model.ChunkRef) (storage.ChunkCheck, error) {
	return s.inner.VerifyChunk(ctx, ref)
}

func (s *traceSite) Probe(ctx context.Context) error { return s.inner.Probe(ctx) }

func (s *traceSite) LoadReport(ctx context.Context) (stats.SiteLoad, error) {
	return s.inner.LoadReport(ctx)
}

// traceStore wraps one site's chunk store, below the storage.Service:
// its spans are the disk's share of a server-side handler span, fsync
// included.
type traceStore struct {
	storage.Store
	rec  *recorder
	site int32
}

func (s *traceStore) Put(ref model.ChunkRef, data []byte) error {
	idx := s.rec.open(span{Layer: layerDisk, Op: "put", Parent: -1, Site: s.site})
	err := s.Store.Put(ref, data)
	s.rec.close(idx, int64(len(data)), err)
	return err
}

func (s *traceStore) PutAt(ref model.ChunkRef, off int64, data []byte) error {
	idx := s.rec.open(span{Layer: layerDisk, Op: "put_at", Parent: -1, Site: s.site})
	err := s.Store.PutAt(ref, off, data)
	s.rec.close(idx, int64(len(data)), err)
	return err
}

func (s *traceStore) Get(ref model.ChunkRef) ([]byte, error) {
	idx := s.rec.open(span{Layer: layerDisk, Op: "get", Parent: -1, Site: s.site})
	data, err := s.Store.Get(ref)
	s.rec.close(idx, int64(len(data)), err)
	return data, err
}

func (s *traceStore) GetAt(ref model.ChunkRef, off, n int64) ([]byte, error) {
	idx := s.rec.open(span{Layer: layerDisk, Op: "get_at", Parent: -1, Site: s.site})
	data, err := s.Store.GetAt(ref, off, n)
	s.rec.close(idx, int64(len(data)), err)
	return data, err
}

// traceHandler wraps a server's rpc.Handler: the span is the time the
// request spent inside the server process, so a client-side span minus
// its handler span is what rpc, wire and transport cost both ways.
// inflight lets the rig wait for requests whose caller already left.
type traceHandler struct {
	inner    rpc.Handler
	rec      *recorder
	layer    layer
	site     int32
	inflight *atomic.Int64
}

func (h *traceHandler) Handle(ctx context.Context, method rpc.Method, body []byte) ([]byte, error) {
	h.inflight.Add(1)
	idx := h.rec.open(span{Layer: h.layer, Op: "handle", Parent: -1, Site: h.site})
	out, err := h.inner.Handle(ctx, method, body)
	h.rec.close(idx, int64(len(body)+len(out)), err)
	h.inflight.Add(-1)
	return out, err
}

// countedConn counts the bytes crossing one client-side connection.
// Wrapping hides *net.TCPConn's vectored-write fast path from
// net.Buffers, which is one reason an untraced run wraps nothing.
type countedConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// Package rpc implements the remote-procedure-call substrate connecting
// EC-Store's services (the paper's deployment uses Apache Thrift). It
// provides a concurrent client with request pipelining/multiplexing and a
// server that dispatches method handlers, both over any net.Conn.
//
// Protocol (all frames produced by package wire):
//
//	request frame:  uint64 request id | uint8 method | body...
//	response frame: uint64 request id | uint8 status | body-or-error...
//
// Buffer ownership. Both read loops take the frame's length prefix and
// the 9-byte rpc header into a small per-connection array and read the
// body into a buffer of its own that starts at the body, so a body that
// came from bufpool can be released by the slice alone:
//
//   - The server reads every request body into a bufpool buffer, lends it
//     to the handler, and puts it back once the response is written (a
//     result may alias the request). A handler that keeps request bytes
//     past its return must copy them.
//   - A handler's result is written and then forgotten, unless the
//     handler declared it exclusively owned with ReleaseAfterWrite; then
//     the server puts it back once the response is on the wire.
//   - The client reads a response body into a bufpool buffer only for
//     CallContextPooled, whose caller promises to own (and ideally
//     release) it; other calls get an exact-size allocation, because a
//     pooled buffer that is never released costs a whole size class.
package rpc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/obs"
	"ecstore/internal/wire"
)

// Method identifies an RPC endpoint within a service.
type Method uint8

// Status bytes in response frames.
const (
	statusOK  = 0
	statusErr = 1
)

// Errors returned by the client.
var (
	ErrClientClosed = errors.New("rpc: client closed")
	ErrShortFrame   = errors.New("rpc: malformed frame")
)

// RemoteError is an application error transported from the server.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return "rpc: remote error: " + e.Msg }

// Handler dispatches one request. Implementations must be safe for
// concurrent use; the server invokes handlers from multiple goroutines.
// The context is canceled when the request's connection closes or the
// server shuts down, so long-running handlers can abandon work whose
// caller is gone. body is lent to the handler: the result may alias it,
// but the server recycles it once the response has been written, so
// nothing else may keep a reference past Handle's return.
type Handler interface {
	Handle(ctx context.Context, method Method, body []byte) ([]byte, error)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, method Method, body []byte) ([]byte, error)

// Handle implements Handler.
func (f HandlerFunc) Handle(ctx context.Context, method Method, body []byte) ([]byte, error) {
	return f(ctx, method, body)
}

var _ Handler = (HandlerFunc)(nil)

// Metrics instruments one RPC endpoint (a server or a client). All fields
// are nil-safe, so a nil *Metrics disables instrumentation entirely.
type Metrics struct {
	// Requests counts dispatched requests (server) or issued calls
	// (client).
	Requests *obs.Counter
	// Errors counts handler errors (server) or failed calls (client).
	Errors *obs.Counter
	// Latency is the request service time (server: handler execution;
	// client: full round trip including queueing).
	Latency *obs.Histogram
	// Conns gauges currently open connections (server only).
	Conns *obs.Gauge
}

// NewMetrics registers the standard instrument set under the given name
// prefix (for example "rpc_server" yields rpc_server_requests_total,
// rpc_server_errors_total, rpc_server_seconds, rpc_server_conns). A nil
// registry yields nil, which disables instrumentation.
func NewMetrics(reg *obs.Registry, prefix string) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Requests: reg.Counter(prefix+"_requests_total", "RPC requests dispatched"),
		Errors:   reg.Counter(prefix+"_errors_total", "RPC requests that returned an error"),
		Latency:  reg.Histogram(prefix+"_seconds", "RPC request latency"),
		Conns:    reg.Gauge(prefix+"_conns", "open RPC connections"),
	}
}

// observe records one completed request. Nil-safe.
func (m *Metrics) observe(start time.Time, err error) {
	if m == nil {
		return
	}
	m.Requests.Inc()
	if err != nil {
		m.Errors.Inc()
	}
	m.Latency.ObserveSince(start)
}

func (m *Metrics) connDelta(d int64) {
	if m == nil {
		return
	}
	m.Conns.Add(d)
}

// headerSize is the fixed front of every frame: wire's uint32 length
// prefix, then the uint64 request id and the method-or-status byte.
const headerSize = 4 + 9

// readHeader reads one frame's fixed front into hdr and returns the
// request id, the method-or-status byte and how many body bytes follow
// on r. hdr is the caller's per-connection scratch. The length prefix is
// validated before the rest of the header is waited for: a frame too
// short to carry an rpc header is malformed, not incomplete.
func readHeader(r io.Reader, hdr *[headerSize]byte) (id uint64, tag uint8, bodyLen int, err error) {
	got, err := io.ReadAtLeast(r, hdr[:], 4)
	if err != nil {
		return 0, 0, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > wire.MaxFrameSize {
		return 0, 0, 0, fmt.Errorf("%w: %d bytes", wire.ErrFrameTooLarge, n)
	}
	if n < headerSize-4 {
		return 0, 0, 0, ErrShortFrame
	}
	if _, err := io.ReadFull(r, hdr[got:]); err != nil {
		return 0, 0, 0, fmt.Errorf("read frame header: %w", err)
	}
	return binary.BigEndian.Uint64(hdr[4:12]), hdr[12], int(n) - (headerSize - 4), nil
}

// request is the server's per-request state, reachable from the
// handler's context.
type request struct {
	release []byte // set by ReleaseAfterWrite
}

type requestKey struct{}

// ReleaseAfterWrite declares that buf — the result the handler is about
// to return — came from bufpool and is exclusively the handler's: the
// server puts it back once the response has been written. Only a
// handler knows that; a result that is shared (a cached block) must
// never be declared. Under a context that is not a server's request
// context it does nothing and buf is left to the garbage collector.
func ReleaseAfterWrite(ctx context.Context, buf []byte) {
	if req, ok := ctx.Value(requestKey{}).(*request); ok {
		req.release = buf
	}
}

// Server accepts connections and serves requests against a Handler.
type Server struct {
	handler Handler
	metrics *Metrics

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns a server for the handler.
func NewServer(h Handler) *Server {
	return &Server{handler: h, conns: make(map[net.Conn]bool)}
}

// SetMetrics attaches instrumentation (nil disables it). Call before Serve.
func (s *Server) SetMetrics(m *Metrics) { s.metrics = m }

// Serve accepts connections from l until Close is called or the listener
// fails. It blocks; run it in a goroutine the caller owns.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("rpc: server closed")
	}
	s.listener = l
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = true
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes every connection, and waits for in-flight
// requests to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if l != nil {
		err = l.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

// serveConn processes requests from one connection until it closes.
// Requests are handled concurrently; responses are serialized by a write
// mutex so interleaved handlers cannot corrupt framing. Every handler
// shares a per-connection context canceled when the connection drops, so
// abandoned requests stop consuming the server.
func (s *Server) serveConn(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	s.metrics.connDelta(1)
	defer s.metrics.connDelta(-1)
	//lint:ignore ctxfirst per-connection lifecycle root (canceled when the connection drops); no caller context exists at accept time, matching net/http
	ctx, cancel := context.WithCancel(context.Background())
	var writeMu sync.Mutex
	var handlers sync.WaitGroup
	defer handlers.Wait()
	// Declared after handlers.Wait so LIFO runs cancel first: in-flight
	// handlers observe the cancellation instead of being waited on.
	defer cancel()

	var hdr [headerSize]byte
	for {
		reqID, tag, n, err := readHeader(conn, &hdr)
		if err != nil {
			return // closed, or a malformed peer; drop the connection
		}
		method := Method(tag)
		body := bufpool.Get(n)
		if _, err := io.ReadFull(conn, body); err != nil {
			bufpool.Put(body)
			return
		}

		handlers.Add(1)
		go func() {
			defer handlers.Done()
			start := time.Now()
			req := new(request)
			result, herr := s.handler.Handle(context.WithValue(ctx, requestKey{}, req), method, body)
			s.metrics.observe(start, herr)
			// The response header rides a pooled encoder and the handler's
			// result goes out as the frame's vectored payload, so chunk-sized
			// results are never copied into an encoder buffer.
			e := wire.GetEncoder()
			e.Uint64(reqID)
			if herr != nil {
				e.Uint8(statusErr)
				e.String(herr.Error())
				result = nil
			} else {
				e.Uint8(statusOK)
			}
			writeMu.Lock()
			_ = wire.WriteFrameBuffers(conn, e.Bytes(), result)
			writeMu.Unlock()
			wire.PutEncoder(e)
			// Only now, because the result may alias the request body.
			bufpool.Put(body)
			bufpool.Put(req.release)
		}()
	}
}

// Client is a concurrent RPC client over a single connection. Multiple
// goroutines may Call simultaneously; requests are pipelined and responses
// are matched by request id.
type Client struct {
	conn    net.Conn
	metrics *Metrics

	writeMu sync.Mutex

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*pendingCall
	closed  bool
	readErr error

	done chan struct{}
}

// pendingCall is one issued request awaiting its response.
type pendingCall struct {
	ch chan response // buffered for the one response
	// pooled asks the read loop for a bufpool response body.
	pooled bool
	// abandoned is set by a caller that stopped waiting. The read loop
	// may already have claimed the call and be reading its body, so both
	// sides look for the response once they know: whichever finds it in
	// ch releases its pooled body.
	abandoned atomic.Bool
}

// deliver hands the call its response.
func (p *pendingCall) deliver(r response) {
	p.ch <- r
	if p.abandoned.Load() {
		p.discard()
	}
}

// abandon is the caller walking away from a response that may still
// arrive.
func (p *pendingCall) abandon() {
	p.abandoned.Store(true)
	p.discard()
}

func (p *pendingCall) discard() {
	select {
	case r := <-p.ch:
		if p.pooled {
			bufpool.Put(r.body)
		}
	default:
	}
}

type response struct {
	body []byte
	err  error
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		pending: make(map[uint64]*pendingCall),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// SetMetrics attaches instrumentation (nil disables it).
func (c *Client) SetMetrics(m *Metrics) { c.metrics = m }

// Close terminates the connection and fails all pending calls.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}

// Call sends one request and waits for its response with no deadline.
//
//lint:ignore ctxfirst context-free convenience entry over CallContext for callers with no deadline policy
func (c *Client) Call(method Method, body []byte) ([]byte, error) {
	return c.CallContext(context.Background(), method, body)
}

// CallContext sends one request and waits for its response until the
// context is done. An abandoned call's response is discarded by the read
// loop when it eventually arrives; the request keeps executing on the
// server (there is no cancel frame in the protocol), matching how a
// network timeout behaves against a slow peer.
func (c *Client) CallContext(ctx context.Context, method Method, body []byte) ([]byte, error) {
	return c.CallContextPayload(ctx, method, body, nil)
}

// CallContextPayload is CallContext with a raw trailing payload that is
// written to the connection directly (vectored, via net.Buffers) instead
// of being copied into the request encoder. On the wire the request body
// is simply body followed by payload; the server cannot tell the two
// apart. Neither slice is retained after the call returns, but payload
// must stay immutable until then — it may be mid-write on the socket.
func (c *Client) CallContextPayload(ctx context.Context, method Method, body, payload []byte) ([]byte, error) {
	start := time.Now()
	resp, err := c.call(ctx, method, body, payload, false)
	c.metrics.observe(start, err)
	return resp, err
}

// CallContextPooled is CallContext for callers that consume the response
// and are done with it: the body is read into a bufpool buffer, which
// the caller owns exclusively and should bufpool.Put when finished.
// Bulk reads whose bytes live for one hop (chunk fetches) use it.
func (c *Client) CallContextPooled(ctx context.Context, method Method, body []byte) ([]byte, error) {
	start := time.Now()
	resp, err := c.call(ctx, method, body, nil, true)
	c.metrics.observe(start, err)
	return resp, err
}

func (c *Client) call(ctx context.Context, method Method, body, payload []byte, pooled bool) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		return nil, err
	}
	c.nextID++
	id := c.nextID
	call := &pendingCall{ch: make(chan response, 1), pooled: pooled}
	c.pending[id] = call
	c.mu.Unlock()

	// Request header and body ride a pooled encoder; payload (chunk
	// data) is attached as the frame's vectored tail without a copy.
	e := wire.GetEncoder()
	e.Uint64(id)
	e.Uint8(uint8(method))
	e.Raw(body)

	c.writeMu.Lock()
	err := wire.WriteFrameBuffers(c.conn, e.Bytes(), payload)
	c.writeMu.Unlock()
	wire.PutEncoder(e)
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, fmt.Errorf("send request: %w", err)
	}

	select {
	case resp := <-call.ch:
		return resp.body, resp.err
	case <-ctx.Done():
		// Abandon the call: drop the pending entry so the read loop
		// treats the eventual response as stale.
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		call.abandon()
		return nil, ctx.Err()
	}
}

// readLoop dispatches responses to waiting callers until the connection
// fails or the client closes. The header names the call before its body
// is read, so the body lands directly in the kind of buffer that call
// asked for, and a stale response is drained without buffering it.
func (c *Client) readLoop() {
	defer close(c.done)
	var hdr [headerSize]byte
	for {
		id, status, n, err := readHeader(c.conn, &hdr)
		if err != nil {
			c.failAll(err)
			return
		}

		c.mu.Lock()
		call, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if !ok {
			// Stale response for an abandoned request.
			if _, err := io.CopyN(io.Discard, c.conn, int64(n)); err != nil {
				c.failAll(err)
				return
			}
			continue
		}
		var body []byte
		if call.pooled {
			body = bufpool.Get(n)
		} else {
			body = make([]byte, n)
		}
		if _, err := io.ReadFull(c.conn, body); err != nil {
			err = fmt.Errorf("read frame body: %w", err)
			if call.pooled {
				bufpool.Put(body)
			}
			call.deliver(response{err: fmt.Errorf("rpc: connection failed: %w", err)})
			c.failAll(err)
			return
		}
		if status == statusOK {
			call.deliver(response{body: body})
			continue
		}
		msg := wire.NewDecoder(body).String()
		if call.pooled {
			bufpool.Put(body)
		}
		call.deliver(response{err: &RemoteError{Msg: msg}})
	}
}

// failAll fails every pending call with err and marks the client closed.
// The pending set is detached under the lock and notified after it is
// released: the response channels are buffered, but sending while
// holding c.mu would couple this mutex to every waiter's progress.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
	}
	if c.readErr == nil {
		c.readErr = err
	}
	pending := c.pending
	c.pending = make(map[uint64]*pendingCall)
	c.mu.Unlock()
	for _, call := range pending {
		call.deliver(response{err: fmt.Errorf("rpc: connection failed: %w", err)})
	}
}

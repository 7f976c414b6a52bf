package gateway

import (
	"context"
	"fmt"

	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

// Gateway RPC methods: the native front speaks the same zero-copy frame
// protocol as the data plane, with the tenant identity carried in-band
// on every request.
const (
	methodGwPut rpc.Method = iota + 1
	methodGwGet
	methodGwRange
	methodGwDelete
	methodGwMetrics
)

// Server adapts a Gateway to the rpc.Handler interface.
type Server struct {
	gw  *Gateway
	reg *obs.Registry
}

// NewRPCServer builds the native RPC binding. reg (may be nil) backs
// the metrics method.
func NewRPCServer(gw *Gateway, reg *obs.Registry) *Server {
	return &Server{gw: gw, reg: reg}
}

// Handle dispatches one gateway RPC.
func (s *Server) Handle(ctx context.Context, method rpc.Method, body []byte) ([]byte, error) {
	d := wire.NewDecoder(body)
	switch method {
	case methodGwPut:
		// Request: tenant | key | block data as the raw trailing
		// payload. It aliases the request frame, which the rpc server
		// recycles when Handle returns: PutContext has shipped every
		// chunk (or copied the block into the packer) by then.
		tenant := d.String()
		key := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, s.gw.Put(ctx, tenant, model.BlockID(key), d.Rest())

	case methodGwGet:
		tenant := d.String()
		key := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		// The block is the whole response body (vectored write). It may
		// be the cache's resident copy, so unlike a site's chunk reads it
		// is never declared with rpc.ReleaseAfterWrite.
		return s.gw.Get(ctx, tenant, model.BlockID(key))

	case methodGwRange:
		tenant := d.String()
		key := d.String()
		off := d.Uint64()
		n := d.Uint64()
		if err := d.Err(); err != nil {
			return nil, err
		}
		return s.gw.GetRange(ctx, tenant, model.BlockID(key), int64(off), int64(n))

	case methodGwDelete:
		tenant := d.String()
		key := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, s.gw.Delete(ctx, tenant, model.BlockID(key))

	case methodGwMetrics:
		if s.reg == nil {
			return nil, fmt.Errorf("gateway: metrics registry disabled")
		}
		return obs.MarshalSnapshot(s.reg.Snapshot()), nil

	default:
		return nil, fmt.Errorf("gateway: unknown method %d", method)
	}
}

// Client is the native RPC client for one tenant: a thin stub that
// carries the tenant identity on every call.
type Client struct {
	rc     *rpc.Client
	tenant string
}

// NewRPCClient wraps an rpc.Client for the given tenant.
func NewRPCClient(rc *rpc.Client, tenant string) *Client {
	return &Client{rc: rc, tenant: tenant}
}

func (c *Client) header(key model.BlockID, extra int) *wire.Encoder {
	e := wire.NewEncoder(8 + len(c.tenant) + len(key) + extra)
	e.String(c.tenant)
	e.String(string(key))
	return e
}

// Put stores a block through the gateway.
func (c *Client) Put(ctx context.Context, id model.BlockID, data []byte) error {
	e := c.header(id, 0)
	_, err := c.rc.CallContextPayload(ctx, methodGwPut, e.Bytes(), data)
	return err
}

// Get fetches a block through the gateway.
func (c *Client) Get(ctx context.Context, id model.BlockID) ([]byte, error) {
	e := c.header(id, 0)
	return c.rc.CallContext(ctx, methodGwGet, e.Bytes())
}

// GetRange fetches n bytes at offset off through the gateway.
func (c *Client) GetRange(ctx context.Context, id model.BlockID, off, n int64) ([]byte, error) {
	e := c.header(id, 16)
	e.Uint64(uint64(off))
	e.Uint64(uint64(n))
	return c.rc.CallContext(ctx, methodGwRange, e.Bytes())
}

// Delete removes a block through the gateway.
func (c *Client) Delete(ctx context.Context, id model.BlockID) error {
	e := c.header(id, 0)
	_, err := c.rc.CallContext(ctx, methodGwDelete, e.Bytes())
	return err
}

// Metrics fetches the gateway's metric snapshot.
func (c *Client) Metrics(ctx context.Context) (*obs.Snapshot, error) {
	body, err := c.rc.CallContext(ctx, methodGwMetrics, nil)
	if err != nil {
		return nil, err
	}
	return obs.UnmarshalSnapshot(body)
}

package metadata

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/rpc"
	"ecstore/internal/wire"
)

// Service is the metadata API shared by the in-process Catalog and the
// RPC-backed Client, so the client service works identically in
// single-process and distributed deployments.
type Service interface {
	Register(meta *model.BlockMeta) error
	Lookup(ids []model.BlockID) (map[model.BlockID]*model.BlockMeta, error)
	Delete(id model.BlockID) (*model.BlockMeta, error)
	UpdatePlacement(id model.BlockID, chunk int, to model.SiteID, expectVersion uint64) (uint64, error)
	BlocksOnSite(s model.SiteID) []model.BlockID
	Sites() []model.SiteID
	// Background-task coordination (tasks.go): the catalog is the durable
	// store the scheduler and the CLIs share.
	PutTask(t *model.TaskRecord) error
	ListTasks() []*model.TaskRecord
	DeleteTask(id string) error
	// Site administrative state: zone labels and drain/decommission.
	SetSiteInfo(info model.SiteInfo) error
	SiteInfos() map[model.SiteID]model.SiteInfo
}

var (
	_ Service = (*Catalog)(nil)
	_ Service = (*Client)(nil)
)

// IsNotFound reports whether a Lookup error means the service answered
// and the block does not exist — ErrNotFound from a Catalog in process, a
// *rpc.RemoteError from a Client (the only application error a Lookup
// can transport) — as opposed to a transport failure, after which
// nothing is known about the block. Background work treats the former as
// "nothing left to do" and must fail, and so retry, on the latter.
func IsNotFound(err error) bool {
	var remote *rpc.RemoteError
	return errors.Is(err, ErrNotFound) || errors.As(err, &remote)
}

// RPC method numbers of the metadata service. New methods are appended at
// the end of the iota block — numbers are part of the wire protocol and
// must never be reordered (see DESIGN.md, "RPC method numbering").
const (
	methodRegister rpc.Method = iota + 1
	methodLookup
	methodDelete
	methodUpdatePlacement
	methodBlocksOnSite
	methodSites
	methodGetMetrics
	methodPutTask
	methodListTasks
	methodDeleteTask
	methodSetSiteInfo
	methodSiteInfos
)

// Bounds shared by the encoder's callers and the decoder: Register
// rejects metadata past these caps so that every record the WAL or a
// snapshot accepts is also decodable at replay (the decoder additionally
// bounds counts against the bytes actually present).
const (
	maxBlockSites  = 1 << 16
	maxPackMembers = 1 << 20
)

// encodedBlockMetaSize is the exact byte length EncodeBlockMeta produces
// for m: 65 fixed bytes (3 string prefixes, sites/members counts, the
// scalar fields) plus the variable payloads. Kept in lockstep with
// EncodeBlockMeta so Register can bound a record before logging it.
func encodedBlockMetaSize(m *model.BlockMeta) int {
	n := 65 + len(m.ID) + 8*len(m.Sites) + len(m.PackedIn)
	for _, pm := range m.Members {
		n += 20 + len(pm.ID)
	}
	return n
}

// EncodeBlockMeta serializes block metadata. The layout extends the
// original record in place (appended fields only, never reordered):
// stripe unit, packed-member linkage, and the container member table.
func EncodeBlockMeta(e *wire.Encoder, m *model.BlockMeta) {
	e.String(string(m.ID))
	e.Uint8(uint8(m.Scheme))
	e.Int64(m.Size)
	e.Uint32(uint32(m.K))
	e.Uint32(uint32(m.R))
	e.Int64(m.ChunkSize)
	e.Uint64(m.Version)
	e.Uint32(uint32(len(m.Sites)))
	for _, s := range m.Sites {
		e.Int64(int64(s))
	}
	e.Int64(m.StripeUnit)
	e.String(string(m.PackedIn))
	e.Int64(m.PackedOff)
	e.Uint32(uint32(len(m.Members)))
	for _, pm := range m.Members {
		e.String(string(pm.ID))
		e.Int64(pm.Off)
		e.Int64(pm.Len)
	}
}

// DecodeBlockMeta deserializes block metadata.
func DecodeBlockMeta(d *wire.Decoder) (*model.BlockMeta, error) {
	m := &model.BlockMeta{
		ID:     model.BlockID(d.String()),
		Scheme: model.Scheme(d.Uint8()),
	}
	m.Size = d.Int64()
	m.K = int(d.Uint32())
	m.R = int(d.Uint32())
	m.ChunkSize = d.Int64()
	m.Version = d.Uint64()
	n := int(d.Uint32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	// Bound against the bytes actually present (8 per site id), not just
	// an absolute cap: a corrupt count must fail decode, not drive a
	// multi-gigabyte allocation.
	if n > maxBlockSites || n > d.Remaining()/8 {
		return nil, fmt.Errorf("metadata: absurd site count %d", n)
	}
	m.Sites = make([]model.SiteID, n)
	for i := range m.Sites {
		m.Sites[i] = model.SiteID(d.Int64())
	}
	m.StripeUnit = d.Int64()
	m.PackedIn = model.BlockID(d.String())
	m.PackedOff = d.Int64()
	mn := int(d.Uint32())
	if err := d.Err(); err != nil {
		return nil, err
	}
	// A member encodes to at least 20 bytes (empty id + two i64s).
	if mn > maxPackMembers || mn > d.Remaining()/20 {
		return nil, fmt.Errorf("metadata: absurd member count %d", mn)
	}
	if mn > 0 {
		m.Members = make([]model.PackedMember, mn)
		for i := range m.Members {
			m.Members[i] = model.PackedMember{
				ID:  model.BlockID(d.String()),
				Off: d.Int64(),
				Len: d.Int64(),
			}
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// Server exposes a Catalog over RPC.
type Server struct {
	catalog *Catalog
}

// NewServer wraps a catalog.
func NewServer(c *Catalog) *Server { return &Server{catalog: c} }

var _ rpc.Handler = (*Server)(nil)

// Handle dispatches one metadata RPC.
func (s *Server) Handle(_ context.Context, method rpc.Method, body []byte) ([]byte, error) {
	d := wire.NewDecoder(body)
	switch method {
	case methodRegister:
		meta, err := DecodeBlockMeta(d)
		if err != nil {
			return nil, err
		}
		return nil, s.catalog.Register(meta)

	case methodLookup:
		n := int(d.Uint32())
		if n < 0 || n > d.Remaining()/4 {
			return nil, fmt.Errorf("metadata: absurd id count %d", n)
		}
		ids := make([]model.BlockID, 0, n)
		for i := 0; i < n; i++ {
			ids = append(ids, model.BlockID(d.String()))
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		metas, err := s.catalog.Lookup(ids)
		if err != nil {
			return nil, err
		}
		e := wire.NewEncoder(64 * len(metas))
		e.Uint32(uint32(len(ids)))
		for _, id := range ids {
			EncodeBlockMeta(e, metas[id])
		}
		return e.Bytes(), nil

	case methodDelete:
		id := model.BlockID(d.String())
		if err := d.Err(); err != nil {
			return nil, err
		}
		meta, err := s.catalog.Delete(id)
		if err != nil {
			return nil, err
		}
		e := wire.NewEncoder(64)
		EncodeBlockMeta(e, meta)
		return e.Bytes(), nil

	case methodUpdatePlacement:
		id := model.BlockID(d.String())
		chunk := int(d.Uint32())
		to := model.SiteID(d.Int64())
		expect := d.Uint64()
		if err := d.Err(); err != nil {
			return nil, err
		}
		v, err := s.catalog.UpdatePlacement(id, chunk, to, expect)
		if err != nil {
			return nil, err
		}
		e := wire.NewEncoder(8)
		e.Uint64(v)
		return e.Bytes(), nil

	case methodBlocksOnSite:
		site := model.SiteID(d.Int64())
		if err := d.Err(); err != nil {
			return nil, err
		}
		ids := s.catalog.BlocksOnSite(site)
		e := wire.NewEncoder(16 * len(ids))
		e.Uint32(uint32(len(ids)))
		for _, id := range ids {
			e.String(string(id))
		}
		return e.Bytes(), nil

	case methodGetMetrics:
		return obs.MarshalSnapshot(s.catalog.MetricsSnapshot()), nil

	case methodPutTask:
		t, err := DecodeTaskRecord(d)
		if err != nil {
			return nil, err
		}
		return nil, s.catalog.PutTask(t)

	case methodListTasks:
		tasks := s.catalog.ListTasks()
		e := wire.NewEncoder(64 * len(tasks))
		e.Uint32(uint32(len(tasks)))
		for _, t := range tasks {
			EncodeTaskRecord(e, t)
		}
		return e.Bytes(), nil

	case methodDeleteTask:
		id := d.String()
		if err := d.Err(); err != nil {
			return nil, err
		}
		return nil, s.catalog.DeleteTask(id)

	case methodSetSiteInfo:
		info, err := DecodeSiteInfo(d)
		if err != nil {
			return nil, err
		}
		return nil, s.catalog.SetSiteInfo(info)

	case methodSiteInfos:
		infos := s.catalog.SiteInfos()
		ids := make([]model.SiteID, 0, len(infos))
		for id := range infos {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		e := wire.NewEncoder(24 * len(infos))
		e.Uint32(uint32(len(infos)))
		for _, id := range ids {
			EncodeSiteInfo(e, infos[id])
		}
		return e.Bytes(), nil

	case methodSites:
		sites := s.catalog.Sites()
		e := wire.NewEncoder(8 * len(sites))
		e.Uint32(uint32(len(sites)))
		for _, s := range sites {
			e.Int64(int64(s))
		}
		return e.Bytes(), nil

	default:
		return nil, fmt.Errorf("metadata: unknown method %d", method)
	}
}

// Client is an RPC-backed Service implementation.
type Client struct {
	rc *rpc.Client
}

// NewClient wraps an RPC client connected to a metadata server.
func NewClient(rc *rpc.Client) *Client { return &Client{rc: rc} }

// Register implements Service.
func (c *Client) Register(meta *model.BlockMeta) error {
	e := wire.NewEncoder(64)
	EncodeBlockMeta(e, meta)
	_, err := c.rc.Call(methodRegister, e.Bytes())
	return err
}

// Lookup implements Service.
func (c *Client) Lookup(ids []model.BlockID) (map[model.BlockID]*model.BlockMeta, error) {
	e := wire.NewEncoder(16 * len(ids))
	e.Uint32(uint32(len(ids)))
	for _, id := range ids {
		e.String(string(id))
	}
	resp, err := c.rc.Call(methodLookup, e.Bytes())
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(resp)
	n := int(d.Uint32())
	if n < 0 || n > d.Remaining()/45 {
		return nil, fmt.Errorf("metadata: absurd meta count %d", n)
	}
	out := make(map[model.BlockID]*model.BlockMeta, n)
	for i := 0; i < n; i++ {
		meta, err := DecodeBlockMeta(d)
		if err != nil {
			return nil, err
		}
		out[meta.ID] = meta
	}
	return out, nil
}

// Delete implements Service.
func (c *Client) Delete(id model.BlockID) (*model.BlockMeta, error) {
	e := wire.NewEncoder(16)
	e.String(string(id))
	resp, err := c.rc.Call(methodDelete, e.Bytes())
	if err != nil {
		return nil, err
	}
	return DecodeBlockMeta(wire.NewDecoder(resp))
}

// UpdatePlacement implements Service.
func (c *Client) UpdatePlacement(id model.BlockID, chunk int, to model.SiteID, expectVersion uint64) (uint64, error) {
	e := wire.NewEncoder(32)
	e.String(string(id))
	e.Uint32(uint32(chunk))
	e.Int64(int64(to))
	e.Uint64(expectVersion)
	resp, err := c.rc.Call(methodUpdatePlacement, e.Bytes())
	if err != nil {
		return 0, err
	}
	d := wire.NewDecoder(resp)
	v := d.Uint64()
	return v, d.Err()
}

// BlocksOnSite implements Service. RPC failures yield an empty list, as
// this path is advisory (repair rescans).
func (c *Client) BlocksOnSite(s model.SiteID) []model.BlockID {
	e := wire.NewEncoder(8)
	e.Int64(int64(s))
	resp, err := c.rc.Call(methodBlocksOnSite, e.Bytes())
	if err != nil {
		return nil
	}
	d := wire.NewDecoder(resp)
	n := int(d.Uint32())
	if n < 0 || n > d.Remaining()/4 {
		return nil
	}
	out := make([]model.BlockID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, model.BlockID(d.String()))
	}
	if d.Err() != nil {
		return nil
	}
	return out
}

// PutTask implements Service.
func (c *Client) PutTask(t *model.TaskRecord) error {
	e := wire.NewEncoder(64)
	EncodeTaskRecord(e, t)
	_, err := c.rc.Call(methodPutTask, e.Bytes())
	return err
}

// ListTasks implements Service. RPC failures yield an empty list, as the
// scheduler re-syncs on its next pass.
func (c *Client) ListTasks() []*model.TaskRecord {
	resp, err := c.rc.Call(methodListTasks, nil)
	if err != nil {
		return nil
	}
	d := wire.NewDecoder(resp)
	n := int(d.Uint32())
	if n < 0 || n > d.Remaining()/45 {
		return nil
	}
	out := make([]*model.TaskRecord, 0, n)
	for i := 0; i < n; i++ {
		t, err := DecodeTaskRecord(d)
		if err != nil {
			return nil
		}
		out = append(out, t)
	}
	return out
}

// DeleteTask implements Service.
func (c *Client) DeleteTask(id string) error {
	e := wire.NewEncoder(16)
	e.String(id)
	_, err := c.rc.Call(methodDeleteTask, e.Bytes())
	return err
}

// SetSiteInfo implements Service.
func (c *Client) SetSiteInfo(info model.SiteInfo) error {
	e := wire.NewEncoder(24)
	EncodeSiteInfo(e, info)
	_, err := c.rc.Call(methodSetSiteInfo, e.Bytes())
	return err
}

// SiteInfos implements Service. RPC failures yield an empty map; callers
// treat missing info as zone-less active sites.
func (c *Client) SiteInfos() map[model.SiteID]model.SiteInfo {
	resp, err := c.rc.Call(methodSiteInfos, nil)
	if err != nil {
		return nil
	}
	d := wire.NewDecoder(resp)
	n := int(d.Uint32())
	if n < 0 || n > d.Remaining()/13 {
		return nil
	}
	out := make(map[model.SiteID]model.SiteInfo, n)
	for i := 0; i < n; i++ {
		info, err := DecodeSiteInfo(d)
		if err != nil {
			return nil
		}
		out[info.ID] = info
	}
	return out
}

// Metrics fetches the remote metadata service's metrics snapshot.
func (c *Client) Metrics() (*obs.Snapshot, error) {
	resp, err := c.rc.Call(methodGetMetrics, nil)
	if err != nil {
		return nil, err
	}
	return obs.UnmarshalSnapshot(resp)
}

// Sites implements Service. RPC failures yield an empty list.
func (c *Client) Sites() []model.SiteID {
	resp, err := c.rc.Call(methodSites, nil)
	if err != nil {
		return nil
	}
	d := wire.NewDecoder(resp)
	n := int(d.Uint32())
	if n < 0 || n > d.Remaining()/8 {
		return nil
	}
	out := make([]model.SiteID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, model.SiteID(d.Int64()))
	}
	if d.Err() != nil {
		return nil
	}
	return out
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Layer names a module boundary a span was recorded at. The string is
// the module's package name, so a metric prefix and a span layer agree.
type layer string

const (
	layerClient     layer = "client"   // load generator, around one gateway RPC
	layerCore       layer = "core"     // gateway.Proxy decorator: one core.Client call
	layerMeta       layer = "metadata" // metadata.Service decorator (client side of the RPC)
	layerMetaHandle layer = "metadata.handle"
	layerSite       layer = "storage" // storage.SiteAPI decorator (client side of the RPC)
	layerSiteHandle layer = "storage.handle"
	layerDisk       layer = "storage.disk" // storage.Store decorator
)

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch. Parent is an index into the recorder's span list,
// -1 for a root or a span still waiting for resolveParents.
type span struct {
	Layer  layer  `json:"layer"`
	Op     string `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    uint64 `json:"req"`
	Site   int32  `json:"site,omitempty"`
	Block  string `json:"block,omitempty"` // storage spans: the block whose chunk moved
	Bytes  int64  `json:"bytes,omitempty"`
	Failed bool   `json:"failed,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects spans in memory while on; every decorator holds the
// same recorder. While off, open returns -1 and records nothing, so the
// decorators cost one atomic load per call.
type recorder struct {
	on      atomic.Bool
	epoch   time.Time
	nextReq atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// mint returns a fresh request id (0 from a nil recorder).
func (r *recorder) mint() uint64 {
	if r == nil {
		return 0
	}
	return r.nextReq.Add(1)
}

// open starts a span and returns its index, or -1 while recording is off.
func (r *recorder) open(s span) int32 {
	if r == nil || !r.on.Load() {
		return -1
	}
	s.Start = r.now()
	r.mu.Lock()
	idx := int32(len(r.spans))
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return idx
}

// root is a span with no recorded parent; resolveParents may find one.
func root(l layer, op string) span { return span{Layer: l, Op: op, Parent: -1} }

// close ends the span opened as idx; a span opened while recording was
// off (idx < 0) is ignored.
func (r *recorder) close(idx int32, bytes int64, err error) {
	if idx < 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	// A call abandoned by late binding can return after take(); the
	// recorder records one pass per run, so a stale index is only ever
	// out of range, never another pass's span.
	if int(idx) < len(r.spans) {
		r.spans[idx].End = end
		r.spans[idx].Bytes = bytes
		r.spans[idx].Failed = err != nil
	}
	r.mu.Unlock()
}

// take stops recording and hands over the finished spans (spans still
// open — an abandoned late-binding read the server has not answered —
// are dropped and parents re-indexed).
func (r *recorder) take() []span {
	r.on.Store(false)
	r.mu.Lock()
	all := r.spans
	r.spans = nil
	r.mu.Unlock()
	remap := make([]int32, len(all))
	out := make([]span, 0, len(all))
	for i, s := range all {
		if s.End == 0 {
			remap[i] = -1
			continue
		}
		remap[i] = int32(len(out))
		out = append(out, s)
	}
	for i := range out {
		if p := out[i].Parent; p >= 0 {
			out[i].Parent = remap[p]
		}
	}
	return out
}

// reqInfo rides the context from the span that mints a request id (the
// Proxy decorator, or the load generator on the direct GetMulti path) to
// the SiteAPI decorator, so storage spans name their request and parent.
type reqInfo struct {
	id   uint64
	span int32
}

type reqKey struct{}

func withReq(ctx context.Context, info reqInfo) context.Context {
	return context.WithValue(ctx, reqKey{}, info)
}

func reqFrom(ctx context.Context) reqInfo {
	if info, ok := ctx.Value(reqKey{}).(reqInfo); ok {
		return info
	}
	return reqInfo{span: -1}
}

// attachRule says that parentless spans of one layer hang under the
// span of another layer that contains them in time. metadata.Service
// carries no context and server-side handlers sit across a TCP
// connection, so their parent can only be found by interval; the traced
// phase runs one client, which makes containment unambiguous except
// between sites, hence sameSite.
type attachRule struct {
	child, parent layer
	sameSite      bool
}

var attachRules = []attachRule{
	{layerCore, layerClient, false},
	{layerMeta, layerCore, false},
	{layerMetaHandle, layerMeta, false},
	{layerSiteHandle, layerSite, true},
	{layerDisk, layerSiteHandle, true},
}

// resolveParents fills Parent for every span that has none and a rule:
// the parent is the latest-starting span of the rule's parent layer
// (and site) whose interval contains the child's. Spans with no
// containing candidate stay roots.
func resolveParents(spans []span) {
	for _, rule := range attachRules {
		type key struct{ site int32 }
		parents := make(map[key][]int32)
		for i, s := range spans {
			if s.Layer != rule.parent {
				continue
			}
			k := key{}
			if rule.sameSite {
				k.site = s.Site
			}
			parents[k] = append(parents[k], int32(i))
		}
		for _, list := range parents {
			sort.Slice(list, func(a, b int) bool { return spans[list[a]].Start < spans[list[b]].Start })
		}
		for i := range spans {
			c := &spans[i]
			if c.Layer != rule.child || c.Parent >= 0 {
				continue
			}
			k := key{}
			if rule.sameSite {
				k.site = c.Site
			}
			list := parents[k]
			// First candidate starting after the child; walk back from there.
			j := sort.Search(len(list), func(j int) bool { return spans[list[j]].Start > c.Start })
			for j--; j >= 0; j-- {
				p := spans[list[j]]
				if p.End >= c.End {
					c.Parent = list[j]
					if c.Req == 0 {
						c.Req = p.Req
					}
					break
				}
			}
		}
	}
}

// childrenOf indexes spans by parent.
func childrenOf(spans []span) [][]int32 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], int32(i))
		}
	}
	return kids
}

// selfTime is the span's duration minus the part of its interval its
// children cover: overlapping children (parallel chunk reads) count
// once, and a child running past its parent is clipped to it.
func selfTime(spans []span, kids [][]int32, idx int) int64 {
	p := spans[idx]
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids[idx]))
	for _, k := range kids[idx] {
		lo, hi := spans[k].Start, spans[k].End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var covered, end int64
	end = p.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		if v.lo < end {
			v.lo = end
		}
		covered += v.hi - v.lo
		end = v.hi
	}
	return p.dur() - covered
}

// writeSpans dumps the resolved spans as one JSON document.
func writeSpans(path string, workload string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write trace file: %w", err)
	}
	return nil
}

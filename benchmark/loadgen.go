package main

import (
	"bytes"
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ecstore/internal/gateway"
	"ecstore/internal/model"
)

// runState is what the load generators share for one workload run.
type runState struct {
	w    *workload
	seed int64
	rig  *rig
	// expects[i] is what a whole read of preloaded object i must return.
	expects []expect
	// liveBytes is the user payload currently stored and not deleted.
	liveBytes atomic.Int64
}

// sample is one completed request as its caller saw it.
type sample struct {
	end   time.Duration // since the phase started
	lat   time.Duration
	kind  opKind
	ok    bool
	bytes int64 // user payload bytes moved
}

// loader is one closed-loop client: it owns one gateway connection and
// issues its next request only when the previous one has returned.
type loader struct {
	rig *rig
	gw  *gateway.Client

	// GetMulti's per-phase breakdown, summed (straggler-scan only).
	bdSum   model.Breakdown
	bdCount int
}

// viaGateway times one call through the gateway — the only part of a
// request on the clock — and, in a traced rig, records the client-side
// span around it. call returns the payload bytes it moved.
func (l *loader) viaGateway(s *sample, call func() (int64, error)) error {
	idx := l.rig.rec.open(root(layerClient, opNames[s.kind]))
	t0 := time.Now()
	n, err := call()
	s.lat = time.Since(t0)
	l.rig.rec.close(idx, n, err)
	s.bytes = n
	return err
}

// do issues one request and checks its result. Payload generation and
// verification happen outside the clock.
func (l *loader) do(ctx context.Context, st *runState, o op) sample {
	s := sample{kind: o.kind}
	id := model.BlockID(o.key)
	switch o.kind {
	case opGet:
		var data []byte
		err := l.viaGateway(&s, func() (n int64, err error) {
			data, err = l.gw.Get(ctx, id)
			return int64(len(data)), err
		})
		s.ok = err == nil && st.matches(o.key, data)

	case opGetRange:
		want := expectRange(st.seed, o.key, o.off, o.n)
		var data []byte
		err := l.viaGateway(&s, func() (n int64, err error) {
			data, err = l.gw.GetRange(ctx, id, o.off, o.n)
			return int64(len(data)), err
		})
		s.ok = err == nil && want.matches(data)

	case opPut:
		data := makePayload(st.seed, o.key, o.size)
		err := l.viaGateway(&s, func() (int64, error) {
			return int64(o.size), l.gw.Put(ctx, id, data)
		})
		s.ok = err == nil

	case opPutStream:
		// The gateway's native RPC front has no streaming put; like the
		// HTTP front, call Gateway.PutReader in process.
		data := makePayload(st.seed, o.key, o.size)
		err := l.viaGateway(&s, func() (int64, error) {
			return l.rig.gw.PutReader(ctx, tenantName, id, bytes.NewReader(data))
		})
		s.ok = err == nil && s.bytes == int64(o.size)

	case opDelete:
		err := l.viaGateway(&s, func() (int64, error) {
			return 0, l.gw.Delete(ctx, id)
		})
		s.ok = err == nil

	case opGetMulti:
		// The gateway has no multi-block call: this is the paper's
		// client-library entry on the shared client. The generator
		// stands where the Proxy decorator would and mints the request.
		rec := l.rig.rec
		req := rec.mint()
		idx := rec.open(span{Layer: layerCore, Op: opNames[o.kind], Parent: -1, Req: req})
		cctx := ctx
		if idx >= 0 {
			cctx = withReq(ctx, reqInfo{id: req, span: idx})
		}
		t0 := time.Now()
		got, bd, err := l.rig.client.GetMultiContext(cctx, o.ids)
		s.lat = time.Since(t0)
		s.ok = err == nil && len(got) == len(o.ids)
		for _, id := range o.ids {
			if !st.matches(string(id), got[id]) {
				s.ok = false
			}
			s.bytes += int64(len(got[id]))
		}
		rec.close(idx, s.bytes, err)
		if err == nil {
			l.bdSum.Add(bd)
			l.bdCount++
		}
	}
	if s.ok {
		switch o.kind {
		case opPut, opPutStream:
			st.liveBytes.Add(int64(o.size))
		case opDelete:
			st.liveBytes.Add(-int64(o.size))
		}
	}
	return s
}

// matches reports whether got is the whole preloaded object named key.
func (st *runState) matches(key string, got []byte) bool {
	i, ok := blockIndex(key)
	return ok && i < len(st.expects) && st.expects[i].matches(got)
}

// blockIndex inverts model.BlockName ("b0000042" -> 42).
func blockIndex(key string) (int, bool) {
	if len(key) < 2 || key[0] != 'b' {
		return 0, false
	}
	n := 0
	for _, c := range key[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// phase is the outcome of one stretch of load.
type phase struct {
	samples []sample // all clients, ordered by completion time
}

// runTimed drives every loader in a closed loop, zero think time, for d.
func runTimed(ctx context.Context, st *runState, gens []generator, d time.Duration) phase {
	per := make([][]sample, len(gens))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := st.rig.loaders[c]
			for time.Since(start) < d && ctx.Err() == nil {
				s := l.do(ctx, st, gens[c].next())
				s.end = time.Since(start)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	var p phase
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	sort.Slice(p.samples, func(a, b int) bool { return p.samples[a].end < p.samples[b].end })
	return p
}

// runCount drives loader 0 alone through exactly n requests.
func runCount(ctx context.Context, st *runState, gen generator, n int) phase {
	l := st.rig.loaders[0]
	start := time.Now()
	p := phase{samples: make([]sample, 0, n)}
	for i := 0; i < n && ctx.Err() == nil; i++ {
		s := l.do(ctx, st, gen.next())
		s.end = time.Since(start)
		p.samples = append(p.samples, s)
	}
	return p
}

func (p phase) counts() (attempted, failed int, userBytes int64) {
	for _, s := range p.samples {
		attempted++
		if !s.ok {
			failed++
		}
		userBytes += s.bytes
	}
	return
}

// meanLatency is the mean over completed requests, in milliseconds.
func (p phase) meanLatency() float64 {
	if len(p.samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range p.samples {
		sum += s.lat
	}
	return ms(sum) / float64(len(p.samples))
}

// latencies returns the sorted latencies, in milliseconds, of the
// successful requests of one kind.
func (p phase) latencies(kind opKind) []float64 {
	var out []float64
	for _, s := range p.samples {
		if s.kind == kind && s.ok {
			out = append(out, ms(s.lat))
		}
	}
	sort.Float64s(out)
	return out
}

// window is one equal slice of a timed phase.
type window struct {
	OpsPerS float64 `json:"ops_per_s"`
	P50     float64 `json:"p50_ms"` // primary op
	P99     float64 `json:"p99_ms"`
	Beyond  int     `json:"p99_samples_beyond"`
}

// windows cuts a timed phase into n equal windows by completion time.
func (p phase) windows(n int, d time.Duration, primary opKind) []window {
	out := make([]window, n)
	width := d / time.Duration(n)
	lats := make([][]float64, n)
	ops := make([]int, n)
	for _, s := range p.samples {
		i := int(s.end / width)
		if i >= n {
			continue // the request that was in flight when time ran out
		}
		if s.ok {
			ops[i]++
		}
		if s.kind == primary && s.ok {
			lats[i] = append(lats[i], ms(s.lat))
		}
	}
	for i := range out {
		sort.Float64s(lats[i])
		out[i] = window{
			OpsPerS: float64(ops[i]) / width.Seconds(),
			P50:     percentile(lats[i], 0.50),
			P99:     percentile(lats[i], 0.99),
			Beyond:  len(lats[i]) - int(0.99*float64(len(lats[i]))) - 1,
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

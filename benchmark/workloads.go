package main

import (
	"fmt"
	"math/rand"
	"time"

	"ecstore/internal/faults"
	"ecstore/internal/model"
	ycsb "ecstore/internal/workload"
)

type opKind uint8

const (
	opGet opKind = iota
	opGetRange
	opPut
	opPutStream
	opDelete
	opGetMulti
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "get_range", "put", "put_stream", "delete", "get_multi"}

// op is one generated request. Payload bytes are not part of it: they
// are a function of (seed, key) and are made where they are needed.
type op struct {
	kind   opKind
	key    string
	size   int             // bytes written by a put
	off, n int64           // get_range window
	ids    []model.BlockID // get_multi block set
}

// generator yields one client's request stream.
type generator interface {
	next() op
}

const (
	kb100       = 100 << 10
	mib         = 1 << 20
	rangeBytes  = 64 << 10
	deleteAfter = 32 // a writer deletes the key it wrote this many writes ago
)

// workload is one named traffic mix; BENCHMARK.json says why each was
// chosen. Sizes are the full-scale ones; a sizing scales them down for
// tests.
type workload struct {
	name    string
	primary opKind
	// Preload: objects of objSize bytes named model.BlockName(i), written
	// through the gateway (streamed with PutReader when stream is set).
	objects int
	objSize int
	stream  bool
	warmup  time.Duration
	// tracedOps is the traced phase's fixed request count.
	tracedOps int
	// slowSites become stragglers after preload.
	slowSites []model.SiteID
	slowPlan  faults.Plan
	// newGen builds one client's request stream over the first objects
	// preloaded keys.
	newGen func(w *workload, objects int, seed int64, stream string) generator
}

var workloads = []*workload{
	{
		name:      "hot-read",
		primary:   opGet,
		objects:   128,
		objSize:   kb100,
		warmup:    2 * time.Second,
		tracedOps: 2000,
		newGen: func(w *workload, objects int, seed int64, stream string) generator {
			return &readGen{objects: objects, objSize: w.objSize, rng: newRNG(seed, stream), zipf: ycsb.NewZipf(objects, 0.99)}
		},
	},
	{
		name:      "cold-read",
		primary:   opGet,
		objects:   256,
		objSize:   mib,
		stream:    true,
		warmup:    2 * time.Second,
		tracedOps: 400,
		newGen: func(w *workload, objects int, seed int64, stream string) generator {
			return &readGen{objects: objects, objSize: w.objSize, rng: newRNG(seed, stream), rangeEvery: 5}
		},
	},
	{
		name:      "write",
		primary:   opPut,
		objects:   512, // a set-up long enough to time; the live base the deletes never touch
		objSize:   kb100,
		warmup:    2 * time.Second,
		tracedOps: 400,
		newGen: func(w *workload, objects int, seed int64, stream string) generator {
			return &writeGen{stream: stream, rng: newRNG(seed, stream)}
		},
	},
	{
		name:      "straggler-scan",
		primary:   opGetMulti,
		objects:   2000,
		objSize:   kb100,
		warmup:    3 * time.Second,
		tracedOps: 300,
		slowSites: []model.SiteID{3, 6},
		slowPlan:  faults.Plan{Latency: 2 * time.Millisecond, Jitter: 2 * time.Millisecond},
		newGen: func(w *workload, objects int, seed int64, stream string) generator {
			// The popularity ranking is part of the workload, not of the
			// seed: with the layout it fixes which hot blocks sit on a
			// slow site. The seed draws the request sequence.
			y := ycsb.NewYCSBESeeded(objects, 8, 0.99, 1)
			y.OnMeasureStart() // skewed phase from the first request
			return &scanGen{y: y, rng: newRNG(seed, stream)}
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// newRNG derives an independent stream from the seed and a stream name
// ("warm-0", "run-1", "traced"), so each client of each phase draws its
// own reproducible sequence.
func newRNG(seed int64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(int64(payloadBase(seed, stream))))
}

// readGen reads preloaded objects: Zipf-ranked when zipf is set, uniform
// otherwise; every rangeEvery-th request is a 64 KiB range instead.
type readGen struct {
	objects    int
	objSize    int
	rng        *rand.Rand
	zipf       *ycsb.Zipf
	rangeEvery int
	n          int
}

func (g *readGen) next() op {
	g.n++
	var i int
	if g.zipf != nil {
		i = g.zipf.Sample(g.rng)
	} else {
		i = g.rng.Intn(g.objects)
	}
	key := string(model.BlockName(i))
	if g.rangeEvery > 0 && g.n%g.rangeEvery == 0 {
		n := int64(rangeBytes)
		if n > int64(g.objSize) {
			n = int64(g.objSize)
		}
		return op{kind: opGetRange, key: key, off: g.rng.Int63n(int64(g.objSize) - n + 1), n: n}
	}
	return op{kind: opGet, key: key}
}

// writeGen writes fresh keys and, once deleteAfter of them are live,
// deletes its oldest key instead with probability 1/2 (always, at twice
// that many), so the disk holds a bounded set. One write in 8 streams
// 1 MiB. The mix is drawn, not a fixed write/delete alternation: two
// closed-loop clients repeating one pattern lock their fsyncs into a
// fixed phase on the journal's group commit, and which phase a run
// happens to lock in moved its throughput by a fifth. Keys are fixed
// width, so request frames have the same length in every run.
type writeGen struct {
	stream string
	rng    *rand.Rand
	seq    int
	live   []op // written, not yet deleted, oldest first
}

func (g *writeGen) next() op {
	if n := len(g.live); n > 2*deleteAfter || n > deleteAfter && g.rng.Intn(2) == 0 {
		victim := g.live[0]
		g.live = g.live[1:]
		return op{kind: opDelete, key: victim.key, size: victim.size}
	}
	g.seq++
	o := op{kind: opPut, key: fmt.Sprintf("w-%s-%08d", g.stream, g.seq), size: kb100}
	if g.rng.Intn(8) == 0 {
		o.kind, o.size = opPutStream, mib
	}
	g.live = append(g.live, o)
	return o
}

// scanGen issues YCSB-E scans in the generator's skewed phase.
type scanGen struct {
	y   *ycsb.YCSBE
	rng *rand.Rand
}

func (g *scanGen) next() op {
	return op{kind: opGetMulti, ids: g.y.NextRequest(g.rng)}
}

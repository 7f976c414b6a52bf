package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{Layer: layerCore, Start: 100, End: 200, Parent: -1},
		{Layer: layerSite, Start: 110, End: 150, Parent: 0}, // 40
		{Layer: layerSite, Start: 130, End: 170, Parent: 0}, // overlaps the first: adds 20
		{Layer: layerSite, Start: 135, End: 140, Parent: 0}, // inside both: adds 0
		{Layer: layerMeta, Start: 180, End: 260, Parent: 0}, // runs past the parent: clipped to 20
		{Layer: layerMeta, Start: 50, End: 90, Parent: 0},   // entirely before: adds 0
	}
	kids := childrenOf(spans)
	if got := selfTime(spans, kids, 0); got != 100-(40+20+20) {
		t.Errorf("self time = %d, want 20", got)
	}
	if got := selfTime(spans, kids, 1); got != 40 {
		t.Errorf("leaf self time = %d, want its duration 40", got)
	}
}

func TestResolveParentsByContainment(t *testing.T) {
	spans := []span{
		0: {Layer: layerClient, Op: "get", Start: 0, End: 100, Parent: -1},
		1: {Layer: layerCore, Op: "get", Start: 10, End: 90, Parent: -1, Req: 7},
		2: {Layer: layerMeta, Op: "lookup", Start: 12, End: 20, Parent: -1},
		3: {Layer: layerMetaHandle, Op: "handle", Start: 14, End: 16, Parent: -1},
		4: {Layer: layerSite, Op: "get_chunk", Start: 30, End: 60, Parent: 1, Req: 7, Site: 2},
		5: {Layer: layerSite, Op: "get_chunk", Start: 30, End: 70, Parent: 1, Req: 7, Site: 3},
		6: {Layer: layerSiteHandle, Op: "handle", Start: 40, End: 50, Parent: -1, Site: 3},
		7: {Layer: layerDisk, Op: "get", Start: 42, End: 48, Parent: -1, Site: 3},
		// A handler that outlives its abandoned client span stays a root.
		8: {Layer: layerSiteHandle, Op: "handle", Start: 55, End: 95, Parent: -1, Site: 2},
		9: {Layer: layerClient, Op: "get", Start: 100, End: 200, Parent: -1},
	}
	resolveParents(spans)
	want := map[int]int32{1: 0, 2: 1, 3: 2, 6: 5, 7: 6, 8: -1}
	for i, p := range want {
		if spans[i].Parent != p {
			t.Errorf("span %d (%s): parent %d, want %d", i, spans[i].Layer, spans[i].Parent, p)
		}
	}
	if spans[2].Req != 7 || spans[3].Req != 7 {
		t.Errorf("request id must flow down resolved parents: got %d, %d", spans[2].Req, spans[3].Req)
	}
}

func TestRecorderDropsOpenSpansAndReindexes(t *testing.T) {
	r := newRecorder()
	if idx := r.open(root(layerCore, "get")); idx != -1 {
		t.Fatalf("open while off = %d, want -1", idx)
	}
	r.on.Store(true)
	a := r.open(root(layerCore, "get"))
	abandoned := r.open(span{Layer: layerSite, Op: "get_chunk", Parent: a})
	b := r.open(span{Layer: layerSite, Op: "get_chunk", Parent: a})
	r.close(b, 10, nil)
	r.close(a, 10, nil)
	spans := r.take()
	r.close(abandoned, 0, nil) // late return after take must not panic
	if len(spans) != 2 || spans[1].Parent != 0 || spans[1].Bytes != 10 {
		t.Fatalf("take() = %+v, want the two closed spans with the child re-indexed to parent 0", spans)
	}
}

func TestPercentileMedianSpread(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.99, 10}, {0.9, 9}, {0.0, 1}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	if got, want := spread(s), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestWindowsSplitByCompletionTime(t *testing.T) {
	var p phase
	for i := 0; i < 100; i++ { // one primary op every 10 ms for 1 s
		p.samples = append(p.samples, sample{end: time.Duration(i) * 10 * time.Millisecond, lat: time.Duration(i+1) * time.Millisecond, kind: opGet, ok: true})
	}
	p.samples = append(p.samples,
		sample{end: 5 * time.Millisecond, lat: time.Hour, kind: opGetRange, ok: true},      // auxiliary: counted, not timed
		sample{end: 6 * time.Millisecond, lat: time.Hour, kind: opGet, ok: false},          // failed: neither
		sample{end: 1001 * time.Millisecond, lat: time.Millisecond, kind: opGet, ok: true}, // finished after the bell
	)
	wins := p.windows(4, time.Second, opGet)
	if len(wins) != 4 {
		t.Fatalf("got %d windows", len(wins))
	}
	if wins[0].OpsPerS != 26/0.25 || wins[3].OpsPerS != 25/0.25 {
		t.Errorf("ops/s per window = %v, %v; want 104, 100", wins[0].OpsPerS, wins[3].OpsPerS)
	}
	if wins[0].P50 != 13 || wins[0].P99 != 25 || wins[0].Beyond != 0 {
		t.Errorf("window 0: p50 %v p99 %v beyond %d; want 13, 25, 0", wins[0].P50, wins[0].P99, wins[0].Beyond)
	}
}

func TestPayloadIsAFunctionOfSeedAndKeyAndRangeAddressable(t *testing.T) {
	a := makePayload(7, "b0000001", 1000)
	if !expectOf(a).matches(makePayload(7, "b0000001", 1000)) {
		t.Fatal("same seed and key must give the same bytes")
	}
	if expectOf(a).matches(makePayload(8, "b0000001", 1000)) || expectOf(a).matches(makePayload(7, "b0000002", 1000)) {
		t.Fatal("another seed or key must give other bytes")
	}
	for _, r := range [][2]int64{{0, 1000}, {3, 17}, {8, 8}, {993, 7}} {
		if !expectRange(7, "b0000001", r[0], r[1]).matches(a[r[0] : r[0]+r[1]]) {
			t.Errorf("range [%d,+%d) does not match the whole payload", r[0], r[1])
		}
	}
	if expectOf(a).matches(a[:999]) {
		t.Error("a short read must not match")
	}
}

func TestWriteGenBoundsLiveSetAndRepeats(t *testing.T) {
	g := &writeGen{stream: "t", rng: newRNG(1, "t")}
	var puts, streams, deletes int
	var keys []string
	seen := map[string]bool{}
	for i := 0; i < 4000; i++ {
		o := g.next()
		keys = append(keys, o.key)
		switch o.kind {
		case opPut, opPutStream:
			if seen[o.key] {
				t.Fatalf("key %s written twice", o.key)
			}
			seen[o.key] = true
			if o.kind == opPutStream {
				streams++
			} else {
				puts++
			}
		case opDelete:
			if !seen[o.key] {
				t.Fatalf("delete of unwritten key %s", o.key)
			}
			deletes++
		}
		if len(g.live) > 2*deleteAfter+1 {
			t.Fatalf("live set grew to %d", len(g.live))
		}
	}
	writes := puts + streams
	if deletes != writes-len(g.live) || streams < writes/12 || streams > writes/6 {
		t.Errorf("mix: %d puts, %d streams, %d deletes, %d live; want about one write in 8 streamed and every write deleted or live",
			puts, streams, deletes, len(g.live))
	}
	again := &writeGen{stream: "t", rng: newRNG(1, "t")}
	for i, k := range keys {
		if o := again.next(); o.key != k {
			t.Fatalf("op %d: same seed and stream gave %s then %s", i, k, o.key)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := bound{false, 0.10}
	higher := bound{true, 0.10}
	cases := []struct {
		name     string
		old, cur metric
		b        bound
		want     string
	}{
		{"within bound", metric{Value: 100}, metric{Value: 105}, lower, "same"},
		{"latency up 20%", metric{Value: 100}, metric{Value: 120}, lower, "worse"},
		{"latency down 20%", metric{Value: 100}, metric{Value: 80}, lower, "better"},
		{"throughput down 20%", metric{Value: 100}, metric{Value: 80}, higher, "worse"},
		{"throughput up 20%", metric{Value: 100}, metric{Value: 120}, higher, "better"},
		{"noisy run hides a small change", metric{Value: 100, Spread: 0.3}, metric{Value: 105}, lower, "unresolved"},
		{"change inside the noise", metric{Value: 100, Spread: 0.3}, metric{Value: 120}, lower, "unresolved"},
		{"change beyond the noise", metric{Value: 100, Spread: 0.3}, metric{Value: 150}, lower, "worse"},
		{"zero baseline", metric{Value: 0}, metric{Value: 1}, lower, "unresolved"},
	}
	for _, c := range cases {
		if _, _, got := verdict(c.old, c.cur, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps the contract file and the program
// in step: workloads, metric names, units, directions and bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds float64 `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != fullSizing.seconds {
		t.Errorf("run_seconds %v, code default %v", spec.RunSeconds, fullSizing.seconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloads[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEndNames) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(spec.EndToEnd), len(endToEndNames))
	}
	for i, m := range spec.EndToEnd {
		b, ok := endToEndBounds[m.Name]
		if m.Name != endToEndNames[i] || !ok {
			t.Errorf("end-to-end metric %d: %q in BENCHMARK.json, %q in code", i, m.Name, endToEndNames[i])
			continue
		}
		if b.share != m.Bound || b.higherIsBetter != (m.Better == "higher") {
			t.Errorf("%s: bound %v %s in BENCHMARK.json, %+v in code", m.Name, m.Bound, m.Better, b)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in code", len(spec.PerLayer), len(perLayer))
	}
	for _, m := range spec.PerLayer {
		if c, ok := perLayer[m.Name]; !ok || c.unit != m.Unit || c.higherIsBetter != (m.Better == "higher") {
			t.Errorf("per-layer metric %s (%s, %s): code has %+v, present %v", m.Name, m.Unit, m.Better, c, ok)
		}
	}
}

// smokeSizing is a tenth of the full preload, warm-up and traced phase
// around a one-second measured phase.
var smokeSizing = sizing{seconds: 1, rounds: 2, scale: 0.1}

// exactCounts are the traced pass's counts that must repeat exactly on
// the workloads whose every call is awaited (hot-read, write).
var exactCounts = []string{
	"storage.calls_per_op", "metadata.calls_per_op", "rpc.wire_bytes_per_user_byte",
	"core.chunks_fetched_per_block", "storage.disk_bytes_written_per_user_byte",
}

func TestSmokeEveryWorkload(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			run := func(traced bool) *result {
				t.Helper()
				res, err := runWorkload(ctx, w, 42, traced, smokeSizing, t.TempDir(), "")
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v, %d of %d failed", traced, res.Correct, res.Failed, res.Attempted)
				}
				return res
			}
			e2e := run(false)
			for _, name := range endToEndNames {
				if m, ok := e2e.EndToEnd[name]; !ok || m.Value <= 0 || m.Unit == "" {
					t.Errorf("end-to-end %s = %+v (present %v): want a positive value with a unit", name, m, ok)
				}
			}
			if r := e2e.EndToEnd["stored_bytes_per_user_byte"].Value; r < 2.0 || r > 2.2 {
				t.Errorf("stored_bytes_per_user_byte = %v, want RS(2,2)'s 2x within [2.0, 2.2]", r)
			}

			traced := run(true)
			for name := range perLayer {
				if _, ok := traced.PerLayer[name]; !ok {
					t.Errorf("per-layer metric %s missing", name)
				}
			}
			if got := traced.PerLayer["loadgen.failed_frac"].Value; got != 0 {
				t.Errorf("failed_frac = %v", got)
			}
			switch w.name {
			case "hot-read":
				if got := traced.PerLayer["storage.calls_per_op"].Value; got != 0 {
					t.Errorf("hot-read reached the sites: storage.calls_per_op = %v", got)
				}
				if got := traced.PerLayer["metadata.calls_per_op"].Value; got != 1 {
					t.Errorf("metadata.calls_per_op = %v, want one Lookup per read", got)
				}
			case "write":
				if got := traced.PerLayer["storage.disk_put_p50_ms"].Value; got <= 0 {
					t.Errorf("storage.disk_put_p50_ms = %v on write", got)
				}
			case "straggler-scan":
				// At this scale every block fits the cache, so only the
				// metadata phase of the breakdown is sure to be non-zero.
				if got := traced.PerLayer["core.metadata_mean_ms"].Value; got <= 0 {
					t.Errorf("core.metadata_mean_ms = %v on straggler-scan", got)
				}
			}
			if w.name != "write" {
				if got := traced.PerLayer["storage.disk_put_p50_ms"].Value; got != 0 {
					t.Errorf("storage.disk_put_p50_ms = %v outside write", got)
				}
			}
			if w.name == "hot-read" || w.name == "write" {
				again := run(true)
				for _, name := range exactCounts {
					if a, b := traced.PerLayer[name].Value, again.PerLayer[name].Value; a != b {
						t.Errorf("%s differs between two traced runs with one seed: %v vs %v", name, a, b)
					}
				}
			}
		})
	}
}

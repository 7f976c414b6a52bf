package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"ecstore/internal/cache"
	"ecstore/internal/model"
	"ecstore/internal/placement"
)

// sizing scales one run. The defaults are what BENCHMARK.json promises;
// tests shrink them.
type sizing struct {
	seconds float64 // measured time; an untraced run's rigs share it equally
	rounds  int     // fresh rigs an untraced run measures
	scale   float64 // share of the full preload, warm-up, traced ops and probe time
}

var fullSizing = sizing{seconds: 12, rounds: 3, scale: 1}

func (z sizing) scaled(n int) int {
	if m := int(float64(n) * z.scale); m > 1 {
		return m
	}
	return 1
}

func (z sizing) scaledDur(d time.Duration) time.Duration {
	return time.Duration(float64(d) * z.scale)
}

// metric is one reported value. Spread, where the run itself repeats
// the measurement (once per rig), is the interquartile range of those
// repeats as a share of their median; -compare uses it to tell a
// resolved difference from noise.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Spread float64 `json:"spread,omitempty"`
}

// result is one workload run: untraced (EndToEnd set) or traced
// (PerLayer set).
type result struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	// P99Samples is how many primary-op samples lie beyond the p99 in
	// the window that has the fewest.
	P99Samples int `json:"p99_samples_beyond"`
	// Windows are the measured slices: one per rig in an untraced run,
	// equal cuts of the one measured phase in a traced run.
	Windows []window `json:"windows"`
}

// counters is the process- and client-level state read around a phase.
type counters struct {
	cpu     time.Duration
	mem     runtime.MemStats
	cache   cache.Stats
	planner placement.PlannerStats
	gwReqs  int64
	gwShed  int64
}

func (r *rig) counters() counters {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&c.mem)
	c.cache = r.client.CacheStats()
	c.planner = r.client.PlannerStats()
	snap := r.gwReg.Snapshot()
	for _, cs := range snap.Counters {
		switch cs.Name {
		case "gateway_requests_total":
			c.gwReqs += cs.Value
		case "gateway_shed_total":
			c.gwShed += cs.Value
		}
	}
	return c
}

// setUp boots a rig under dir and preloads the workload's objects
// through the gateway. It is the unit setup_s times.
func setUp(ctx context.Context, w *workload, seed int64, rec *recorder, dir string, sz sizing) (*runState, error) {
	r, err := bootRig(ctx, dir, rec, w.slowSites)
	if err != nil {
		return nil, err
	}
	st := &runState{w: w, seed: seed, rig: r, expects: make([]expect, sz.scaled(w.objects))}

	// One object at a time: the client draws each block's sites from
	// its seeded placer in call order, so a sequential preload gives
	// every run the same layout (which blocks sit on a slow site is
	// part of a workload's difficulty).
	gw := r.loaders[0].gw
	for i := range st.expects {
		id := model.BlockName(i)
		data := makePayload(seed, string(id), w.objSize)
		st.expects[i] = expectOf(data)
		if w.stream {
			_, err = r.gw.PutReader(ctx, tenantName, id, bytes.NewReader(data))
		} else {
			err = gw.Put(ctx, id, data)
		}
		if err != nil {
			r.close()
			return nil, fmt.Errorf("preload %s: %w", w.name, err)
		}
	}
	st.liveBytes.Store(int64(len(st.expects)) * int64(w.objSize))
	return st, nil
}

// measured is one rig's warm-up and measured phase.
type measured struct {
	attempted, failed int
	windows           []window
	before, after     counters
	maxDepth          int
	gens              []generator // every generator that wrote, for the read-back
}

// measure warms the rig up, then drives it for d and cuts that time
// into equal windows. The load generator's samples are dropped before
// it returns, so they never count as the system's live heap.
func measure(ctx context.Context, st *runState, sz sizing, d time.Duration, windows int) measured {
	var m measured
	gens := func(phase string) []generator {
		out := make([]generator, numClients)
		for c := range out {
			out[c] = st.w.newGen(st.w, len(st.expects), st.seed, fmt.Sprintf("%s-%d", phase, c))
		}
		m.gens = append(m.gens, out...)
		return out
	}
	runTimed(ctx, st, gens("warm"), sz.scaledDur(st.w.warmup))
	depth := sampleQueueDepth(st.rig)
	m.before = st.rig.counters()
	meas := runTimed(ctx, st, gens("run"), d)
	m.after = st.rig.counters()
	m.maxDepth = depth.stop()
	m.attempted, m.failed, _ = meas.counts()
	m.windows = meas.windows(windows, d, st.w.primary)
	return m
}

// runWorkload runs one workload once, untraced or traced, with its
// scratch files under baseDir.
func runWorkload(ctx context.Context, w *workload, seed int64, traced bool, sz sizing, baseDir, traceOut string) (*result, error) {
	runDir := filepath.Join(baseDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer func() { _ = os.RemoveAll(runDir) }()
	res := &result{Workload: w.name, Traced: traced, P99Samples: -1}
	var err error
	if traced {
		err = runTraced(ctx, res, w, seed, sz, runDir, traceOut)
	} else {
		err = runUntraced(ctx, res, w, seed, sz, runDir)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// add folds one measured phase's counts and windows into the result.
func (res *result) add(m measured) {
	res.Attempted, res.Failed = res.Attempted+m.attempted, res.Failed+m.failed
	res.Windows = append(res.Windows, m.windows...)
	for _, win := range m.windows {
		if res.P99Samples < 0 || win.Beyond < res.P99Samples {
			res.P99Samples = win.Beyond
		}
	}
}

// runUntraced takes sz.rounds fresh rigs, one after the other, through
// set-up (boot + preload), warm-up and an equal share of the measured
// time, with nothing wrapped. One rig's seconds agree with each other
// far better than two rigs do, so a run samples rigs. On write a rig
// settles into one of two regimes for its whole life, about 40 % apart
// in latency and visible down at the store's fsync (probably whether
// its two clients' fsyncs share the journal's group commits), the
// faster one in roughly a fifth of rigs. A
// median over three rigs would flip between the regimes from run to
// run; the mean moves by a third of the gap at most, so throughput and
// latency are means over rigs. setup_s, which has no such regimes, is
// the median.
func runUntraced(ctx context.Context, res *result, w *workload, seed int64, sz sizing, runDir string) error {
	d := time.Duration(sz.seconds * float64(time.Second) / float64(sz.rounds))
	var setupS, ops, p50, p99 []float64
	var heapMB, storedRatio float64
	// rig i, set up and timed; done shuts it down and deletes its files
	// (the run's deferred cleanup catches what a failed delete leaves).
	timedSetUp := func(i int) (st *runState, done func(), err error) {
		dir := filepath.Join(runDir, fmt.Sprintf("rig-%d", i))
		t0 := time.Now()
		if st, err = setUp(ctx, w, seed, nil, dir, sz); err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		return st, func() { st.rig.close(); _ = os.RemoveAll(dir) }, nil
	}
	for i := 0; i < sz.rounds; i++ {
		st, done, err := timedSetUp(i)
		if err != nil {
			return err
		}
		st.rig.slowDown(w.slowPlan)
		m := measure(ctx, st, sz, d, 1)
		res.add(m)
		ops, p50, p99 = append(ops, m.windows[0].OpsPerS), append(p50, m.windows[0].P50), append(p99, m.windows[0].P99)
		if i == sz.rounds-1 {
			runtime.GC()
			runtime.GC() // the second cycle empties sync.Pool victim caches
			var heap runtime.MemStats
			runtime.ReadMemStats(&heap)
			heapMB = float64(heap.HeapAlloc) / (1 << 20)
			stored, err := st.rig.storedBytes()
			if err != nil {
				done()
				return fmt.Errorf("stored bytes: %w", err)
			}
			storedRatio = float64(stored) / float64(st.liveBytes.Load())
		}
		a, f := verifyLive(ctx, st, m.gens)
		res.Attempted, res.Failed = res.Attempted+a, res.Failed+f
		done()
	}
	// A set-up of a few hundred milliseconds is mostly fsync jitter:
	// time more of them, until minSetupSample of set-up time is in.
	for i := sz.rounds; sum(setupS) < minSetupSample.Seconds()*sz.scale && i < maxSetups; i++ {
		_, done, err := timedSetUp(i)
		if err != nil {
			return err
		}
		done()
	}
	res.EndToEnd = map[string]metric{
		"ops_per_s":                  {Value: mean(ops), Unit: "1/s", Spread: spread(ops)},
		"p50_ms":                     {Value: mean(p50), Unit: "ms", Spread: spread(p50)},
		"p99_ms":                     {Value: mean(p99), Unit: "ms", Spread: spread(p99)},
		"setup_s":                    {Value: median(setupS), Unit: "s", Spread: spread(setupS)},
		"stored_bytes_per_user_byte": {Value: storedRatio, Unit: "ratio"},
		"live_heap_mb":               {Value: heapMB, Unit: "MB"},
	}
	return nil
}

// setup_s is the median of at least sz.rounds set-ups, and of as many
// more (up to maxSetups) as it takes to have timed minSetupSample.
const (
	minSetupSample = 2 * time.Second
	maxSetups      = 9
)

// tracedWindows is how many windows a traced run's measured phase is
// cut into for loadgen.window_spread.
const tracedWindows = 5

// runTraced builds one rig with every decorator installed, runs the
// whole measured time with recording off (process, cache and planner
// counters are deltas across it), then replays a fixed request
// sequence with one client — unmeasured, recording off, recording on —
// and reports the per-layer metrics.
func runTraced(ctx context.Context, res *result, w *workload, seed int64, sz sizing, runDir, traceOut string) error {
	rec := newRecorder()
	st, err := setUp(ctx, w, seed, rec, filepath.Join(runDir, "rig"), sz)
	if err != nil {
		return err
	}
	r := st.rig
	defer r.close()
	r.slowDown(w.slowPlan)
	m := measure(ctx, st, sz, time.Duration(sz.seconds*float64(time.Second)), tracedWindows)
	res.add(m)
	var opsW []float64
	for _, win := range m.windows {
		opsW = append(opsW, win.OpsPerS)
	}
	pl := map[string]float64{}
	measuredMetrics(pl, m, opsW)

	r.stopProbes()
	// The passes replay one request sequence, so their latencies
	// compare like for like, and an unmeasured first replay leaves the
	// cache as it is at the start of every later one. A writer cannot
	// put the same key twice and takes a fresh key space per pass
	// instead.
	streams := [3]string{"traced", "traced", "traced"}
	if w.primary == opPut {
		streams = [3]string{"traced-w", "traced-a", "traced-b"}
	}
	n := sz.scaled(w.tracedOps)
	newGen := func(stream string) generator { return w.newGen(w, len(st.expects), seed, stream) }
	warmGen, offGen, onGen := newGen(streams[0]), newGen(streams[1]), newGen(streams[2])
	runCount(ctx, st, warmGen, n)
	off := runCount(ctx, st, offGen, n)
	r.quiesce(ctx)
	for _, l := range r.loaders {
		l.bdSum, l.bdCount = model.Breakdown{}, 0
	}
	wire0 := r.wireBytes.Load()
	rec.on.Store(true)
	on := runCount(ctx, st, onGen, n)
	r.quiesce(ctx)
	spans := rec.take()
	wire := r.wireBytes.Load() - wire0
	resolveParents(spans)
	tracedMetrics(pl, w, spans, on, off, wire, r.loaders[0])
	runProbes(ctx, pl, filepath.Join(runDir, "probe"), sz)

	for _, p := range []phase{off, on} {
		a, f, _ := p.counts()
		res.Attempted, res.Failed = res.Attempted+a, res.Failed+f
	}
	a, f := verifyLive(ctx, st, append(m.gens, warmGen, offGen, onGen))
	res.Attempted, res.Failed = res.Attempted+a, res.Failed+f
	res.PerLayer = make(map[string]metric, len(perLayer))
	for name, lm := range perLayer {
		res.PerLayer[name] = metric{Value: pl[name], Unit: lm.unit}
	}
	if traceOut != "" {
		return writeSpans(traceOut, w.name, spans)
	}
	return nil
}

// verifyLive reads back, through the gateway, every object the write
// generators still consider live: a write is checked by what a later
// read returns.
func verifyLive(ctx context.Context, st *runState, gens []generator) (attempted, failed int) {
	gw := st.rig.loaders[0].gw
	for _, g := range gens {
		wg, ok := g.(*writeGen)
		if !ok {
			continue
		}
		for _, o := range wg.live {
			attempted++
			data, err := gw.Get(ctx, model.BlockID(o.key))
			if err != nil || !expectOf(makePayload(st.seed, o.key, o.size)).matches(data) {
				failed++
			}
		}
	}
	return attempted, failed
}

// depthSampler polls the gateway's admission queue during the measured
// phase.
type depthSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	max    int
}

func sampleQueueDepth(r *rig) *depthSampler {
	s := &depthSampler{stopCh: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-t.C:
				if d := r.gw.QueueDepth(); d > s.max {
					s.max = d
				}
			}
		}
	}()
	return s
}

func (s *depthSampler) stop() int {
	close(s.stopCh)
	s.wg.Wait()
	return s.max
}

// measuredMetrics fills the per-layer metrics that need no spans: they
// are deltas of process and client counters across the measured phase.
func measuredMetrics(pl map[string]float64, m measured, opsW []float64) {
	before, after := m.before, m.after
	ops := float64(m.attempted - m.failed)
	if ops == 0 {
		ops = 1
	}
	pl["process.cpu_ms_per_op"] = ms(after.cpu-before.cpu) / ops
	pl["process.allocs_per_op"] = float64(after.mem.Mallocs-before.mem.Mallocs) / ops
	pl["process.alloc_bytes_per_op"] = float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / ops
	pl["process.gc_pause_total_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6

	hits := float64(after.cache.Hits - before.cache.Hits)
	misses := float64(after.cache.Misses - before.cache.Misses)
	inserts := float64(after.cache.Inserts - before.cache.Inserts)
	rejects := float64(after.cache.AdmissionRejects - before.cache.AdmissionRejects)
	pl["cache.hit_rate"] = ratio(hits, hits+misses)
	pl["cache.evictions_per_op"] = float64(after.cache.Evictions-before.cache.Evictions) / ops
	pl["cache.admission_reject_frac"] = ratio(rejects, inserts+rejects)

	ph := float64(after.planner.Hits - before.planner.Hits)
	pm := float64(after.planner.Misses - before.planner.Misses)
	pl["core.plan_cache_hit_rate"] = ratio(ph, ph+pm)

	pl["gateway.shed_frac"] = ratio(float64(after.gwShed-before.gwShed), float64(after.gwReqs-before.gwReqs))
	pl["gateway.queue_depth_max"] = float64(m.maxDepth)
	pl["loadgen.window_spread"] = spread(opsW)
	pl["loadgen.failed_frac"] = ratio(float64(m.failed), float64(m.attempted))
	pl["trace.rig_ops_per_s"] = median(opsW)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tracedMetrics fills the per-layer metrics that come from the recorded
// pass: span timers, call counts and byte counts per user byte.
func tracedMetrics(pl map[string]float64, w *workload, spans []span, on, off phase, wire int64, l *loader) {
	kids := childrenOf(spans)
	ops, _, userBytes := on.counts()

	// durs collects, sorted and in ms, the durations (or self times) of
	// the successful spans of one layer and any of the given ops.
	durs := func(l layer, self bool, keep func(i int, s span) bool) []float64 {
		var out []float64
		for i, s := range spans {
			if s.Layer != l || s.Failed || (keep != nil && !keep(i, s)) {
				continue
			}
			v := s.dur()
			if self {
				v = selfTime(spans, kids, i)
			}
			out = append(out, float64(v)/1e6)
		}
		sort.Float64s(out)
		return out
	}
	isOp := func(names ...string) func(int, span) bool {
		return func(_ int, s span) bool {
			for _, n := range names {
				if s.Op == n {
					return true
				}
			}
			return false
		}
	}
	hasKid := func(i int, _ span) bool { return len(kids[i]) > 0 }
	parentOp := func(names ...string) func(int, span) bool {
		match := isOp(names...)
		return func(_ int, s span) bool { return s.Parent >= 0 && match(int(s.Parent), spans[s.Parent]) }
	}
	primary := isOp(opNames[w.primary])

	// gateway: what the client saw minus the Proxy call inside it.
	pl["gateway.self_p50_ms"] = percentile(durs(layerClient, true, func(i int, s span) bool { return primary(i, s) && hasKid(i, s) }), 0.5)
	pl["gateway.get_range_p50_ms"] = percentile(durs(layerClient, false, isOp("get_range")), 0.5)
	pl["gateway.put_stream_p50_ms"] = percentile(durs(layerClient, false, isOp("put_stream")), 0.5)
	pl["gateway.delete_p50_ms"] = percentile(durs(layerClient, false, isOp("delete")), 0.5)

	// core: the Proxy call minus the metadata and site calls under it.
	pl["core.self_p50_ms"] = percentile(durs(layerCore, true, primary), 0.5)
	if l.bdCount > 0 {
		n := float64(l.bdCount) / 1e3 // seconds -> ms
		pl["core.metadata_mean_ms"] = l.bdSum.Metadata / n
		pl["core.plan_mean_ms"] = l.bdSum.Planning / n
		pl["core.retrieve_mean_ms"] = l.bdSum.Retrieve / n
		pl["core.decode_mean_ms"] = l.bdSum.Decode / n
	}

	lookup := durs(layerMeta, false, isOp("lookup"))
	register := durs(layerMeta, false, isOp("register"))
	pl["metadata.lookup_p50_ms"] = percentile(lookup, 0.5)
	pl["metadata.lookup_p99_ms"] = percentile(lookup, 0.99)
	pl["metadata.register_p50_ms"] = percentile(register, 0.5)
	pl["metadata.register_p99_ms"] = percentile(register, 0.99)
	pl["metadata.delete_p50_ms"] = percentile(durs(layerMeta, false, isOp("delete")), 0.5)
	pl["metadata.handle_p50_ms"] = percentile(durs(layerMetaHandle, false, nil), 0.5)

	// rpc: a client-side span minus the server-side handler span inside
	// it is framing, syscalls and loopback both ways.
	pl["rpc.meta_overhead_p50_ms"] = percentile(durs(layerMeta, true, hasKid), 0.5)
	pl["rpc.site_overhead_p50_ms"] = percentile(durs(layerSite, true, hasKid), 0.5)

	getChunk := durs(layerSite, false, isOp("get_chunk"))
	putChunk := durs(layerSite, false, isOp("put_chunk"))
	pl["storage.get_chunk_p50_ms"] = percentile(getChunk, 0.5)
	pl["storage.get_chunk_p99_ms"] = percentile(getChunk, 0.99)
	pl["storage.get_range_p50_ms"] = percentile(durs(layerSite, false, isOp("get_range")), 0.5)
	pl["storage.put_chunk_p50_ms"] = percentile(putChunk, 0.5)
	pl["storage.put_chunk_p99_ms"] = percentile(putChunk, 0.99)
	pl["storage.put_stream_p50_ms"] = percentile(durs(layerSite, false, isOp("put_stream")), 0.5)
	// Whole-chunk calls only: the many small unsynced stream and range
	// calls have their own client-side timers and would drown these.
	pl["storage.handle_get_p50_ms"] = percentile(durs(layerSiteHandle, false, parentOp("get_chunk")), 0.5)
	pl["storage.handle_put_p50_ms"] = percentile(durs(layerSiteHandle, false, parentOp("put_chunk")), 0.5)
	pl["storage.disk_get_p50_ms"] = percentile(durs(layerDisk, false, isOp("get")), 0.5)
	pl["storage.disk_put_p50_ms"] = percentile(durs(layerDisk, false, isOp("put")), 0.5)

	// Counts. A canceled surplus read still counts as a call.
	var metaCalls, siteCalls, chunkReads, slowReads, diskWritten float64
	perSite := make(map[int32]float64)
	slow := make(map[int32]bool)
	for _, s := range w.slowSites {
		slow[int32(s)] = true
	}
	for _, s := range spans {
		switch s.Layer {
		case layerMeta:
			metaCalls++
		case layerSite:
			siteCalls++
			perSite[s.Site]++
			if s.Op == "get_chunk" {
				chunkReads++
				if slow[s.Site] {
					slowReads++
				}
			}
		case layerDisk:
			if s.Op == "put" || s.Op == "put_at" {
				diskWritten += float64(s.Bytes)
			}
		}
	}
	pl["metadata.calls_per_op"] = ratio(metaCalls, float64(ops))
	pl["storage.calls_per_op"] = ratio(siteCalls, float64(ops))
	var maxSite float64
	for _, n := range perSite {
		if n > maxSite {
			maxSite = n
		}
	}
	pl["storage.site_call_imbalance"] = ratio(maxSite, siteCalls/numSites)
	pl["storage.disk_bytes_written_per_user_byte"] = ratio(diskWritten, float64(userBytes))
	pl["rpc.wire_bytes_per_user_byte"] = ratio(float64(wire), float64(userBytes))
	pl["core.slow_site_read_share"] = ratio(slowReads, chunkReads)

	// Blocks that went to the sites: distinct (request, block) pairs
	// among the chunk reads. k = 2 of each block's reads are useful.
	type reqBlock struct {
		req   uint64
		block string
	}
	fetched := make(map[reqBlock]bool)
	for _, s := range spans {
		if s.Layer == layerSite && s.Op == "get_chunk" {
			fetched[reqBlock{s.Req, s.Block}] = true
		}
	}
	pl["core.chunks_fetched_per_block"] = ratio(chunkReads, float64(len(fetched)))

	pl["trace.overhead_frac"] = ratio(on.meanLatency(), off.meanLatency()) - 1
}

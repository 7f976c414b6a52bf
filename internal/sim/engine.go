// Package sim is a deterministic discrete-event simulator of an EC-Store
// deployment. It runs the *real* strategy code — the cost-model planner,
// chunk mover and statistics trackers — against a queueing
// model of sites, disks and the network, so the paper's 20-minute
// 36-machine experiments reproduce in seconds of wall-clock time on one
// core with bit-identical results across runs.
//
// Straggling chunks, the phenomenon EC-Store attacks, emerge naturally:
// skewed block popularity concentrates requests on a few sites, their FIFO
// disk queues build up, and any read touching a hot site stalls until the
// queue drains — exactly the dynamic of Section III.
package sim

import "container/heap"

// event is a scheduled callback.
type event struct {
	at  float64
	seq uint64 // tie-break so equal-time events run in schedule order
	fn  func()
}

// eventHeap is a min-heap ordered by (time, seq).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine is the virtual clock and event queue.
type Engine struct {
	now  float64
	seq  uint64
	heap eventHeap
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn at absolute virtual time t. Scheduling in the past runs
// the event at the current time instead (never rewinds the clock).
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.heap, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn d seconds from now.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// Run processes events until the queue empties or the next event is past
// `until`. The clock always ends at `until` (or beyond it if already
// there), so consecutive Run calls partition virtual time cleanly.
func (e *Engine) Run(until float64) {
	for e.heap.Len() > 0 {
		next := e.heap[0]
		if next.at > until {
			e.now = until
			return
		}
		heap.Pop(&e.heap)
		e.now = next.at
		next.fn()
	}
	if e.now < until {
		e.now = until
	}
}

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return e.heap.Len() }

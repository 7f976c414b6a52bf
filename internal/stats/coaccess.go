// Package stats implements EC-Store's statistics service (Section V-A):
// block co-access likelihood tracking over a sliding window of sampled
// requests, per-site load aggregation, and o_j estimation from load-status
// probe round trips. The same logic backs both the real cluster and the
// discrete-event simulator.
package stats

import (
	"math/rand"
	"sort"
	"sync"

	"ecstore/internal/model"
)

// DefaultWindowSize matches the paper's sliding interval of 5000 requests.
const DefaultWindowSize = 5000

// Partner is a co-accessed block with its conditional likelihood
// λ_{b,i} = P({B_b, B_i} ⊆ Q | B_b ∈ Q).
type Partner struct {
	Block  model.BlockID
	Lambda float64
}

// CoAccessTracker maintains block access and co-access statistics within a
// sliding window of previous requests. It is safe for concurrent use.
type CoAccessTracker struct {
	mu sync.Mutex

	capacity int
	window   [][]model.BlockID // ring buffer of sampled requests
	next     int               // ring index of the next slot to overwrite
	filled   bool

	total  int                                     // requests currently in window
	counts map[model.BlockID]int                   // # window requests containing b
	pairs  map[model.BlockID]map[model.BlockID]int // # window requests containing both
	// recent holds the most recently seen blocks in LRU order for
	// candidate generation (recently accessed blocks are likely to be
	// accessed again).
	recent    []model.BlockID
	recentPos map[model.BlockID]int
}

// NewCoAccessTracker returns a tracker with the given sliding-window
// capacity (requests). Non-positive capacity uses DefaultWindowSize.
func NewCoAccessTracker(capacity int) *CoAccessTracker {
	if capacity <= 0 {
		capacity = DefaultWindowSize
	}
	return &CoAccessTracker{
		capacity:  capacity,
		window:    make([][]model.BlockID, capacity),
		counts:    make(map[model.BlockID]int),
		pairs:     make(map[model.BlockID]map[model.BlockID]int),
		recentPos: make(map[model.BlockID]int),
	}
}

// Record adds one sampled request to the window, evicting the oldest
// request once the window is full. Duplicate block ids within a request are
// collapsed.
func (t *CoAccessTracker) Record(q []model.BlockID) {
	if len(q) == 0 {
		return
	}
	uniq := dedup(q)

	t.mu.Lock()
	defer t.mu.Unlock()

	if old := t.window[t.next]; old != nil {
		t.remove(old)
	}
	t.window[t.next] = uniq
	t.next++
	if t.next == t.capacity {
		t.next = 0
		t.filled = true
	}
	t.add(uniq)
}

func (t *CoAccessTracker) add(q []model.BlockID) {
	t.total++
	for _, b := range q {
		t.counts[b]++
		t.touchRecent(b)
	}
	for i := 0; i < len(q); i++ {
		for j := i + 1; j < len(q); j++ {
			t.bumpPair(q[i], q[j], 1)
			t.bumpPair(q[j], q[i], 1)
		}
	}
}

func (t *CoAccessTracker) remove(q []model.BlockID) {
	t.total--
	for _, b := range q {
		if t.counts[b] <= 1 {
			delete(t.counts, b)
		} else {
			t.counts[b]--
		}
	}
	for i := 0; i < len(q); i++ {
		for j := i + 1; j < len(q); j++ {
			t.bumpPair(q[i], q[j], -1)
			t.bumpPair(q[j], q[i], -1)
		}
	}
}

func (t *CoAccessTracker) bumpPair(a, b model.BlockID, delta int) {
	m := t.pairs[a]
	if m == nil {
		if delta <= 0 {
			return
		}
		m = make(map[model.BlockID]int)
		t.pairs[a] = m
	}
	m[b] += delta
	if m[b] <= 0 {
		delete(m, b)
		if len(m) == 0 {
			delete(t.pairs, a)
		}
	}
}

// touchRecent maintains a bounded most-recently-accessed list.
func (t *CoAccessTracker) touchRecent(b model.BlockID) {
	const maxRecent = 4096
	if pos, ok := t.recentPos[b]; ok {
		// Move to the end by appending and tombstoning the old slot.
		t.recent[pos] = ""
	}
	t.recent = append(t.recent, b)
	t.recentPos[b] = len(t.recent) - 1
	if len(t.recent) > 2*maxRecent {
		t.compactRecent(maxRecent)
	}
}

func (t *CoAccessTracker) compactRecent(keep int) {
	live := make([]model.BlockID, 0, keep)
	for i := len(t.recent) - 1; i >= 0 && len(live) < keep; i-- {
		b := t.recent[i]
		if b == "" || t.recentPos[b] != i {
			continue
		}
		live = append(live, b)
	}
	// live is newest-first; rebuild oldest-first.
	t.recent = t.recent[:0]
	t.recentPos = make(map[model.BlockID]int, len(live))
	for i := len(live) - 1; i >= 0; i-- {
		b := live[i]
		t.recent = append(t.recent, b)
		t.recentPos[b] = len(t.recent) - 1
	}
}

// Lambda returns λ_{b,i}: the likelihood that a request containing b also
// contains i, from window statistics. Returns 0 when b is unseen.
func (t *CoAccessTracker) Lambda(b, i model.BlockID) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	cb := t.counts[b]
	if cb == 0 {
		return 0
	}
	return float64(t.pairs[b][i]) / float64(cb)
}

// Partners returns up to max co-accessed partners of b ordered by
// descending λ.
func (t *CoAccessTracker) Partners(b model.BlockID, max int) []Partner {
	t.mu.Lock()
	defer t.mu.Unlock()
	cb := t.counts[b]
	if cb == 0 || len(t.pairs[b]) == 0 {
		return nil
	}
	ps := make([]Partner, 0, len(t.pairs[b]))
	for i, n := range t.pairs[b] {
		ps = append(ps, Partner{Block: i, Lambda: float64(n) / float64(cb)})
	}
	sort.Slice(ps, func(x, y int) bool {
		if ps[x].Lambda != ps[y].Lambda {
			return ps[x].Lambda > ps[y].Lambda
		}
		return ps[x].Block < ps[y].Block
	})
	if max > 0 && len(ps) > max {
		ps = ps[:max]
	}
	return ps
}

// Frequency returns P(b ∈ Q) over the window.
func (t *CoAccessTracker) Frequency(b model.BlockID) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.total == 0 {
		return 0
	}
	return float64(t.counts[b]) / float64(t.total)
}

// AccessCount returns the number of window requests containing b.
func (t *CoAccessTracker) AccessCount(b model.BlockID) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[b]
}

// TotalRequests returns the number of requests currently in the window.
func (t *CoAccessTracker) TotalRequests() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// CandidateBlocks probabilistically samples up to n distinct candidate
// blocks for movement, weighting recently and frequently accessed blocks
// (Algorithm 1, GETCANDIDATEBLOCKS). Sampling uses the provided rng so
// callers control determinism.
func (t *CoAccessTracker) CandidateBlocks(n int, rng *rand.Rand) []model.BlockID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || len(t.counts) == 0 {
		return nil
	}

	picked := make([]model.BlockID, 0, n)
	seen := make(map[model.BlockID]bool, n)

	// Walk the recency list newest-first; accept each block with
	// probability proportional to its access share (floored so rare
	// blocks still get explored, per the paper's "explore the effect of
	// moving many other different data items").
	maxCount := 1
	for _, c := range t.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i := len(t.recent) - 1; i >= 0 && len(picked) < n; i-- {
		b := t.recent[i]
		if b == "" || t.recentPos[b] != i || seen[b] {
			continue
		}
		p := 0.25 + 0.75*float64(t.counts[b])/float64(maxCount)
		if rng.Float64() <= p {
			picked = append(picked, b)
			seen[b] = true
		}
	}
	return picked
}

// HottestBlocks returns up to n block ids in descending window access
// count (ties broken by id so the result is deterministic). The cache
// ablation uses it to measure how much of the statistics service's hot
// set the decoded-block cache actually holds.
func (t *CoAccessTracker) HottestBlocks(n int) []model.BlockID {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || len(t.counts) == 0 {
		return nil
	}
	ids := make([]model.BlockID, 0, len(t.counts))
	for b := range t.counts {
		ids = append(ids, b)
	}
	sort.Slice(ids, func(i, j int) bool {
		if t.counts[ids[i]] != t.counts[ids[j]] {
			return t.counts[ids[i]] > t.counts[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if len(ids) > n {
		ids = ids[:n]
	}
	return ids
}

// TrackedBlocks returns the number of blocks with live statistics.
func (t *CoAccessTracker) TrackedBlocks() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.counts)
}

// MemoryFootprint approximates the tracker's live memory in bytes, used to
// reproduce the resource accounting of Table III.
func (t *CoAccessTracker) MemoryFootprint() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	const (
		blockIDBytes = 24 // string header + short id
		mapEntry     = 48
	)
	bytes := len(t.counts) * (blockIDBytes + mapEntry)
	for _, m := range t.pairs {
		bytes += mapEntry + len(m)*(blockIDBytes+mapEntry)
	}
	for _, q := range t.window {
		bytes += len(q) * blockIDBytes
	}
	bytes += len(t.recent) * blockIDBytes
	return bytes
}

func dedup(q []model.BlockID) []model.BlockID {
	out := make([]model.BlockID, 0, len(q))
	seen := make(map[model.BlockID]bool, len(q))
	for _, b := range q {
		if b == "" || seen[b] {
			continue
		}
		seen[b] = true
		out = append(out, b)
	}
	return out
}

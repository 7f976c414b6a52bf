// Package cache is a determinism golden-file fixture. Its directory's
// final path segment matches the real decoded-block cache package, so
// the reproducibility rules apply to it the same way.
package cache

import (
	"sort"
	"time"
)

// entry mirrors the real cache's resident-entry bookkeeping.
type entry struct {
	version uint64
	size    int64
}

// store is a miniature cache: keyed entries plus an injected clock.
type store struct {
	byID  map[string]entry
	clock func() time.Time
}

// injectedStamp reads time through the configured clock, never the wall
// clock directly: the sanctioned idiom for stale bookkeeping.
func (s *store) injectedStamp() time.Time {
	return s.clock()
}

// sortedBytes iterates entries in sorted key order before accumulating,
// so the float total is bit-identical across runs.
func (s *store) sortedBytes() float64 {
	keys := make([]string, 0, len(s.byID))
	for k := range s.byID {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total float64
	for _, k := range keys {
		total += float64(s.byID[k].size)
	}
	return total
}

// count is order-insensitive: integer addition commutes exactly.
func (s *store) count() int {
	n := 0
	for range s.byID {
		n++
	}
	return n
}

//go:build !race

package core

// raceEnabled reports whether the race detector is on; allocation
// budgets are skipped under -race because sync.Pool intentionally drops
// buffers there.
const raceEnabled = false

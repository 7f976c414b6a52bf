//go:build !race

package bufpool

// raceEnabled reports whether the race detector is on; allocation
// assertions are skipped under -race because sync.Pool intentionally
// degrades there.
const raceEnabled = false

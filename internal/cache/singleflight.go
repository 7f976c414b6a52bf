package cache

import (
	"context"
	"sync"

	"ecstore/internal/model"
)

// flightKey identifies one fetch+decode in flight: the block and the
// placement version it is being fetched under. Versions are part of the
// key so a request issued after a move never piggybacks on bytes fetched
// under the old placement.
type flightKey struct {
	id      model.BlockID
	version uint64
}

// Flight is one in-flight fetch+decode. The leader performs the work
// and calls Complete; followers Wait for the result (or their context).
type Flight struct {
	group *FlightGroup
	key   flightKey

	done chan struct{}
	data []byte
	err  error
}

// FlightGroup deduplicates concurrent fetch+decode work per
// (block, version): the first caller becomes the leader, later callers
// share its result instead of issuing redundant remote reads.
type FlightGroup struct {
	mu      sync.Mutex
	flights map[flightKey]*Flight
}

// NewFlightGroup returns an empty group.
func NewFlightGroup() *FlightGroup {
	return &FlightGroup{flights: make(map[flightKey]*Flight)}
}

// Join returns the flight for (id, version) and whether the caller is
// its leader. The leader MUST call Complete exactly once (typically via
// defer), even on error, or followers block until their contexts expire.
func (g *FlightGroup) Join(id model.BlockID, version uint64) (*Flight, bool) {
	key := flightKey{id: id, version: version}
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		return f, false
	}
	f := &Flight{group: g, key: key, done: make(chan struct{})}
	g.flights[key] = f
	return f, true
}

// Complete publishes the leader's result and wakes all followers. The
// flight is removed from the group first, so a request arriving after
// completion starts a fresh flight rather than observing a settled one.
func (f *Flight) Complete(data []byte, err error) {
	f.group.mu.Lock()
	delete(f.group.flights, f.key)
	f.group.mu.Unlock()
	f.data = data
	f.err = err
	close(f.done)
}

// Wait blocks until the leader completes the flight or ctx expires. On
// success every follower gets the leader's slice itself — the same one
// the leader returns to its caller and offers to the cache — which is
// why decoded blocks are immutable once they leave the decoder.
func (f *Flight) Wait(ctx context.Context) ([]byte, error) {
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-f.done:
	}
	if f.err != nil {
		return nil, f.err
	}
	return f.data, nil
}

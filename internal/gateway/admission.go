package gateway

import (
	"context"
	"fmt"
	"sync/atomic"

	"ecstore/internal/obs"
)

// admission is the bounded-queue concurrency gate. Concurrency slots
// are a buffered channel; a request that finds no free slot waits in a
// queue bounded by queueDepth, and arrivals beyond that are shed
// immediately. The wait is context-aware, so a client that gives up
// releases its queue position. No goroutines, no unbounded state: under
// overload the gateway's memory footprint is Concurrency + QueueDepth
// requests, and everything else gets a fast rejection.
type admission struct {
	slots    chan struct{}
	maxQueue int64
	waiting  atomic.Int64
	// depth is set to the queue depth after every change (the
	// gateway_queue_depth gauge; nil-safe).
	depth *obs.Gauge
}

func newAdmission(concurrency, queueDepth int, depth *obs.Gauge) *admission {
	if concurrency <= 0 {
		concurrency = 64
	}
	if queueDepth <= 0 {
		queueDepth = 2 * concurrency
	}
	return &admission{
		slots:    make(chan struct{}, concurrency),
		maxQueue: int64(queueDepth),
		depth:    depth,
	}
}

// acquire takes a concurrency slot, queueing up to the bound. It
// returns errOverloaded (shed) when the queue is full, or the context
// error if the caller gave up while queued. On success the caller must
// release().
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.slots <- struct{}{}:
		return nil
	default:
	}
	n := a.waiting.Add(1)
	if n > a.maxQueue {
		a.waiting.Add(-1)
		return ErrOverloaded
	}
	a.depth.Set(n)
	defer func() {
		a.depth.Set(a.waiting.Add(-1))
	}()
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("gateway: abandoned admission queue: %w", ctx.Err())
	}
}

func (a *admission) release() { <-a.slots }

// queueDepth returns the current number of queued (waiting) requests.
func (a *admission) queueDepth() int { return int(a.waiting.Load()) }

// inflight returns the number of held concurrency slots.
func (a *admission) inflight() int { return len(a.slots) }

// Package gateway is the multi-tenant access tier: a thin daemon that
// multiplexes untrusted tenant traffic over one pooled core.Client (so
// all tenants share its decoded-block cache, circuit breakers and
// late-binding reads) behind per-tenant token-bucket rate limits, byte
// quotas, and admission control with a bounded queue. Overload is met
// with load shedding — a 429-style rejection the client can back off
// from — never with an unbounded queue that collapses tail latency for
// everyone (DESIGN.md §15).
//
// The package is in the determinism lint scope: all time flows through
// an injected clock and all randomness through seeded generators, so
// the same admission logic runs under the virtual-time simulator.
package gateway

import "time"

// tokenBucket is a standard token bucket with float64 tokens so
// fractional refill accumulates exactly. rate is tokens/second, burst
// the bucket capacity. A zero-rate bucket never refills: the tenant can
// spend its initial burst and is then denied forever (the "suspended
// tenant" configuration). Not safe for concurrent use — the owning
// tenant's mutex serializes access.
type tokenBucket struct {
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64, now time.Time) *tokenBucket {
	if burst < 0 {
		burst = 0
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: now}
}

// allow refills the bucket up to now and takes one token if available.
func (b *tokenBucket) allow(now time.Time) bool {
	if b.rate > 0 {
		dt := now.Sub(b.last).Seconds()
		if dt > 0 {
			b.tokens += b.rate * dt
			if b.tokens > b.burst {
				b.tokens = b.burst
			}
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

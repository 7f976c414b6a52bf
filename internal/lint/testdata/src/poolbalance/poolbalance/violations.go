// Package poolbalance is a poolbalance golden-file fixture: pooled
// values that fail to reach a matching Put/Release on every path.
package poolbalance

import "sync"

type buf struct {
	b []byte
}

var pool = sync.Pool{New: func() any { return new(buf) }}

// getBuf and putBuf are inferred as a pool source and a releaser, the
// way the production helpers (wire.GetEncoder, PutEncoder) are;
// frames.go covers the real bufpool.Get / bufpool.Put pair.
func getBuf() *buf {
	return pool.Get().(*buf)
}

func putBuf(b *buf) {
	pool.Put(b)
}

// earlyReturn leaks the pooled value on the error path.
func earlyReturn(fail bool) error {
	v := pool.Get().(*buf)
	if fail {
		return errFixture // want "return without releasing pooled value v"
	}
	pool.Put(v)
	return nil
}

// earlyReturnHelper leaks a helper-sourced value the same way: the
// source and releaser are inferred through the call graph.
func earlyReturnHelper(fail bool) error {
	v := getBuf()
	if fail {
		return errFixture // want "return without releasing pooled value v obtained from poolbalance.getBuf"
	}
	putBuf(v)
	return nil
}

// neverReleased forgets the Put entirely.
func neverReleased() {
	v := pool.Get().(*buf) // want "pooled value v obtained from pool.Get is never released"
	v.b = v.b[:0]
}

// doublePut releases the same value twice: the second Put hands the
// pool two references to one buffer.
func doublePut() {
	v := pool.Get().(*buf)
	pool.Put(v)
	pool.Put(v) // want "pooled value v released twice"
}

// doublePutDeferred double-releases through a defer that already
// covers the value.
func doublePutDeferred() {
	v := getBuf()
	defer putBuf(v)
	putBuf(v) // want "pooled value v released twice"
}

// dropped discards the pooled value at the call site.
func dropped() {
	pool.Get() // want "result of pool source pool.Get is discarded"
}

type fixtureError string

func (e fixtureError) Error() string { return string(e) }

const errFixture = fixtureError("fixture")

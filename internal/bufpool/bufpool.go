// Package bufpool is the module's one byte-buffer pool: every layer of
// the data path (codec stripes, rpc frames, chunk reads off a store, the
// decode window) takes its transient buffers here and hands them back.
//
// Buffers live in power-of-two size classes; Get takes the smallest
// class that fits and allocates a class-sized buffer when the class is
// empty (a miss). The classes are sync.Pools, so an idle process gives
// the memory back at the next garbage collection.
//
// Ownership rule, shared by every caller: a buffer is either immutable
// and shared, or exclusively owned and released — never both. Get hands
// out exclusive ownership; it ends at Put, after which any slice into
// the buffer may be overwritten by an unrelated caller. Put is an
// optimisation, never an obligation: a buffer nobody puts back is
// ordinary garbage. The one thing a caller must never do is Put a
// buffer someone else can still see (a block handed to the cache or
// returned to an application, a payload still being written to a
// socket).
package bufpool

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"
)

const (
	// minClass..maxClass bound the pooled size classes: 512 B (below
	// which allocation is cheaper than pooling) to 64 MiB (the wire
	// layer's MaxFrameSize; larger requests allocate directly).
	minClass = 9
	maxClass = 26
)

// classes[c] holds the base pointers of free 1<<c byte buffers. A bare
// pointer (rather than a slice or a boxed slice) goes into the pool
// because it fits an interface word: Put allocates nothing, and Put can
// take the slice alone — the capacity is implied by the class.
var classes [maxClass + 1]sync.Pool

// class returns the smallest class whose buffers hold n > 0 bytes.
func class(n int) int {
	c := bits.Len(uint(n - 1))
	if c < minClass {
		c = minClass
	}
	return c
}

// Get returns a length-n buffer the caller owns exclusively. Its
// capacity is the class size and its contents are stale pool data:
// overwrite every byte you expose. Get(0) returns nil.
func Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	c := class(n)
	if c > maxClass {
		NoteMiss()
		return make([]byte, n)
	}
	var b []byte
	if p, _ := classes[c].Get().(*byte); p != nil {
		b = unsafe.Slice(p, 1<<c)[:n]
	} else {
		NoteMiss()
		b = make([]byte, 1<<c)[:n]
	}
	if poison.Load() {
		fill(b[:cap(b)], poisonAcquired)
		outstanding.Add(1)
	}
	return b
}

// Put returns a buffer obtained from Get to its size class; no slice of
// it may be used afterwards. Any slice whose capacity is a class size is
// accepted (b may have been resliced shorter, but must still start at
// the buffer's first byte); anything else — nil, or a buffer that did
// not come from Get — is left to the garbage collector.
func Put(b []byte) {
	c := cap(b)
	if c < 1<<minClass || c > 1<<maxClass || c&(c-1) != 0 {
		return
	}
	b = b[:c]
	if poison.Load() {
		if all(b, poisonReleased) {
			panic("bufpool: buffer released twice")
		}
		fill(b, poisonReleased)
		outstanding.Add(-1)
	}
	classes[bits.Len(uint(c))-1].Put(unsafe.SliceData(b))
}

// missHook observes pool misses; see SetMissHook.
var missHook atomic.Value // func()

// SetMissHook installs fn to be called on every pool miss — a Get that
// had to allocate, or NoteMiss from another data-path pool. The core
// client points it at the buffer_pool_miss_total counter. The hook is
// process-global and fn must be safe for concurrent use.
func SetMissHook(fn func()) { missHook.Store(fn) }

// NoteMiss reports one pool miss to the installed hook. The wire
// package's encoder pool calls it so a single counter covers every
// data-path pool.
func NoteMiss() {
	if fn, ok := missHook.Load().(func()); ok && fn != nil {
		fn()
	}
}

// Poison mode is the test-only ownership checker. While it is on, Put
// overwrites the whole buffer with 0xDB, so a reader still holding a
// released buffer sees garbage (and fails its checksum) instead of
// plausible stale bytes; Get overwrites it with 0xAC, so code that
// relies on a fresh buffer being zeroed fails too; and a Put of a buffer
// that is still all-0xDB — released and never re-acquired — panics as a
// double release.
const (
	poisonReleased = 0xDB
	poisonAcquired = 0xAC
)

var (
	poison      atomic.Bool
	outstanding atomic.Int64
)

// SetPoison switches poison mode on or off. Tests only: call it from
// TestMain before anything takes a buffer.
func SetPoison(on bool) { poison.Store(on) }

// Outstanding returns how many buffers handed out by Get have not come
// back through Put since poison mode was switched on (it is not counted
// otherwise). A read path that releases everything it acquires leaves it
// unchanged.
func Outstanding() int64 { return outstanding.Load() }

func fill(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

func all(b []byte, v byte) bool {
	for _, x := range b {
		if x != v {
			return false
		}
	}
	return true
}

package wire

import (
	"fmt"
	"io"
	"net"
	"sync"

	"ecstore/internal/bufpool"
)

// Zero-copy framing: chunk payloads never pass through an encoder
// buffer. A frame goes out as a small pooled header buffer plus the
// caller's payload slice, vectored through net.Buffers so TCP
// connections use writev; small frames coalesce into one Write because
// the in-memory pipe transport turns every Write into a synchronous
// rendezvous.

// coalesceLimit is the total frame size at or below which the payload
// is copied into the header buffer and written in one Write call.
// Copying a few KiB costs less than a second syscall (or a second pipe
// rendezvous); copying a half-MiB chunk does not.
const coalesceLimit = 4 << 10

// maxPooledEncoder caps the buffer capacity returned to the encoder
// pool. Headers and control-plane bodies stay well under this; the rare
// oversized buffer is dropped for the garbage collector so the pool
// never pins chunk-sized memory.
const maxPooledEncoder = 64 << 10

// encoderPool recycles Encoder structs, which bufpool's plain byte
// buffers cannot replace; its misses are reported through bufpool's
// hook so buffer_pool_miss_total covers every data-path pool.
var encoderPool = sync.Pool{
	New: func() any {
		bufpool.NoteMiss()
		return &Encoder{buf: make([]byte, 0, 512)}
	},
}

// GetEncoder returns an empty pooled encoder. Release it with
// PutEncoder once the encoded bytes have been fully consumed — for a
// framed write, after WriteFrame/WriteFrameBuffers returns, since
// Bytes aliases the encoder's buffer.
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.released = false
	e.buf = e.buf[:0]
	return e
}

// PutEncoder returns an encoder to the pool. The encoder is poisoned:
// any use after PutEncoder panics, which turns latent aliasing bugs
// (retaining Bytes across release, double release) into loud failures
// instead of corrupted in-flight frames.
func PutEncoder(e *Encoder) {
	if e == nil {
		return
	}
	if e.released {
		panic("wire: PutEncoder called twice")
	}
	e.released = true
	if cap(e.buf) > maxPooledEncoder {
		return
	}
	encoderPool.Put(e)
}

// WriteFrameBuffers writes one length-prefixed frame whose content is
// head followed by payload, without copying payload into an encoder
// buffer (frames above coalesceLimit go out vectored via net.Buffers).
// Neither slice is retained after return. head is typically a pooled
// encoder's Bytes; the caller releases it after this returns.
func WriteFrameBuffers(w io.Writer, head, payload []byte) error {
	total := len(head) + len(payload)
	if total > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, total)
	}
	e := GetEncoder()
	defer PutEncoder(e)
	e.Uint32(uint32(total))
	e.Raw(head)
	if len(payload) == 0 || 4+total <= coalesceLimit {
		e.Raw(payload)
		if _, err := w.Write(e.Bytes()); err != nil {
			return fmt.Errorf("write frame: %w", err)
		}
		return nil
	}
	bufs := net.Buffers{e.Bytes(), payload}
	if _, err := bufs.WriteTo(w); err != nil {
		return fmt.Errorf("write frame buffers: %w", err)
	}
	return nil
}

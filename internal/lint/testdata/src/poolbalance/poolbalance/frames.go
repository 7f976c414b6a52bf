package poolbalance

import (
	"io"

	"ecstore/internal/bufpool"
)

// The functions below take frame buffers from the module's real pool:
// bufpool.Get and bufpool.Put are inferred as a source and a releaser
// through the unsafe.Slice / unsafe.SliceData conversions between a
// buffer and the bare pointer bufpool keeps.

// leakedFrame is the rpc read loop with its error path forgotten: the
// body buffer was only read into, so nobody else owns it.
func leakedFrame(r io.Reader, n int) error {
	body := bufpool.Get(n)
	if _, err := io.ReadFull(r, body); err != nil {
		return err // want "return without releasing pooled value body obtained from bufpool.Get"
	}
	handle(body)
	bufpool.Put(body)
	return nil
}

// doubleReleasedFrame releases on the error path and then falls into
// the common release.
func doubleReleasedFrame(r io.Reader, n int) {
	body := bufpool.Get(n)
	if _, err := r.Read(body); err != nil {
		bufpool.Put(body)
	}
	bufpool.Put(body) // want "pooled value body released twice"
}

// readFrame is the correct shape: released on the error path, handed
// to the caller otherwise.
func readFrame(r io.Reader, n int) ([]byte, error) {
	body := bufpool.Get(n)
	if _, err := io.ReadFull(r, body); err != nil {
		bufpool.Put(body)
		return nil, err
	}
	return body, nil
}

// scratch is the decode-window shape: one deferred release.
func scratch(src []byte) byte {
	win := bufpool.Get(len(src))
	defer bufpool.Put(win)
	copy(win, src)
	return win[0]
}

func handle([]byte) {}

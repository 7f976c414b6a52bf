package rpc

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"ecstore/internal/bufpool"
)

// The tests in this file pin the buffer rules in the package comment.
// TestMain's poison mode does the checking: a buffer released while the
// peer can still see it reads as 0xDB, a second release panics, and
// bufpool.Outstanding counts the buffers not yet put back.

// waitOutstanding waits for the server and read-loop goroutines to put
// back what they hold and fails if the count does not come to want.
func waitOutstanding(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for bufpool.Outstanding() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d pool buffers outstanding, want %d", bufpool.Outstanding(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// payload is big enough to be pooled (above bufpool's smallest class)
// and free of poison bytes.
func payload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i % 199)
	}
	return p
}

// TestServerReleasesRequestAfterResponse: a result that aliases the
// request body reaches the client intact, so the request buffer was
// recycled only after the write, and it was recycled.
func TestServerReleasesRequestAfterResponse(t *testing.T) {
	base := bufpool.Outstanding()
	client, cleanup := startServer(t, HandlerFunc(echoHandler))
	defer cleanup()
	want := payload(70_000)
	for i := 0; i < 20; i++ {
		resp, err := client.Call(1, want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, want) {
			t.Fatal("echoed body corrupted: the request buffer was recycled before the response was written")
		}
		if cap(resp) != len(resp) {
			t.Fatalf("plain call got a %d-byte buffer for a %d-byte body, want an exact allocation", cap(resp), len(resp))
		}
	}
	waitOutstanding(t, base)
}

// TestReleaseAfterWrite: a result the handler declares as exclusively
// its own goes back to the pool once, after it is on the wire; an
// undeclared one never does.
func TestReleaseAfterWrite(t *testing.T) {
	want := payload(40_000)
	var shared []byte // what method 2 returns: someone else's block
	h := HandlerFunc(func(ctx context.Context, m Method, _ []byte) ([]byte, error) {
		if m == 2 {
			return shared, nil
		}
		out := bufpool.Get(len(want))
		copy(out, want)
		ReleaseAfterWrite(ctx, out)
		return out, nil
	})
	// Taken from the pool so that a wrong release would be accepted (and
	// poison it) rather than be dropped for its capacity.
	shared = bufpool.Get(len(want))
	copy(shared, want)
	base := bufpool.Outstanding()

	client, cleanup := startServer(t, h)
	defer cleanup()
	for i := 0; i < 20; i++ {
		resp, err := client.Call(Method(1+i%2), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, want) {
			t.Fatalf("call %d: response corrupted: the result was recycled before it was written", i)
		}
	}
	waitOutstanding(t, base)
	if !bytes.Equal(shared, want) {
		t.Fatal("the server recycled a result its handler never declared")
	}

	// Outside a server request the declaration is a no-op.
	ReleaseAfterWrite(context.Background(), shared)
	if !bytes.Equal(shared, want) {
		t.Fatal("ReleaseAfterWrite released under a foreign context")
	}
	bufpool.Put(shared)
}

// TestPooledCallOwnsItsResponse: CallContextPooled hands the caller a
// bufpool buffer that starts at the body, releasable by the slice alone.
func TestPooledCallOwnsItsResponse(t *testing.T) {
	base := bufpool.Outstanding()
	client, cleanup := startServer(t, HandlerFunc(echoHandler))
	defer cleanup()
	want := payload(100_000)
	for i := 0; i < 10; i++ {
		resp, err := client.CallContextPooled(context.Background(), 1, want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp, want) {
			t.Fatal("pooled response corrupted")
		}
		if cap(resp) != 1<<17 {
			t.Fatalf("pooled response has capacity %d, want the 128 KiB class: it does not start at its buffer's first byte", cap(resp))
		}
		waitOutstanding(t, base+1) // the server has put back its side
		bufpool.Put(resp)
	}
	// A remote error carries no buffer to own.
	if _, err := client.CallContextPooled(context.Background(), 2, want); err == nil {
		t.Fatal("remote error not propagated")
	}
	waitOutstanding(t, base)
}

// TestAbandonedPooledCallReleasesResponse: when the caller has stopped
// waiting, whichever side sees the late response puts its buffer back —
// the read loop draining a stale frame, or the deliver/abandon handshake
// when the loop had already claimed the call.
func TestAbandonedPooledCallReleasesResponse(t *testing.T) {
	base := bufpool.Outstanding()
	release := make(chan struct{})
	want := payload(50_000)
	h := HandlerFunc(func(ctx context.Context, m Method, body []byte) ([]byte, error) {
		switch m {
		case 8: // answers about when the caller gives up
			time.Sleep(300 * time.Microsecond)
		case 9: // answers long after
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return want, nil
	})
	client, cleanup := startServer(t, h)
	defer cleanup()

	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%3)*time.Millisecond)
		_, err := client.CallContextPooled(ctx, 9, nil)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want DeadlineExceeded", err)
		}
	}
	// Responses racing the deadline: some are delivered, some arrive while
	// the read loop holds the call the caller is abandoning.
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Microsecond)
		resp, err := client.CallContextPooled(ctx, 8, nil)
		cancel()
		if err == nil {
			bufpool.Put(resp)
		}
	}
	close(release) // the late responses arrive now
	resp, err := client.CallContextPooled(context.Background(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, want) {
		t.Fatal("the connection lost framing while draining stale responses")
	}
	bufpool.Put(resp)
	waitOutstanding(t, base)
}

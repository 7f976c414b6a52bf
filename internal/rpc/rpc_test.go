package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ecstore/internal/transport"
	"ecstore/internal/wire"
)

// echoHandler echoes the body for method 1, errors for method 2, and
// reverses for method 3.
func echoHandler(_ context.Context, method Method, body []byte) ([]byte, error) {
	switch method {
	case 1:
		return body, nil
	case 2:
		return nil, errors.New("boom")
	case 3:
		out := make([]byte, len(body))
		for i, b := range body {
			out[len(body)-1-i] = b
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown method %d", method)
	}
}

// startServer runs a server on the memory network and returns a connected
// client plus a cleanup function.
func startServer(t *testing.T, h Handler) (*Client, func()) {
	t.Helper()
	net := transport.NewMemory()
	l, err := net.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l)
	}()
	conn, err := net.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(conn)
	cleanup := func() {
		_ = client.Close()
		_ = srv.Close()
		<-done
		net.Close()
	}
	return client, cleanup
}

func TestCallRoundTrip(t *testing.T) {
	client, cleanup := startServer(t, HandlerFunc(echoHandler))
	defer cleanup()

	resp, err := client.Call(1, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "ping" {
		t.Fatalf("resp = %q", resp)
	}

	rev, err := client.Call(3, []byte("abc"))
	if err != nil {
		t.Fatal(err)
	}
	if string(rev) != "cba" {
		t.Fatalf("rev = %q", rev)
	}
}

func TestCallRemoteError(t *testing.T) {
	client, cleanup := startServer(t, HandlerFunc(echoHandler))
	defer cleanup()

	_, err := client.Call(2, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *RemoteError", err, err)
	}
	if re.Msg != "boom" {
		t.Fatalf("remote msg = %q", re.Msg)
	}
}

func TestConcurrentCalls(t *testing.T) {
	client, cleanup := startServer(t, HandlerFunc(echoHandler))
	defer cleanup()

	const n = 50
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("msg-%d", i)
			resp, err := client.Call(1, []byte(want))
			if err != nil {
				errs <- err
				return
			}
			if string(resp) != want {
				errs <- fmt.Errorf("resp %q != %q", resp, want)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestCallAfterClose(t *testing.T) {
	client, cleanup := startServer(t, HandlerFunc(echoHandler))
	defer cleanup()

	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call(1, nil); err == nil {
		t.Fatal("Call succeeded after Close")
	}
}

func TestPendingCallsFailOnConnectionLoss(t *testing.T) {
	block := make(chan struct{})
	slow := HandlerFunc(func(_ context.Context, m Method, body []byte) ([]byte, error) {
		<-block
		return body, nil
	})
	net := transport.NewMemory()
	l, err := net.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(slow)
	go func() { _ = srv.Serve(l) }()
	conn, err := net.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(conn)

	callErr := make(chan error, 1)
	go func() {
		_, err := client.Call(1, []byte("x"))
		callErr <- err
	}()
	// Kill the transport under the in-flight call.
	_ = conn.Close()
	if err := <-callErr; err == nil {
		t.Fatal("in-flight call survived connection loss")
	}
	close(block)
	_ = srv.Close()
	net.Close()
	_ = client.Close()
}

// TestCallContextDeadline verifies a hung handler cannot stall a caller
// past its deadline, and that the abandoned response is discarded without
// corrupting later calls on the same connection.
func TestCallContextDeadline(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	hang := HandlerFunc(func(ctx context.Context, m Method, body []byte) ([]byte, error) {
		if m == 9 {
			select {
			case <-block:
			case <-ctx.Done():
			}
		}
		return body, nil
	})
	client, cleanup := startServer(t, hang)
	defer cleanup()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.CallContext(ctx, 9, []byte("stuck"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline call took %v", elapsed)
	}
	// The connection stays usable for subsequent calls.
	resp, err := client.Call(1, []byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "after" {
		t.Fatalf("resp = %q", resp)
	}
}

// TestHandlerContextCanceledOnConnClose verifies the server cancels the
// per-connection handler context when the connection drops.
func TestHandlerContextCanceledOnConnClose(t *testing.T) {
	canceled := make(chan struct{})
	h := HandlerFunc(func(ctx context.Context, m Method, body []byte) ([]byte, error) {
		<-ctx.Done()
		close(canceled)
		return nil, ctx.Err()
	})
	net := transport.NewMemory()
	defer net.Close()
	l, err := net.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(h)
	go func() { _ = srv.Serve(l) }()
	conn, err := net.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(conn)
	go func() { _, _ = client.Call(1, nil) }()
	// Give the request a moment to reach the handler, then drop the conn.
	time.Sleep(5 * time.Millisecond)
	_ = conn.Close()
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("handler context never canceled after connection close")
	}
	_ = srv.Close()
	_ = client.Close()
}

func TestServerRejectsMalformedFrame(t *testing.T) {
	net := transport.NewMemory()
	l, err := net.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(HandlerFunc(echoHandler))
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()
	conn, err := net.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	// A frame shorter than the 9-byte header: server drops the conn as
	// soon as it has seen the length prefix, so the body write may
	// already find the pipe closed.
	_ = wire.WriteFrame(conn, []byte{1, 2, 3})
	// The connection should be closed by the server; a subsequent read
	// returns an error.
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("server kept malformed connection open")
	}
	_ = conn.Close()
	_ = srv.Close()
	<-done
	net.Close()
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := NewServer(HandlerFunc(echoHandler))
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOverTCP(t *testing.T) {
	tcp := &transport.TCP{}
	l, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(HandlerFunc(echoHandler))
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }()
	conn, err := tcp.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(conn)
	resp, err := client.Call(1, []byte("tcp"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "tcp" {
		t.Fatalf("resp = %q", resp)
	}
	_ = client.Close()
	_ = srv.Close()
	<-done
}

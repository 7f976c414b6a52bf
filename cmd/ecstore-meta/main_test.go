package main

import (
	"net"
	"testing"
	"time"

	"ecstore/internal/metadata"
	"ecstore/internal/model"
	"ecstore/internal/rpc"
	"ecstore/internal/transport"
)

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bogus flag accepted")
	}
	if err := run([]string{"-sites", "1"}); err == nil {
		t.Fatal("single-site cluster accepted")
	}
	if err := run([]string{"-addr", "999.999.999.999:1"}); err == nil {
		t.Fatal("invalid address accepted")
	}
}

func TestRunServesMetadataRPC(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()

	errCh := make(chan error, 1)
	go func() { errCh <- run([]string{"-addr", addr, "-sites", "3"}) }()

	tcp := &transport.TCP{DialTimeout: time.Second}
	var conn net.Conn
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err = tcp.Dial(addr)
		if err == nil {
			break
		}
		select {
		case e := <-errCh:
			t.Fatalf("server exited early: %v", e)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	client := metadata.NewClient(rpc.NewClient(conn))
	if got := client.Sites(); len(got) != 3 {
		t.Fatalf("Sites = %v", got)
	}
	err = client.Register(&model.BlockMeta{
		ID: "b", Scheme: model.SchemeErasure, K: 2, R: 1,
		Size: 10, ChunkSize: 5, Sites: []model.SiteID{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	metas, err := client.Lookup([]model.BlockID{"b"})
	if err != nil || metas["b"].K != 2 {
		t.Fatalf("lookup over TCP: %v %+v", err, metas["b"])
	}
}

func TestOpenCatalogWAL(t *testing.T) {
	dir := t.TempDir()

	c1, err := openCatalog(4, dir, metadata.WALOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	err = c1.Register(&model.BlockMeta{
		ID: "walblock", Scheme: model.SchemeErasure, K: 2, R: 1,
		Size: 10, ChunkSize: 5, Sites: []model.SiteID{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := openCatalog(6, dir, metadata.WALOptions{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c2.Close() }()
	if _, ok := c2.BlockMeta("walblock"); !ok {
		t.Fatal("block lost across WAL restart")
	}
	if got := len(c2.Sites()); got != 6 {
		t.Fatalf("sites after growth = %d", got)
	}

	// No WAL directory configured: always a fresh, volatile catalog.
	c3, err := openCatalog(2, "", metadata.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c3.Len() != 0 {
		t.Fatal("in-memory catalog not fresh")
	}
}

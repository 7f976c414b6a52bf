package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ecstore/internal/erasure"
	"ecstore/internal/metadata"
	"ecstore/internal/model"
)

// Layer probes call one layer directly, with nothing else running, so
// its ceiling can be set beside the rate the workloads actually drive it
// at. Each runs for probeTime on its own.
const probeTime = 400 * time.Millisecond

// runProbes fills the erasure.* and metadata.catalog_* metrics.
func runProbes(ctx context.Context, pl map[string]float64, dir string, sz sizing) {
	d := sz.scaledDur(probeTime)
	for _, p := range []struct {
		name string
		size int
	}{{"100k", kb100}, {"1m", mib}} {
		enc, dec := probeCodec(p.size, d)
		pl["erasure.encode_"+p.name+"_mb_s"] = enc
		pl["erasure.decode_"+p.name+"_mb_s"] = dec
	}
	reg, look, err := probeCatalog(ctx, dir, d)
	if err != nil {
		// A probe that cannot run reports 0; the workload's own result
		// does not depend on it.
		fmt.Fprintf(os.Stderr, "benchmark: catalog probe: %v\n", err)
	}
	pl["metadata.catalog_register_ops_s"] = reg
	pl["metadata.catalog_lookup_ops_s"] = look
}

// probeCodec measures RS(2,2) EncodePooled and a degraded DecodeInto
// (one data chunk rebuilt from parity) in MB of block data per second.
func probeCodec(size int, d time.Duration) (encMBs, decMBs float64) {
	codec, err := erasure.NewCodec(2, 2)
	if err != nil {
		return 0, 0
	}
	data := makePayload(1, "probe", size)
	rate := func(fn func() bool) float64 {
		start, n := time.Now(), 0
		for time.Since(start) < d {
			if !fn() {
				return 0
			}
			n++
		}
		return float64(n) * float64(size) / 1e6 / time.Since(start).Seconds()
	}
	encMBs = rate(func() bool {
		st, err := codec.EncodePooled(data)
		if err != nil {
			return false
		}
		st.Release()
		return true
	})
	chunks, err := codec.Encode(data)
	if err != nil {
		return encMBs, 0
	}
	avail := map[int][]byte{1: chunks[1], 2: chunks[2]}
	dst := make([]byte, size)
	decMBs = rate(func() bool { return codec.DecodeInto(dst, avail) == nil })
	return encMBs, decMBs
}

// probeCatalog drives a durable catalog directly — the rig's WAL
// settings, two workers, no RPC — first with Registers, then with
// Lookups of what was registered.
func probeCatalog(ctx context.Context, dir string, d time.Duration) (registerOps, lookupOps float64, err error) {
	sites := []model.SiteID{1, 2, 3, 4, 5, 6}
	cat, err := metadata.Open(dir, sites, metadata.WALOptions{})
	if err != nil {
		return 0, 0, fmt.Errorf("open probe catalog: %w", err)
	}
	defer func() { _ = cat.Close() }()

	var registered [numClients]int
	var failed atomic.Bool
	run := func(fn func(worker, i int) error) float64 {
		start := time.Now()
		var total atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < numClients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				i := 0
				for ; time.Since(start) < d && ctx.Err() == nil; i++ {
					if fn(w, i) != nil {
						failed.Store(true)
						break
					}
				}
				total.Add(int64(i))
			}(w)
		}
		wg.Wait()
		return float64(total.Load()) / time.Since(start).Seconds()
	}
	key := func(w, i int) model.BlockID { return model.BlockID(fmt.Sprintf("p%d-%08d", w, i)) }
	registerOps = run(func(w, i int) error {
		registered[w] = i + 1
		return cat.Register(&model.BlockMeta{
			ID: key(w, i), Scheme: model.SchemeErasure, Size: kb100, K: 2, R: 2, ChunkSize: kb100 / 2,
			Sites: sites[:4],
		})
	})
	lookupOps = run(func(w, i int) error {
		if registered[w] == 0 {
			return fmt.Errorf("nothing registered")
		}
		_, err := cat.Lookup([]model.BlockID{key(w, i%registered[w])})
		return err
	})
	if failed.Load() {
		return 0, 0, fmt.Errorf("probe catalog operation failed")
	}
	return registerOps, lookupOps, nil
}

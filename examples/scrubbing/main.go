// Scrubbing: chunk checksums catch silent bit rot at rest, and the
// background task scheduler repairs what the scrubber finds. This demo
// injects corruption directly into one site's stored chunks (using the
// internal fault injector — a real deployment's disks do this for free),
// runs one control-plane round, and shows every damaged chunk detected
// and re-protected. CI greps the scrub_corrupt_detected line to assert
// the scrub plane end to end.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"ecstore/internal/core"
	"ecstore/internal/faults"
	"ecstore/internal/model"
	"ecstore/internal/obs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	reg := obs.NewRegistry()
	cfg := core.ClusterConfig{
		NumSites:     6,
		EnableRepair: true,
		EnableScrub:  true,
		Metrics:      reg,
	}
	cluster, err := core.NewCluster(cfg)
	if err != nil {
		return err
	}
	defer cluster.Close()
	ctx := context.Background()

	payloads := make(map[model.BlockID][]byte)
	for i := 0; i < 6; i++ {
		id := model.BlockID(fmt.Sprintf("blk%d", i))
		data := bytes.Repeat([]byte{byte(i + 1)}, 400)
		payloads[id] = data
		if err := cluster.Client.Put(id, data); err != nil {
			return err
		}
	}

	// Bit rot: flip bits in every chunk one site holds, behind the
	// catalog's back. Checksums are the only way anyone finds out.
	victim := model.SiteID(2)
	damaged, err := faults.Corrupt(cluster.Services[victim].Store(), faults.NewInjector(7),
		faults.CorruptionPlan{BitFlipRate: 1})
	if err != nil {
		return err
	}
	fmt.Printf("injected bit rot into %d chunks on site %d\n", len(damaged), victim)

	// One control-plane round: the scrub sweep walks every site,
	// verifies checksums, and enqueues repair for what it finds; the
	// repair executor rewrites the damaged chunks in place.
	cluster.Tick(ctx)

	var detected int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "scrub_corrupt_detected_total" {
			detected = c.Value
		}
	}
	fmt.Printf("scrub_corrupt_detected=%d\n", detected)
	if detected != int64(len(damaged)) {
		return fmt.Errorf("scrub detected %d of %d corrupt chunks", detected, len(damaged))
	}

	// Every damaged chunk verifies clean again, and every block reads
	// back intact.
	for _, ref := range damaged {
		if _, err := cluster.Services[victim].VerifyChunk(ctx, ref); err != nil {
			return fmt.Errorf("chunk %s still damaged after repair: %w", ref, err)
		}
	}
	for id, want := range payloads {
		got, err := cluster.Client.Get(id)
		if err != nil {
			return fmt.Errorf("read %s after repair: %w", id, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("block %s corrupted end to end", id)
		}
	}
	fmt.Println("all chunks re-protected; every block reads back intact")
	return nil
}

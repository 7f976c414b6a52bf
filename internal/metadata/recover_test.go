package metadata

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ecstore/internal/model"
	"ecstore/internal/wire"
)

// stateDump captures a catalog's full logical state in comparable form:
// encoded blocks (sorted by id), sites, the derived per-site block index,
// site infos, tasks, and the retired watermarks of every id in ids.
type stateDump struct {
	Blocks  map[model.BlockID]string
	Sites   []model.SiteID
	OnSite  map[model.SiteID][]model.BlockID
	Infos   map[model.SiteID]model.SiteInfo
	Tasks   map[string]string
	Retired map[model.BlockID]uint64
	Len     int
}

func dumpState(c *Catalog, ids []model.BlockID) stateDump {
	d := stateDump{
		Blocks:  map[model.BlockID]string{},
		Sites:   c.Sites(),
		OnSite:  map[model.SiteID][]model.BlockID{},
		Infos:   c.SiteInfos(),
		Tasks:   map[string]string{},
		Retired: map[model.BlockID]uint64{},
		Len:     c.Len(),
	}
	for _, id := range ids {
		if meta, ok := c.BlockMeta(id); ok {
			e := wire.NewEncoder(64)
			EncodeBlockMeta(e, meta)
			d.Blocks[id] = string(e.Bytes())
		}
		if v, ok := c.RetiredVersion(id); ok {
			d.Retired[id] = v
		}
	}
	for _, s := range d.Sites {
		if on := c.BlocksOnSite(s); len(on) > 0 {
			d.OnSite[s] = on
		}
	}
	for _, t := range c.ListTasks() {
		e := wire.NewEncoder(64)
		EncodeTaskRecord(e, t)
		d.Tasks[t.ID] = string(e.Bytes())
	}
	return d
}

func requireEqualState(t *testing.T, want, got stateDump) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("state diverged:\nwant %+v\ngot  %+v", want, got)
	}
}

func mustOpen(t *testing.T, dir string, opts WALOptions) *Catalog {
	t.Helper()
	c, err := Open(dir, sites(6), opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOpenRecoversFullState(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, WALOptions{Partitions: 4})
	if err := c.Register(blockMeta("a", 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(blockMeta("b", 2, 3, 4, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.UpdatePlacement("a", 0, 6, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("b"); err != nil {
		t.Fatal(err)
	}
	if err := c.SetSiteInfo(model.SiteInfo{ID: 2, Zone: "z-b", State: model.SiteDraining}); err != nil {
		t.Fatal(err)
	}
	if err := c.PutTask(taskRec("t1", model.TaskPending)); err != nil {
		t.Fatal(err)
	}
	rep := &model.BlockMeta{ID: "rep", Scheme: model.SchemeReplicated, Size: 100, K: 1, R: 2, ChunkSize: 100,
		Sites: []model.SiteID{1, 3, 5}}
	if err := c.Register(rep); err != nil {
		t.Fatal(err)
	}
	ids := []model.BlockID{"a", "b", "rep"}
	want := dumpState(c, ids)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, WALOptions{Partitions: 4})
	defer func() { _ = r.Close() }()
	requireEqualState(t, want, dumpState(r, ids))
	// Close does not compact, so the state came back by replaying the
	// log: at least one record per registered block, over all partitions.
	if replayed, _ := r.ReplayStats(); replayed < int64(len(ids)) {
		t.Fatalf("recovery replayed %d records for %d registers", replayed, len(ids))
	}
	if r.Partitions() != 4 {
		t.Fatalf("partitions = %d after recovery, want 4", r.Partitions())
	}
	if v, ok := r.RetiredVersion("b"); !ok || v != 0 {
		t.Fatalf("retired watermark for b = %d, %v", v, ok)
	}
	if got, _ := r.BlockMeta("rep"); got.Scheme != model.SchemeReplicated || got.RequiredChunks() != 1 {
		t.Fatalf("replicated block mangled: %+v", got)
	}
}

// TestReopenEmptyCatalog: a catalog that never saw a mutation reopens
// empty, with its site list.
func TestReopenEmptyCatalog(t *testing.T) {
	dir := t.TempDir()
	if err := mustOpen(t, dir, WALOptions{}).Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, WALOptions{})
	defer func() { _ = r.Close() }()
	if r.Len() != 0 || len(r.Sites()) != 6 {
		t.Fatalf("reopened empty catalog: %d blocks, sites %v", r.Len(), r.Sites())
	}
}

// TestRetiredWatermarkSurvivesRestart is the cache-ABA regression: a
// block deleted at version v, with the metadata service restarted in
// between, must re-register at a version strictly above v — otherwise
// (BlockID, version)-keyed plan and decoded-block caches would serve the
// dead incarnation's bytes for the new one.
func TestRetiredWatermarkSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, WALOptions{})
	if err := c.Register(blockMeta("blk", 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	v, err := c.UpdatePlacement("blk", 0, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v, err = c.UpdatePlacement("blk", 1, 6, v); err != nil {
		t.Fatal(err)
	}
	meta, err := c.Delete("blk")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, WALOptions{})
	defer func() { _ = r.Close() }()
	if err := r.Register(blockMeta("blk", 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	got, ok := r.BlockMeta("blk")
	if !ok {
		t.Fatal("re-registered block missing")
	}
	if got.Version <= meta.Version {
		t.Fatalf("re-registered version %d not above retired watermark %d: cache ABA", got.Version, meta.Version)
	}
}

// activeSegment returns the path of partition idx's newest WAL segment.
func activeSegment(t *testing.T, dir string, idx int) string {
	t.Helper()
	pdir := filepath.Join(dir, partDirName(idx))
	entries, err := os.ReadDir(pdir)
	if err != nil {
		t.Fatal(err)
	}
	var best string
	var bestStart uint64
	for _, ent := range entries {
		if start, ok := parseSegmentName(ent.Name()); ok && (best == "" || start > bestStart) {
			best, bestStart = filepath.Join(pdir, ent.Name()), start
		}
	}
	if best == "" {
		t.Fatalf("no segment in %s", pdir)
	}
	return best
}

// TestTornTailTruncated covers the two crash-mid-append signatures: the
// final record cut short, and the final record's CRC flipped. Both must
// recover to the state just before the damaged record, and the boot
// compaction must leave a catalog that keeps working.
func TestTornTailTruncated(t *testing.T) {
	for _, mode := range []string{"truncate", "crcflip"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			c := mustOpen(t, dir, WALOptions{Partitions: 1})
			if err := c.Register(blockMeta("keep", 1, 2, 3, 4)); err != nil {
				t.Fatal(err)
			}
			want := dumpState(c, []model.BlockID{"keep", "lost"})
			if err := c.Register(blockMeta("lost", 2, 3, 4, 5)); err != nil {
				t.Fatal(err)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			seg := activeSegment(t, dir, 0)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			switch mode {
			case "truncate":
				// Cut the last record in half.
				if err := os.WriteFile(seg, data[:len(data)-len(data)/4], 0o644); err != nil {
					t.Fatal(err)
				}
			case "crcflip":
				// Flip one bit in the last record's payload.
				data[len(data)-1] ^= 0x40
				if err := os.WriteFile(seg, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			r := mustOpen(t, dir, WALOptions{Partitions: 1})
			defer func() { _ = r.Close() }()
			requireEqualState(t, want, dumpState(r, []model.BlockID{"keep", "lost"}))
			if r.wal.tornTails == 0 {
				t.Fatal("torn tail not counted")
			}
			// The damaged tail must be gone for good: a further restart
			// sees a clean log.
			if err := r.Register(blockMeta("lost", 2, 3, 4, 5)); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			r2 := mustOpen(t, dir, WALOptions{Partitions: 1})
			defer func() { _ = r2.Close() }()
			if r2.wal.tornTails != 0 {
				t.Fatal("torn tail reported on clean restart")
			}
			if _, ok := r2.BlockMeta("lost"); !ok {
				t.Fatal("block registered after torn-tail recovery was lost")
			}
		})
	}
}

// TestInteriorCorruptionTruncates: once a frame in the final segment is
// damaged, framing past it cannot be trusted — recovery keeps the intact
// prefix, discards the rest, and counts a torn tail.
func TestInteriorCorruptionTruncates(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, WALOptions{Partitions: 1})
	for i := 0; i < 8; i++ {
		if err := c.Register(blockMeta(model.BlockID(fmt.Sprintf("b%d", i)), 1, 2, 3, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	seg := activeSegment(t, dir, 0)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the middle of the file: a record before the last one
	// goes bad while intact bytes follow.
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, WALOptions{Partitions: 1})
	defer func() { _ = r.Close() }()
	if r.wal.tornTails == 0 {
		t.Fatal("interior corruption not counted as torn tail")
	}
	n := r.Len()
	if n == 0 || n >= 8 {
		t.Fatalf("recovered %d of 8 blocks, want a proper prefix", n)
	}
	if _, ok := r.BlockMeta("b0"); !ok {
		t.Fatal("first block lost")
	}
}

// TestKillBetweenSnapshotAndTruncate simulates a compaction that died
// after committing its snapshot but before deleting the old segments:
// the stale segments reappear next to the snapshot, and replay must skip
// their records (all at or below the snapshot LSN) instead of
// double-applying them.
func TestKillBetweenSnapshotAndTruncate(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, WALOptions{Partitions: 2})
	if err := c.Register(blockMeta("a", 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(blockMeta("b", 2, 3, 4, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.UpdatePlacement("a", 0, 6, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("b"); err != nil {
		t.Fatal(err)
	}

	// Save the pre-compaction segments of every partition.
	type saved struct{ path string; data []byte }
	var stale []saved
	for i := 0; i < 2; i++ {
		pdir := filepath.Join(dir, partDirName(i))
		entries, err := os.ReadDir(pdir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			if _, ok := parseSegmentName(ent.Name()); !ok {
				continue
			}
			data, err := os.ReadFile(filepath.Join(pdir, ent.Name()))
			if err != nil {
				t.Fatal(err)
			}
			stale = append(stale, saved{filepath.Join(pdir, ent.Name()), data})
		}
	}

	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	ids := []model.BlockID{"a", "b"}
	want := dumpState(c, ids)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Resurrect the truncated segments: this is exactly the on-disk
	// state of a crash between snapshot commit and segment deletion.
	for _, s := range stale {
		if _, err := os.Stat(s.path); err == nil {
			continue // still present (the active segment)
		}
		if err := os.WriteFile(s.path, s.data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	r := mustOpen(t, dir, WALOptions{Partitions: 2})
	defer func() { _ = r.Close() }()
	requireEqualState(t, want, dumpState(r, ids))
}

// TestRepartitionAcrossRestart: the partition count is a runtime knob,
// not a format commitment — state written under one layout must recover
// under another.
func TestRepartitionAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, WALOptions{Partitions: 8})
	var ids []model.BlockID
	for i := 0; i < 40; i++ {
		id := model.BlockID(fmt.Sprintf("blk-%03d", i))
		ids = append(ids, id)
		if err := c.Register(blockMeta(id, 1, 2, 3, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Delete(ids[7]); err != nil {
		t.Fatal(err)
	}
	want := dumpState(c, ids)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, WALOptions{Partitions: 3})
	if r.Partitions() != 3 {
		t.Fatalf("partitions = %d", r.Partitions())
	}
	requireEqualState(t, want, dumpState(r, ids))
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Stale partition directories beyond the new count must be gone.
	for i := 3; i < 8; i++ {
		if _, err := os.Stat(filepath.Join(dir, partDirName(i))); err == nil {
			t.Fatalf("stale partition dir p%04d survived", i)
		}
	}
	r2 := mustOpen(t, dir, WALOptions{Partitions: 16})
	defer func() { _ = r2.Close() }()
	requireEqualState(t, want, dumpState(r2, ids))
}

// TestGroupCommitRecovery drives the flusher path (FsyncInterval > 0) and
// checks Close makes everything durable.
func TestGroupCommitRecovery(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, WALOptions{FsyncInterval: 5 * time.Millisecond})
	for i := 0; i < 50; i++ {
		if err := c.Register(blockMeta(model.BlockID(fmt.Sprintf("g%d", i)), 1, 2, 3, 4)); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]model.BlockID, 0, 50)
	for i := 0; i < 50; i++ {
		ids = append(ids, model.BlockID(fmt.Sprintf("g%d", i)))
	}
	want := dumpState(c, ids)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, WALOptions{})
	defer func() { _ = r.Close() }()
	requireEqualState(t, want, dumpState(r, ids))
}

// TestCompactionUnderLoad forces a compaction on nearly every commit and
// checks both the live catalog and its recovery stay exact.
func TestCompactionUnderLoad(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, WALOptions{Partitions: 2, CompactBytes: 1})
	var ids []model.BlockID
	for i := 0; i < 30; i++ {
		id := model.BlockID(fmt.Sprintf("c%02d", i))
		ids = append(ids, id)
		if err := c.Register(blockMeta(id, 1, 2, 3, 4)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := c.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := dumpState(c, ids)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, WALOptions{Partitions: 2})
	defer func() { _ = r.Close() }()
	requireEqualState(t, want, dumpState(r, ids))
}

// opLogModel applies one random catalog operation to a catalog; the same
// sequence applied to a durable and a volatile catalog must agree.
func randomOp(rng *rand.Rand, c *Catalog, versions map[model.BlockID]uint64) {
	id := model.BlockID(fmt.Sprintf("r%02d", rng.Intn(30)))
	switch rng.Intn(10) {
	case 0, 1, 2, 3:
		ss := make([]model.SiteID, 4)
		perm := rng.Perm(6)
		for i := range ss {
			ss[i] = model.SiteID(perm[i] + 1)
		}
		if c.Register(blockMeta(id, ss...)) == nil {
			if meta, ok := c.BlockMeta(id); ok {
				versions[id] = meta.Version
			}
		}
	case 4, 5:
		if _, err := c.Delete(id); err == nil {
			delete(versions, id)
		}
	case 6, 7:
		v := versions[id]
		if nv, err := c.UpdatePlacement(id, rng.Intn(4), model.SiteID(rng.Intn(6)+1), v); err == nil {
			versions[id] = nv
		}
	case 8:
		_ = c.SetSiteInfo(model.SiteInfo{
			ID:    model.SiteID(rng.Intn(6) + 1),
			Zone:  fmt.Sprintf("z%d", rng.Intn(3)),
			State: model.SiteState(rng.Intn(3)),
		})
	case 9:
		tid := fmt.Sprintf("task%d", rng.Intn(8))
		if rng.Intn(2) == 0 {
			rec := taskRec(tid, model.TaskPending)
			rec.Attempts = rng.Intn(5)
			_ = c.PutTask(rec)
		} else {
			_ = c.DeleteTask(tid)
		}
	}
}

// TestRandomizedOpLogEquivalence is the crash-recovery equivalence
// proof: a random op sequence runs against a durable catalog and a
// volatile shadow; at random points the durable catalog is abandoned
// mid-flight (no Close — the in-memory state is gone, exactly like
// kill -9 with FsyncInterval 0) and recovered from disk. After every
// recovery and at the end, recovered state must equal the shadow's.
func TestRandomizedOpLogEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			durable := mustOpen(t, dir, WALOptions{Partitions: 4})
			shadow := NewCatalog(sites(6))

			var ids []model.BlockID
			for i := 0; i < 30; i++ {
				ids = append(ids, model.BlockID(fmt.Sprintf("r%02d", i)))
			}
			vd := map[model.BlockID]uint64{}
			vs := map[model.BlockID]uint64{}
			for step := 0; step < 400; step++ {
				opSeed := rng.Int63()
				randomOp(rand.New(rand.NewSource(opSeed)), durable, vd)
				randomOp(rand.New(rand.NewSource(opSeed)), shadow, vs)
				if step%97 == 96 {
					// Crash: abandon the durable catalog without Close.
					// Sync-mode commits mean disk already holds every
					// acknowledged op.
					recovered := mustOpen(t, dir, WALOptions{Partitions: 4})
					requireEqualState(t, dumpState(shadow, ids), dumpState(recovered, ids))
					durable = recovered
				}
			}
			requireEqualState(t, dumpState(shadow, ids), dumpState(durable, ids))
			if err := durable.Close(); err != nil {
				t.Fatal(err)
			}
			final := mustOpen(t, dir, WALOptions{Partitions: 4})
			defer func() { _ = final.Close() }()
			requireEqualState(t, dumpState(shadow, ids), dumpState(final, ids))
		})
	}
}

// TestPackRecovery: container/member relationships — derived member
// refs, member deletes, container cascades — must all survive a restart.
func TestPackRecovery(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, dir, WALOptions{Partitions: 4})
	pack := blockMeta("pack", 1, 2, 3, 4)
	pack.Size = 200
	pack.Members = []model.PackedMember{
		{ID: "m1", Off: 0, Len: 80},
		{ID: "m2", Off: 80, Len: 60},
		{ID: "m3", Off: 140, Len: 60},
	}
	if err := c.Register(pack); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Delete("m2"); err != nil {
		t.Fatal(err)
	}
	ids := []model.BlockID{"pack", "m1", "m2", "m3"}
	want := dumpState(c, ids)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, WALOptions{Partitions: 4})
	defer func() { _ = r.Close() }()
	requireEqualState(t, want, dumpState(r, ids))
	if _, ok := r.BlockMeta("m1"); !ok {
		t.Fatal("member m1 unresolvable after recovery")
	}
	if _, ok := r.BlockMeta("m2"); ok {
		t.Fatal("deleted member m2 resolves after recovery")
	}
	// The member index reloads too: a live member's id stays reserved.
	if err := r.Register(blockMeta("m1", 1, 2, 3, 4)); err == nil {
		t.Fatal("member id re-registrable after recovery")
	}
	// Deleting the container after recovery must cascade to m1/m3.
	if _, err := r.Delete("pack"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.BlockMeta("m3"); ok {
		t.Fatal("member m3 resolves after container delete")
	}
}

// TestOpenRejectsCorruptSnapshot: a partition snapshot that is empty,
// foreign, truncated or has a flipped bit in a count field must fail the
// boot with ErrBadSnapshot — never load partially, and never let a
// corrupt count drive allocation. The committed snapshot is also the only
// file compaction leaves behind: no temp file survives it.
func TestOpenRejectsCorruptSnapshot(t *testing.T) {
	seed := t.TempDir()
	c, err := Open(seed, sites(4), WALOptions{Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Register(blockMeta("a", 1, 2, 3, 4)); err != nil {
		t.Fatal(err)
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(partDirName(0), partSnapshotName)
	good, err := os.ReadFile(filepath.Join(seed, snap))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(seed, snap+".tmp")); !os.IsNotExist(err) {
		t.Fatal("compaction left its temp file behind")
	}

	flipped := append([]byte(nil), good...)
	// The site count is the first u32 of the second frame's payload;
	// frame = [u32 len][u32 crc][payload].
	hdrLen := int(uint32(good[len(partSnapMagic)])<<24 | uint32(good[len(partSnapMagic)+1])<<16 |
		uint32(good[len(partSnapMagic)+2])<<8 | uint32(good[len(partSnapMagic)+3]))
	flipped[len(partSnapMagic)+8+hdrLen+8] ^= 0x80
	cases := map[string][]byte{
		"empty":         {},
		"wrong magic":   append([]byte("NOT-A-SNAPSHOT--\n"), good[len(partSnapMagic):]...),
		"truncated":     good[:len(good)-3],
		"flipped count": flipped,
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.MkdirAll(filepath.Join(dir, partDirName(0)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, snap), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, sites(4), WALOptions{Partitions: 1}); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("err = %v, want ErrBadSnapshot", err)
			}
		})
	}
}

package metadata

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"ecstore/internal/model"
	"ecstore/internal/wire"
)

// Recovery: a durable catalog's on-disk layout is one directory per
// partition (p0000, p0001, ...), each holding at most one snapshot
// (part.snap) plus WAL segments named by the first LSN they may contain
// (wal-%016x.log). Open loads every partition's snapshot, replays its
// segments in LSN order skipping records at or below the snapshot's
// LSN, rebuilds the derived indexes (member refs, by-site), and then
// compacts everything under the current partition layout — which is
// what makes changing the partition count across restarts safe, and
// what erases a torn tail left by a crash mid-append.
//
// Only the final segment may contain a damaged frame (short header,
// short payload, CRC mismatch): that is the signature of a crash during
// a write, and replay keeps the intact prefix and discards everything
// from the first bad frame on — framing cannot be trusted past it.
// Damage in a non-final segment (one already covered by a later rotate)
// fails recovery with ErrBadWALRecord.

const partSnapshotName = "part.snap"

var partSnapMagic = []byte("ECSTORE-PART-V1\n")

// ErrBadSnapshot reports a corrupt or foreign partition snapshot file.
var ErrBadSnapshot = errors.New("metadata: bad snapshot")

// Minimum encoded sizes, used to bound decoded count fields against the
// bytes actually present — a flipped bit in a count must produce
// ErrBadSnapshot, never a multi-gigabyte make().
const (
	minSiteEnc     = 8  // i64 site id
	minSiteInfoEnc = 13 // i64 id + empty string + u8 state
	minTaskEnc     = 61 // 5 empty strings + 3 u32 + 4 i64 + u8
	minRetiredEnc  = 12 // empty string + u64 version
)

// boundedCount validates a decoded element count against the bytes left
// in the frame.
func boundedCount(n int, d *wire.Decoder, minSize int, what string) error {
	if n < 0 || n > d.Remaining()/minSize {
		return fmt.Errorf("%w: %s count %d exceeds frame", ErrBadSnapshot, what, n)
	}
	return nil
}

// walRecord is one decoded WAL record.
type walRecord struct {
	typ uint8
	lsn uint64

	meta    *model.BlockMeta // recRegister
	id      model.BlockID    // recDelete, recUpdate, recRetire
	version uint64           // recDelete, recUpdate, recRetire
	chunk   int              // recUpdate
	site    model.SiteID     // recUpdate destination, recSiteAdd
	cont    model.BlockID    // recMemberRemove container
	member  model.BlockID    // recMemberRemove member
	info    model.SiteInfo   // recSiteInfo
	task    *model.TaskRecord
	taskID  string // recTaskDel
}

// decodeWALRecord parses one frame payload. It is strict: unknown types,
// short bodies and trailing bytes all fail (the fuzz target leans on
// this never panicking or over-allocating on corrupt input).
func decodeWALRecord(payload []byte) (walRecord, error) {
	var rec walRecord
	d := wire.NewDecoder(payload)
	rec.typ = d.Uint8()
	rec.lsn = d.Uint64()
	if err := d.Err(); err != nil {
		return rec, fmt.Errorf("%w: header: %w", ErrBadWALRecord, err)
	}
	switch rec.typ {
	case recRegister:
		meta, err := DecodeBlockMeta(d)
		if err != nil {
			return rec, fmt.Errorf("%w: register: %w", ErrBadWALRecord, err)
		}
		rec.meta = meta
	case recDelete, recRetire:
		rec.id = model.BlockID(d.String())
		rec.version = d.Uint64()
	case recUpdate:
		rec.id = model.BlockID(d.String())
		rec.chunk = int(d.Uint32())
		rec.site = model.SiteID(d.Int64())
		rec.version = d.Uint64()
	case recMemberRemove:
		rec.cont = model.BlockID(d.String())
		rec.member = model.BlockID(d.String())
	case recSiteAdd:
		rec.site = model.SiteID(d.Int64())
	case recSiteInfo:
		info, err := DecodeSiteInfo(d)
		if err != nil {
			return rec, fmt.Errorf("%w: site info: %w", ErrBadWALRecord, err)
		}
		rec.info = info
	case recTaskPut:
		t, err := DecodeTaskRecord(d)
		if err != nil {
			return rec, fmt.Errorf("%w: task: %w", ErrBadWALRecord, err)
		}
		rec.task = t
	case recTaskDel:
		rec.taskID = d.String()
	default:
		return rec, fmt.Errorf("%w: unknown type %d", ErrBadWALRecord, rec.typ)
	}
	if err := d.Err(); err != nil {
		return rec, fmt.Errorf("%w: type %d: %w", ErrBadWALRecord, rec.typ, err)
	}
	if d.Remaining() != 0 {
		return rec, fmt.Errorf("%w: type %d: %d trailing bytes", ErrBadWALRecord, rec.typ, d.Remaining())
	}
	return rec, nil
}

// applyWALRecord replays one record's state change. Replay is raw state
// application — no validation against the site set or member ranges,
// because the record was validated before it was logged; routing uses
// the *current* partition layout, which may differ from the one that
// wrote the record.
//
// derived collects member retire watermarks implied by container
// delete/member-remove records. The live mutation logs those retires as
// separate records in each member's own partition, so a crash between
// the container record and the member records durably deletes the
// container while losing the watermarks; re-deriving them here closes
// that window. They are collected rather than applied because a member
// re-registered later in the replay clears its watermark (exactly as a
// live Register does) — Open resolves them after every record is in.
func (c *Catalog) applyWALRecord(rec walRecord, derived map[model.BlockID]uint64) {
	derive := func(id model.BlockID, version uint64) {
		if derived == nil {
			return
		}
		if v, ok := derived[id]; !ok || version > v {
			derived[id] = version
		}
	}
	switch rec.typ {
	case recRegister:
		p := c.part(rec.meta.ID)
		p.mu.Lock()
		p.blocks[rec.meta.ID] = rec.meta
		delete(p.retired, rec.meta.ID)
		p.mu.Unlock()
	case recDelete:
		p := c.part(rec.id)
		p.mu.Lock()
		var members []model.PackedMember
		if meta, ok := p.blocks[rec.id]; ok {
			members = append(members, meta.Members...)
		}
		delete(p.blocks, rec.id)
		p.retireLocked(rec.id, rec.version)
		p.mu.Unlock()
		// The live cascade retires every member at the container's final
		// version; reproduce that from the container record alone.
		for _, m := range members {
			derive(m.ID, rec.version)
		}
	case recUpdate:
		p := c.part(rec.id)
		p.mu.Lock()
		if meta, ok := p.blocks[rec.id]; ok && rec.chunk >= 0 && rec.chunk < len(meta.Sites) {
			meta.Sites[rec.chunk] = rec.site
			meta.Version = rec.version
		}
		p.mu.Unlock()
	case recRetire:
		c.restoreRetired(rec.id, rec.version)
	case recMemberRemove:
		p := c.part(rec.cont)
		p.mu.Lock()
		if cm, ok := p.blocks[rec.cont]; ok {
			for i, m := range cm.Members {
				if m.ID == rec.member {
					cm.Members = append(cm.Members[:i], cm.Members[i+1:]...)
					// Live deleteMember retires the member at the
					// container's current version (its synthesized
					// version); re-derive in case the member's own
					// retire record was lost to a crash.
					derive(rec.member, cm.Version)
					break
				}
			}
		}
		p.mu.Unlock()
	case recSiteAdd:
		c.gmu.Lock()
		c.sites[rec.site] = true
		c.gmu.Unlock()
	case recSiteInfo:
		c.gmu.Lock()
		c.siteInfo[rec.info.ID] = rec.info
		c.gmu.Unlock()
	case recTaskPut:
		c.gmu.Lock()
		c.tasks[rec.task.ID] = rec.task
		c.gmu.Unlock()
	case recTaskDel:
		c.gmu.Lock()
		delete(c.tasks, rec.taskID)
		c.gmu.Unlock()
	}
}

// encodePartitionSnapshot serializes one partition's primitive state:
// its blocks and retired watermarks, plus the slices of the global site,
// site-info and task tables whose keys hash to this partition. The
// header carries the highest LSN the snapshot covers; replay skips
// records at or below it.
func (c *Catalog) encodePartitionSnapshot(idx int) ([]byte, error) {
	p := c.parts[idx]
	n := len(c.parts)

	// Lock order: partition.mu, then gmu, then partLog.mu. Holding both
	// read locks excludes every mutation that could append to this
	// partition's log, so lastLSN exactly bounds the captured state.
	p.mu.RLock()
	defer p.mu.RUnlock()
	c.gmu.RLock()
	defer c.gmu.RUnlock()
	var lastLSN uint64
	if l := p.log; l != nil {
		l.mu.Lock()
		lastLSN = l.lsn
		l.mu.Unlock()
	}

	var buf []byte
	var encErr error
	buf = append(buf, partSnapMagic...)
	appendFrame := func(payload []byte) {
		// Mirror loadPartitionSnapshot's read-side bound: a frame it
		// would reject must fail the compaction here (leaving the old
		// snapshot and segments intact) rather than commit a snapshot
		// that makes the partition unrecoverable.
		if len(payload) > wire.MaxFrameSize {
			if encErr == nil {
				encErr = fmt.Errorf("metadata: partition %d snapshot frame %d bytes exceeds %d", idx, len(payload), wire.MaxFrameSize)
			}
			return
		}
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload...)
	}

	he := wire.NewEncoder(16)
	he.Uint32(uint32(idx))
	he.Uint32(uint32(n))
	he.Uint64(lastLSN)
	appendFrame(he.Bytes())

	var allSites []model.SiteID
	for s := range c.sites {
		allSites = append(allSites, s)
	}
	sort.Slice(allSites, func(i, j int) bool { return allSites[i] < allSites[j] })
	var sites []model.SiteID
	for _, s := range allSites {
		if fnvIndex(siteKey(s), n) == idx {
			sites = append(sites, s)
		}
	}
	se := wire.NewEncoder(8 * len(sites))
	se.Uint32(uint32(len(sites)))
	for _, s := range sites {
		se.Int64(int64(s))
	}
	appendFrame(se.Bytes())

	var allInfos []model.SiteID
	for s := range c.siteInfo {
		allInfos = append(allInfos, s)
	}
	sort.Slice(allInfos, func(i, j int) bool { return allInfos[i] < allInfos[j] })
	var infoIDs []model.SiteID
	for _, s := range allInfos {
		if fnvIndex(siteKey(s), n) == idx {
			infoIDs = append(infoIDs, s)
		}
	}
	ie := wire.NewEncoder(24 * len(infoIDs))
	ie.Uint32(uint32(len(infoIDs)))
	for _, s := range infoIDs {
		EncodeSiteInfo(ie, c.siteInfo[s])
	}
	appendFrame(ie.Bytes())

	var allTasks []string
	for id := range c.tasks {
		allTasks = append(allTasks, id)
	}
	sort.Strings(allTasks)
	var taskIDs []string
	for _, id := range allTasks {
		if fnvIndex(id, n) == idx {
			taskIDs = append(taskIDs, id)
		}
	}
	te := wire.NewEncoder(64 * len(taskIDs))
	te.Uint32(uint32(len(taskIDs)))
	for _, id := range taskIDs {
		EncodeTaskRecord(te, c.tasks[id])
	}
	appendFrame(te.Bytes())

	retiredIDs := make([]model.BlockID, 0, len(p.retired))
	for id := range p.retired {
		retiredIDs = append(retiredIDs, id)
	}
	sort.Slice(retiredIDs, func(i, j int) bool { return retiredIDs[i] < retiredIDs[j] })
	re := wire.NewEncoder(16 * len(retiredIDs))
	re.Uint32(uint32(len(retiredIDs)))
	for _, id := range retiredIDs {
		re.String(string(id))
		re.Uint64(p.retired[id])
	}
	appendFrame(re.Bytes())

	blockIDs := make([]model.BlockID, 0, len(p.blocks))
	for id := range p.blocks {
		blockIDs = append(blockIDs, id)
	}
	sort.Slice(blockIDs, func(i, j int) bool { return blockIDs[i] < blockIDs[j] })
	for _, id := range blockIDs {
		be := wire.NewEncoder(64)
		EncodeBlockMeta(be, p.blocks[id])
		appendFrame(be.Bytes())
	}
	return buf, encErr
}

// siteKey is the partition-routing key for a site id (shared between
// sitePart and snapshot encoding).
func siteKey(s model.SiteID) string {
	return fmt.Sprintf("%d", s)
}

// loadPartitionSnapshot applies one partition snapshot into the catalog
// being recovered, returning the LSN it covers. Counts are bounded
// against remaining frame bytes before any allocation.
func (c *Catalog) loadPartitionSnapshot(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(data) < len(partSnapMagic) || string(data[:len(partSnapMagic)]) != string(partSnapMagic) {
		return 0, fmt.Errorf("%w: wrong partition magic", ErrBadSnapshot)
	}
	data = data[len(partSnapMagic):]

	nextFrame := func() ([]byte, error) {
		if len(data) == 0 {
			return nil, io.EOF
		}
		if len(data) < 8 {
			return nil, fmt.Errorf("%w: short frame header", ErrBadSnapshot)
		}
		ln := int(binary.BigEndian.Uint32(data[0:4]))
		sum := binary.BigEndian.Uint32(data[4:8])
		if ln > wire.MaxFrameSize || len(data)-8 < ln {
			return nil, fmt.Errorf("%w: frame length %d exceeds file", ErrBadSnapshot, ln)
		}
		payload := data[8 : 8+ln]
		if crc32.Checksum(payload, castagnoli) != sum {
			return nil, fmt.Errorf("%w: frame CRC mismatch", ErrBadSnapshot)
		}
		data = data[8+ln:]
		return payload, nil
	}

	hdr, err := nextFrame()
	if err != nil {
		return 0, fmt.Errorf("%w: header frame: %w", ErrBadSnapshot, err)
	}
	hd := wire.NewDecoder(hdr)
	_ = hd.Uint32() // written-by partition index (informational)
	_ = hd.Uint32() // written-by partition count (informational)
	snapLSN := hd.Uint64()
	if err := hd.Err(); err != nil {
		return 0, fmt.Errorf("%w: header: %w", ErrBadSnapshot, err)
	}

	sf, err := nextFrame()
	if err != nil {
		return 0, fmt.Errorf("%w: site frame: %w", ErrBadSnapshot, err)
	}
	sd := wire.NewDecoder(sf)
	ns := int(sd.Uint32())
	if err := boundedCount(ns, sd, minSiteEnc, "site"); err != nil {
		return 0, err
	}
	c.gmu.Lock()
	for i := 0; i < ns; i++ {
		c.sites[model.SiteID(sd.Int64())] = true
	}
	c.gmu.Unlock()
	if err := sd.Err(); err != nil {
		return 0, fmt.Errorf("%w: sites: %w", ErrBadSnapshot, err)
	}

	inf, err := nextFrame()
	if err != nil {
		return 0, fmt.Errorf("%w: site-info frame: %w", ErrBadSnapshot, err)
	}
	id2 := wire.NewDecoder(inf)
	ni := int(id2.Uint32())
	if err := boundedCount(ni, id2, minSiteInfoEnc, "site info"); err != nil {
		return 0, err
	}
	for i := 0; i < ni; i++ {
		info, err := DecodeSiteInfo(id2)
		if err != nil {
			return 0, fmt.Errorf("%w: site info: %w", ErrBadSnapshot, err)
		}
		c.gmu.Lock()
		c.siteInfo[info.ID] = info
		c.gmu.Unlock()
	}

	tf, err := nextFrame()
	if err != nil {
		return 0, fmt.Errorf("%w: task frame: %w", ErrBadSnapshot, err)
	}
	td := wire.NewDecoder(tf)
	nt := int(td.Uint32())
	if err := boundedCount(nt, td, minTaskEnc, "task"); err != nil {
		return 0, err
	}
	for i := 0; i < nt; i++ {
		t, err := DecodeTaskRecord(td)
		if err != nil {
			return 0, fmt.Errorf("%w: task: %w", ErrBadSnapshot, err)
		}
		c.gmu.Lock()
		c.tasks[t.ID] = t
		c.gmu.Unlock()
	}

	rf, err := nextFrame()
	if err != nil {
		return 0, fmt.Errorf("%w: retired frame: %w", ErrBadSnapshot, err)
	}
	rd := wire.NewDecoder(rf)
	nr := int(rd.Uint32())
	if err := boundedCount(nr, rd, minRetiredEnc, "retired"); err != nil {
		return 0, err
	}
	for i := 0; i < nr; i++ {
		id := model.BlockID(rd.String())
		v := rd.Uint64()
		if rd.Err() != nil {
			return 0, fmt.Errorf("%w: retired: %w", ErrBadSnapshot, rd.Err())
		}
		c.restoreRetired(id, v)
	}

	for {
		bf, err := nextFrame()
		if errors.Is(err, io.EOF) {
			return snapLSN, nil
		}
		if err != nil {
			return 0, err
		}
		meta, err := DecodeBlockMeta(wire.NewDecoder(bf))
		if err != nil {
			return 0, fmt.Errorf("%w: block meta: %w", ErrBadSnapshot, err)
		}
		p := c.part(meta.ID)
		p.mu.Lock()
		p.blocks[meta.ID] = meta
		p.mu.Unlock()
	}
}

// replaySegment replays one WAL segment file, skipping records at or
// below snapLSN. final marks the partition's last segment, the only
// place a torn tail is legal; it is reported (not applied, not an
// error) so Open can count it and boot compaction can erase it.
// derived accumulates cascade-implied member retires (see
// applyWALRecord).
func (c *Catalog) replaySegment(path string, snapLSN uint64, final bool, derived map[model.BlockID]uint64) (applied int64, maxLSN uint64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, err
	}
	defer func() { _ = f.Close() }()
	br := bufio.NewReaderSize(f, 1<<20)

	tornOrErr := func(what string) (int64, uint64, bool, error) {
		if final {
			return applied, maxLSN, true, nil
		}
		return applied, maxLSN, false, fmt.Errorf("%w: %s in non-final segment %s", ErrBadWALRecord, what, filepath.Base(path))
	}

	var hdr [walFrameHeader]byte
	for {
		_, rerr := io.ReadFull(br, hdr[:])
		if errors.Is(rerr, io.EOF) {
			return applied, maxLSN, false, nil
		}
		if rerr != nil {
			return tornOrErr("short frame header")
		}
		ln := int(binary.BigEndian.Uint32(hdr[0:4]))
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if ln <= 0 || ln > wire.MaxFrameSize {
			return tornOrErr("bad frame length")
		}
		payload := make([]byte, ln)
		if _, rerr := io.ReadFull(br, payload); rerr != nil {
			return tornOrErr("short frame payload")
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return tornOrErr("frame CRC mismatch")
		}
		rec, derr := decodeWALRecord(payload)
		if derr != nil {
			return tornOrErr("undecodable record")
		}
		if rec.lsn > maxLSN {
			maxLSN = rec.lsn
		}
		if rec.lsn <= snapLSN {
			continue
		}
		c.applyWALRecord(rec, derived)
		applied++
	}
}

// deriveIndexes rebuilds the catalog's derived state — pack-member refs,
// the by-site index, the block count — from the primitive state loaded
// by snapshots and replay.
func (c *Catalog) deriveIndexes() {
	var total int64
	for _, p := range c.parts {
		p.mu.Lock()
		p.bySite = make(map[model.SiteID]map[model.BlockID]bool)
		p.members = make(map[model.BlockID]memberRef)
		p.mu.Unlock()
	}
	for _, p := range c.parts {
		p.mu.Lock()
		ids := make([]model.BlockID, 0, len(p.blocks))
		for id := range p.blocks {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		total += int64(len(ids))
		for _, id := range ids {
			meta := p.blocks[id]
			for _, s := range meta.Sites {
				p.indexLocked(s, id)
			}
		}
		p.mu.Unlock()
		// Member refs may land in other partitions; take those locks
		// after releasing this one (never two partition locks at once).
		for _, id := range ids {
			p.mu.RLock()
			meta, ok := p.blocks[id]
			var members []model.PackedMember
			if ok {
				members = append(members, meta.Members...)
			}
			p.mu.RUnlock()
			for _, m := range members {
				pm := c.part(m.ID)
				pm.mu.Lock()
				pm.members[m.ID] = memberRef{container: id, off: m.Off, size: m.Len}
				pm.mu.Unlock()
			}
		}
	}
	c.nblocks.Store(total)
}

// partDirName formats the directory name of partition idx.
func partDirName(idx int) string {
	return fmt.Sprintf("p%04d", idx)
}

// parsePartDirName extracts a partition index from a directory name.
func parsePartDirName(name string) (int, bool) {
	if len(name) < 2 || name[0] != 'p' {
		return 0, false
	}
	var idx int
	if _, err := fmt.Sscanf(name[1:], "%d", &idx); err != nil || idx < 0 {
		return 0, false
	}
	return idx, true
}

// Open recovers (or initializes) a durable catalog rooted at dir. The
// given sites are added (idempotently, WAL-logged) on top of whatever
// recovery restores. Recovery is followed by an unconditional compaction
// under the current partition layout: it erases torn tails, rewrites
// state routed by the current hash when opts.Partitions changed, and
// leaves every partition with a fresh snapshot and an empty log tail.
func Open(dir string, sites []model.SiteID, opts WALOptions) (*Catalog, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("metadata: create wal dir: %w", err)
	}

	c := NewCatalogParts(nil, opts.Partitions)

	// Recover old partition directories in index order.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type oldPart struct {
		idx  int
		path string
	}
	var olds []oldPart
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		if idx, ok := parsePartDirName(ent.Name()); ok {
			olds = append(olds, oldPart{idx, filepath.Join(dir, ent.Name())})
		}
	}
	sort.Slice(olds, func(i, j int) bool { return olds[i].idx < olds[j].idx })

	var maxLSN uint64
	var replayed, tornTails int64
	derived := make(map[model.BlockID]uint64)
	for _, op := range olds {
		var snapLSN uint64
		snapPath := filepath.Join(op.path, partSnapshotName)
		if _, statErr := os.Stat(snapPath); statErr == nil {
			snapLSN, err = c.loadPartitionSnapshot(snapPath)
			if err != nil {
				return nil, fmt.Errorf("metadata: recover %s: %w", snapPath, err)
			}
		}
		if snapLSN > maxLSN {
			maxLSN = snapLSN
		}
		// A leftover .tmp snapshot is a compaction that died before its
		// rename; the segments it meant to truncate are still here.
		_ = os.Remove(filepath.Join(op.path, partSnapshotName+".tmp"))

		segEntries, err := os.ReadDir(op.path)
		if err != nil {
			return nil, err
		}
		type seg struct {
			start uint64
			path  string
		}
		var segs []seg
		for _, ent := range segEntries {
			if start, ok := parseSegmentName(ent.Name()); ok {
				segs = append(segs, seg{start, filepath.Join(op.path, ent.Name())})
			}
		}
		sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
		for i, s := range segs {
			applied, segMax, torn, err := c.replaySegment(s.path, snapLSN, i == len(segs)-1, derived)
			if err != nil {
				return nil, fmt.Errorf("metadata: recover %s: %w", s.path, err)
			}
			replayed += applied
			if torn {
				tornTails++
			}
			if segMax > maxLSN {
				maxLSN = segMax
			}
		}
	}

	// Resolve cascade-derived retires now that every record is in: a
	// watermark applies only where the id is not a live block, because a
	// re-register after the cascade clears it (as live Register does).
	// Re-packed members keep theirs — live Register clears only the
	// container's own watermark.
	derivedIDs := make([]model.BlockID, 0, len(derived))
	for id := range derived {
		derivedIDs = append(derivedIDs, id)
	}
	sort.Slice(derivedIDs, func(i, j int) bool { return derivedIDs[i] < derivedIDs[j] })
	for _, id := range derivedIDs {
		p := c.part(id)
		p.mu.Lock()
		if _, live := p.blocks[id]; !live {
			p.retireLocked(id, derived[id])
		}
		p.mu.Unlock()
	}

	c.deriveIndexes()

	// Attach the write-ahead machinery under the current layout. All
	// partitions start their LSN counter at the global maximum so that
	// any key, wherever it rehashed, logs records strictly above every
	// snapshot LSN that might still cover it.
	w := &walSet{dir: dir, opts: opts, cat: c, done: make(chan struct{})}
	w.replayedRecords = replayed
	w.tornTails = tornTails
	c.wal = w
	for i, p := range c.parts {
		pdir := filepath.Join(dir, partDirName(i))
		if err := os.MkdirAll(pdir, 0o755); err != nil {
			return nil, err
		}
		l := &partLog{set: w, idx: i, dir: pdir, lsn: maxLSN, synced: maxLSN, segStart: maxLSN + 1}
		f, err := createSegment(pdir, maxLSN+1)
		if err != nil {
			return nil, err
		}
		l.f = f
		p.log = l
	}
	if err := syncDir(dir); err != nil {
		return nil, err
	}

	for _, s := range sites {
		if err := c.AddSite(s); err != nil {
			return nil, fmt.Errorf("metadata: boot site add: %w", err)
		}
	}

	// Boot compaction: re-snapshot everything under the current layout
	// and truncate replayed segments (including torn tails).
	if err := c.Compact(); err != nil {
		return nil, fmt.Errorf("metadata: boot compaction: %w", err)
	}

	// Old partition directories beyond the current count are fully
	// covered by the new snapshots; drop them.
	removedStale := false
	for _, op := range olds {
		if op.idx >= len(c.parts) {
			if err := os.RemoveAll(op.path); err != nil {
				return nil, err
			}
			removedStale = true
		}
	}
	if removedStale {
		if err := syncDir(dir); err != nil {
			return nil, err
		}
	}

	if opts.FsyncInterval > 0 {
		w.wg.Add(1)
		go w.flusher()
	}
	return c, nil
}

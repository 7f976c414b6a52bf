package metadata

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ecstore/internal/model"
	"ecstore/internal/obs"
	"ecstore/internal/wire"
)

// Write-ahead log. Every catalog mutation appends one or more logical
// records, each confined to the partition its key hashes to, so one
// partition's (snapshot + log) is self-contained and recovery never
// needs cross-partition ordering. On disk a record is a length-prefixed
// frame with a CRC32-C over the payload:
//
//	u32 payload length | u32 CRC32-C(payload) | payload
//	payload = u8 record type | u64 LSN | record body
//
// LSNs are per-partition and strictly increasing; a partition snapshot
// records the highest LSN it covers, and replay skips records at or
// below it — which is what makes a crash between snapshot and segment
// truncation harmless. Appends go to an in-memory buffer under the
// partition lock (so buffer order always equals mutation order) and are
// written + fsynced by group commit: every FsyncInterval by the flusher
// goroutine, or synchronously before the operation returns when
// FsyncInterval is zero.
const (
	recRegister     = 1 // body: BlockMeta (stored form, version final)
	recDelete       = 2 // body: id, final version
	recUpdate       = 3 // body: id, chunk, destination site, new version
	recRetire       = 4 // body: id, watermark version (member cascade)
	recMemberRemove = 5 // body: container id, member id
	recSiteAdd      = 6 // body: site id
	recSiteInfo     = 7 // body: SiteInfo
	recTaskPut      = 8 // body: TaskRecord
	recTaskDel      = 9 // body: task id
)

// ErrBadWALRecord reports a corrupt record in the interior of a WAL
// segment (tail corruption is tolerated and truncated instead).
var ErrBadWALRecord = errors.New("metadata: bad WAL record")

// ErrWALFailed marks the catalog fail-stopped: an earlier WAL write or
// fsync failed, so the durable log may be behind the in-memory state and
// every further mutation is rejected. Continuing past a failed fsync
// would silently lose acknowledged records — the kernel may have dropped
// the dirty pages, so a later "successful" fsync proves nothing about
// them. Recovery is a process restart, which replays only what actually
// reached disk.
var ErrWALFailed = errors.New("metadata: WAL write failed, catalog no longer accepts mutations")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// walFrameHeader is the on-disk byte overhead per record.
const walFrameHeader = 8

// walRecordOverhead is the payload byte overhead per record (u8 type +
// u64 LSN) ahead of the record body.
const walRecordOverhead = 9

// maxWALBody bounds a record body at append time to what replay accepts:
// replaySegment and loadPartitionSnapshot reject any frame payload above
// wire.MaxFrameSize, so an oversized record that the WAL accepted would
// make an acknowledged mutation unrecoverable (torn-tail truncation in
// the final segment, ErrBadWALRecord elsewhere). Mutations whose encoded
// body can exceed this must reject the input before logging it.
const maxWALBody = wire.MaxFrameSize - walRecordOverhead

// flushThresholdBytes forces an early flush in group-commit mode when a
// partition buffers this much between ticks.
const flushThresholdBytes = 1 << 20

// WALOptions configures a durable catalog opened with Open.
type WALOptions struct {
	// Partitions is the catalog shard count (DefaultPartitions when
	// zero). Changing it across restarts is safe: recovery routes
	// replayed records by key, then rewrites all state under the new
	// layout.
	Partitions int
	// FsyncInterval is the group-commit window. Zero means every
	// operation is fsynced before it returns (full durability); a
	// positive interval bounds the data-loss window on power failure
	// to that duration while batching fsyncs across operations.
	FsyncInterval time.Duration
	// CompactBytes triggers per-partition snapshot + WAL truncation
	// once a partition's log grows past this many bytes since its last
	// snapshot (default 8 MiB).
	CompactBytes int64
}

func (o WALOptions) withDefaults() WALOptions {
	if o.Partitions < 1 {
		o.Partitions = DefaultPartitions
	}
	if o.CompactBytes <= 0 {
		o.CompactBytes = 8 << 20
	}
	return o
}

// walMetrics holds the meta_wal_* instruments; all obs types are
// nil-safe, so a zero walMetrics silently drops counts until
// EnableMetrics installs real counters.
type walMetrics struct {
	appends     *obs.Counter
	appendBytes *obs.Counter
	fsyncs      *obs.Counter
	flushes     *obs.Counter
	errorsTotal *obs.Counter
	compactions *obs.Counter
	replayRecs  *obs.Counter
	replayTorn  *obs.Counter
	snapBytes   *obs.Counter
}

// walSet owns a durable catalog's per-partition logs, the group-commit
// flusher and compaction.
type walSet struct {
	dir  string
	opts WALOptions
	cat  *Catalog

	// met is installed by EnableMetrics after Open; atomic because the
	// flusher may already be running.
	met atomic.Pointer[walMetrics]

	// failed latches the first write/fsync error (wrapped in
	// ErrWALFailed) for the whole catalog; once set, every mutation
	// entry point returns it before touching any state.
	failed atomic.Pointer[error]

	// Recovery statistics, recorded single-threaded in Open and folded
	// into the counters when metrics are enabled.
	replayedRecords int64
	tornTails       int64

	done chan struct{}
	wg   sync.WaitGroup
}

// noMetrics is the instrument set before EnableMetrics: all-nil obs
// counters, whose methods are nil-safe no-ops.
var noMetrics = &walMetrics{}

func (w *walSet) metrics() *walMetrics {
	if w == nil {
		return noMetrics
	}
	if m := w.met.Load(); m != nil {
		return m
	}
	return noMetrics
}

// fail latches the first WAL failure, flipping the catalog into
// fail-stop mode.
func (w *walSet) fail(err error) {
	if w == nil || err == nil {
		return
	}
	wrapped := fmt.Errorf("%w: %w", ErrWALFailed, err)
	w.failed.CompareAndSwap(nil, &wrapped)
}

// failErr reports the latched WAL failure, nil while the log is healthy
// (and always nil for volatile catalogs, which have no log to fail).
func (w *walSet) failErr() error {
	if w == nil {
		return nil
	}
	if p := w.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// enableMetrics installs the meta_wal_* counters (no-op on volatile
// catalogs).
func (w *walSet) enableMetrics(reg *obs.Registry) {
	if w == nil || reg == nil {
		return
	}
	m := &walMetrics{
		appends:     reg.Counter("meta_wal_appends_total", "WAL records appended"),
		appendBytes: reg.Counter("meta_wal_append_bytes_total", "WAL bytes appended (framed)"),
		fsyncs:      reg.Counter("meta_wal_fsyncs_total", "WAL fsync calls"),
		flushes:     reg.Counter("meta_wal_flushes_total", "WAL group-commit flushes"),
		errorsTotal: reg.Counter("meta_wal_errors_total", "WAL write/fsync failures"),
		compactions: reg.Counter("meta_wal_compactions_total", "partition snapshot+truncate compactions"),
		replayRecs:  reg.Counter("meta_wal_replay_records_total", "WAL records replayed at recovery"),
		replayTorn:  reg.Counter("meta_wal_replay_torn_tails_total", "torn WAL tails truncated at recovery"),
		snapBytes:   reg.Counter("meta_wal_snapshot_bytes_total", "partition snapshot bytes written"),
	}
	m.replayRecs.Add(w.replayedRecords)
	m.replayTorn.Add(w.tornTails)
	w.met.Store(m)
}

// partLog is one partition's write-ahead log: an append buffer ordered
// by the partition lock, an active segment file, and the LSN counter.
type partLog struct {
	set *walSet
	idx int
	dir string

	// mu guards the append buffer and the LSN counter. It nests inside
	// the partition lock and gmu (lock order: partition.mu, gmu,
	// partLog.mu) and is a leaf — nothing is acquired under it.
	mu      sync.Mutex
	pending []byte
	lsn     uint64

	// fileMu guards the segment file, the synced watermark and
	// compaction bookkeeping. File I/O happens only under fileMu, never
	// under the partition lock.
	fileMu    sync.Mutex
	f         *os.File
	segStart  uint64 // lowest LSN that may appear in the active segment
	synced    uint64 // highest LSN durable on disk
	sinceSnap int64  // framed bytes appended since the last snapshot
	lastErr   error

	compacting atomic.Bool
}

// append encodes one record under the buffer lock, assigning the next
// LSN. The caller holds the partition lock (or gmu for control
// records), so buffer order equals mutation order. Returns the record's
// LSN, or 0 on a volatile catalog.
func (l *partLog) append(recType uint8, body func(*wire.Encoder)) uint64 {
	if l == nil {
		return 0
	}
	e := wire.NewEncoder(64)
	e.Uint8(recType)
	e.Uint64(0) // LSN placeholder, patched below
	body(e)
	payload := e.Bytes()
	if len(payload) > wire.MaxFrameSize {
		// Every mutation bounds its input before logging (Register's
		// member caps, PutTask/SetSiteInfo string caps), so this is a
		// backstop: buffering the record would poison replay, so drop
		// it and fail-stop instead — commit surfaces the latched error.
		l.set.fail(fmt.Errorf("metadata: wal p%d record type %d: %d-byte payload exceeds frame bound %d",
			l.idx, recType, len(payload), wire.MaxFrameSize))
		l.set.metrics().errorsTotal.Inc()
		return 0
	}

	l.mu.Lock()
	l.lsn++
	lsn := l.lsn
	binary.BigEndian.PutUint64(payload[1:9], lsn)
	var hdr [walFrameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	l.pending = append(l.pending, hdr[:]...)
	l.pending = append(l.pending, payload...)
	l.mu.Unlock()

	m := l.set.metrics()
	m.appends.Inc()
	m.appendBytes.Add(int64(walFrameHeader + len(payload)))
	return lsn
}

func (l *partLog) appendRegister(stored *model.BlockMeta) uint64 {
	return l.append(recRegister, func(e *wire.Encoder) { EncodeBlockMeta(e, stored) })
}

func (l *partLog) appendDelete(id model.BlockID, version uint64) uint64 {
	return l.append(recDelete, func(e *wire.Encoder) { e.String(string(id)); e.Uint64(version) })
}

func (l *partLog) appendUpdate(id model.BlockID, chunk int, to model.SiteID, version uint64) uint64 {
	return l.append(recUpdate, func(e *wire.Encoder) {
		e.String(string(id))
		e.Uint32(uint32(chunk))
		e.Int64(int64(to))
		e.Uint64(version)
	})
}

func (l *partLog) appendRetire(id model.BlockID, version uint64) uint64 {
	return l.append(recRetire, func(e *wire.Encoder) { e.String(string(id)); e.Uint64(version) })
}

func (l *partLog) appendMemberRemove(container, member model.BlockID) uint64 {
	return l.append(recMemberRemove, func(e *wire.Encoder) {
		e.String(string(container))
		e.String(string(member))
	})
}

func (l *partLog) appendSiteAdd(s model.SiteID) uint64 {
	return l.append(recSiteAdd, func(e *wire.Encoder) { e.Int64(int64(s)) })
}

func (l *partLog) appendSiteInfo(info model.SiteInfo) uint64 {
	return l.append(recSiteInfo, func(e *wire.Encoder) { EncodeSiteInfo(e, info) })
}

func (l *partLog) appendTaskPut(t *model.TaskRecord) uint64 {
	return l.append(recTaskPut, func(e *wire.Encoder) { EncodeTaskRecord(e, t) })
}

func (l *partLog) appendTaskDel(id string) uint64 {
	return l.append(recTaskDel, func(e *wire.Encoder) { e.String(id) })
}

// buffered reports the current append-buffer size.
func (l *partLog) buffered() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending)
}

// flushLocked writes and fsyncs everything buffered. Caller holds
// fileMu. Any failure latches lastErr (and the catalog-wide fail-stop):
// a failed write leaves the segment in an unknown state — a partial
// frame in the middle of what a retry would append — and a failed fsync
// may have dropped the dirty pages entirely, so neither is retried.
func (l *partLog) flushLocked() error {
	if l.lastErr != nil {
		return l.lastErr
	}
	l.mu.Lock()
	buf := l.pending
	l.pending = nil
	mark := l.lsn
	l.mu.Unlock()
	m := l.set.metrics()
	if len(buf) > 0 {
		if _, err := l.f.Write(buf); err != nil {
			// Put the records back so synced can never advance past
			// their LSNs and leave a silent gap in the log; lastErr
			// guarantees they are never re-written either.
			l.mu.Lock()
			l.pending = append(buf, l.pending...)
			l.mu.Unlock()
			l.lastErr = fmt.Errorf("metadata: wal p%d write: %w", l.idx, err)
			l.set.fail(l.lastErr)
			m.errorsTotal.Inc()
			return l.lastErr
		}
		l.sinceSnap += int64(len(buf))
		m.flushes.Inc()
	}
	if mark > l.synced {
		if err := l.f.Sync(); err != nil {
			l.lastErr = fmt.Errorf("metadata: wal p%d fsync: %w", l.idx, err)
			l.set.fail(l.lastErr)
			m.errorsTotal.Inc()
			return l.lastErr
		}
		l.synced = mark
		m.fsyncs.Inc()
	}
	return nil
}

// flushTo makes every record up to lsn durable, batching with whatever
// else is buffered (group commit across concurrent operations).
func (l *partLog) flushTo(lsn uint64) error {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	if l.synced >= lsn {
		return nil
	}
	return l.flushLocked()
}

// commit enforces the durability contract after an append: in sync mode
// the record is fsynced before the operation returns and any failure is
// the mutation's failure; in group-commit mode an oversized buffer is
// flushed early, otherwise the flusher's next tick picks it up. A
// latched WAL failure (from this flush, a flusher tick, or an oversized
// append) is always surfaced so no caller acknowledges a mutation the
// log cannot make durable.
func (w *walSet) commit(p *partition, lsn uint64) error {
	if w == nil {
		return nil
	}
	if err := w.failErr(); err != nil {
		return err
	}
	if lsn == 0 {
		return nil
	}
	l := p.log
	if w.opts.FsyncInterval == 0 || l.buffered() >= flushThresholdBytes {
		if err := l.flushTo(lsn); err != nil {
			return err
		}
	}
	w.maybeCompact(l)
	return nil
}

// maybeCompact runs a partition compaction on the calling goroutine when
// the log outgrew the threshold. At most one compaction per partition
// runs at a time.
func (w *walSet) maybeCompact(l *partLog) {
	l.fileMu.Lock()
	due := l.sinceSnap >= w.opts.CompactBytes
	l.fileMu.Unlock()
	if !due {
		return
	}
	_ = w.compactPartition(l.idx)
}

// segmentName formats an active segment file name from its starting LSN.
func segmentName(start uint64) string {
	return fmt.Sprintf("wal-%016x.log", start)
}

// parseSegmentName extracts the starting LSN from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if len(name) != len("wal-0000000000000000.log") || name[:4] != "wal-" || name[len(name)-4:] != ".log" {
		return 0, false
	}
	v, err := strconv.ParseUint(name[4:20], 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// syncDir fsyncs a directory so renames and file creations within it are
// durable (the missing half of "atomic rename" persistence).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("open dir %s: %w", dir, err)
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return fmt.Errorf("fsync dir %s: %w", dir, syncErr)
	}
	return closeErr
}

// createSegment creates a fresh, empty, durable segment file. O_TRUNC
// rather than O_EXCL: at boot the name can collide with a leftover
// pre-crash segment holding only a torn (already discarded) tail, which
// must not pollute the new segment.
func createSegment(dir string, start uint64) (*os.File, error) {
	path := filepath.Join(dir, segmentName(start))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("create segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("sync segment: %w", err)
	}
	if err := syncDir(dir); err != nil {
		_ = f.Close()
		return nil, err
	}
	return f, nil
}

// rotate flushes the active segment and switches appends to a fresh one.
// Returns the new segment's starting LSN; every record in older segments
// has a strictly lower LSN.
func (l *partLog) rotate() (uint64, error) {
	l.fileMu.Lock()
	defer l.fileMu.Unlock()
	if err := l.flushLocked(); err != nil {
		return 0, err
	}
	l.mu.Lock()
	start := l.lsn + 1
	l.mu.Unlock()
	f, err := createSegment(l.dir, start)
	if err != nil {
		return 0, err
	}
	_ = l.f.Close()
	l.f = f
	l.segStart = start
	return start, nil
}

// removeSegmentsBefore deletes every segment older than the active one,
// then makes the deletions durable. Called after a snapshot covering
// those segments has been committed.
func (l *partLog) removeSegmentsBefore(activeStart uint64) error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	removed := false
	names := make([]string, 0, len(entries))
	for _, ent := range entries {
		names = append(names, ent.Name())
	}
	sort.Strings(names)
	for _, name := range names {
		start, ok := parseSegmentName(name)
		if !ok || start >= activeStart {
			continue
		}
		if err := os.Remove(filepath.Join(l.dir, name)); err != nil {
			return err
		}
		removed = true
	}
	if removed {
		return syncDir(l.dir)
	}
	return nil
}

// flusher is the group-commit loop: flush every partition each interval,
// compacting any partition whose log outgrew the threshold.
func (w *walSet) flusher() {
	defer w.wg.Done()
	ticker := time.NewTicker(w.opts.FsyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			for _, p := range w.cat.parts {
				_ = p.log.flushTo(^uint64(0) - 1)
				w.maybeCompact(p.log)
			}
		case <-w.done:
			return
		}
	}
}

// ReplayStats reports how many WAL records boot recovery replayed and
// how many torn segment tails it discarded, for operators to gauge
// recovery work. Both are zero for volatile
// catalogs and for boots that loaded only snapshots.
func (c *Catalog) ReplayStats() (records, tornTails int64) {
	if c.wal == nil {
		return 0, 0
	}
	return c.wal.replayedRecords, c.wal.tornTails
}

// Sync forces every buffered record to durable storage.
func (c *Catalog) Sync() error {
	if c.wal == nil {
		return nil
	}
	var first error
	for _, p := range c.parts {
		if err := p.log.flushTo(^uint64(0) - 1); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Compact snapshots every partition and truncates its WAL.
func (c *Catalog) Compact() error {
	if c.wal == nil {
		return nil
	}
	var first error
	for i := range c.parts {
		if err := c.wal.compactPartition(i); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close flushes the logs, stops the flusher and releases the segment
// files. The catalog remains readable but further mutations are no
// longer made durable; Close is for process shutdown.
func (c *Catalog) Close() error {
	if c.wal == nil {
		return nil
	}
	w := c.wal
	if w.done != nil {
		close(w.done)
		w.wg.Wait()
		w.done = nil
	}
	err := c.Sync()
	for _, p := range c.parts {
		p.log.fileMu.Lock()
		if p.log.f != nil {
			_ = p.log.f.Close()
			p.log.f = nil
		}
		p.log.fileMu.Unlock()
	}
	return err
}

// compactPartition writes one partition's snapshot and truncates its
// log: rotate to a fresh segment, snapshot the partition state (which
// then covers every older segment), commit the snapshot atomically with
// fsync on the file and its directory, and delete the old segments. A
// crash at any point leaves a recoverable combination — the snapshot's
// LSN tells replay which records to skip.
func (w *walSet) compactPartition(idx int) error {
	p := w.cat.parts[idx]
	l := p.log
	if !l.compacting.CompareAndSwap(false, true) {
		return nil
	}
	defer l.compacting.Store(false)

	activeStart, err := l.rotate()
	if err != nil {
		return err
	}
	data, err := w.cat.encodePartitionSnapshot(idx)
	if err != nil {
		return err
	}
	tmp := filepath.Join(l.dir, partSnapshotName+".tmp")
	final := filepath.Join(l.dir, partSnapshotName)
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("create part snapshot: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("write part snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = os.Remove(tmp)
		return fmt.Errorf("sync part snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("close part snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("commit part snapshot: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}
	if err := l.removeSegmentsBefore(activeStart); err != nil {
		return err
	}
	l.fileMu.Lock()
	l.sinceSnap = 0
	l.fileMu.Unlock()
	m := w.metrics()
	m.compactions.Inc()
	m.snapBytes.Add(int64(len(data)))
	return nil
}

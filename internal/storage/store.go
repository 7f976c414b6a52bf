// Package storage implements EC-Store's data plane: per-site chunk stores
// (memory or disk backed), the storage service with I/O accounting, load
// reporting and failure injection, and its RPC server/client bindings.
//
// Invariants the rest of the system depends on:
//
//   - Copy on ingest, own on egress. Store.Put and Store.PutAt must
//     copy their input: callers routinely hand in pooled stripe buffers
//     (erasure package) or RPC frame tails (wire.Decoder.Rest) that are
//     recycled the moment the call returns. Store.Get and Store.GetAt
//     return a fresh bufpool buffer that belongs to the caller alone —
//     the service hands it up unchanged, and whoever ends up consuming
//     the chunk (the rpc server after writing it, the client after
//     decoding it) puts it back.
//
//   - Raw-payload RPC contract. Chunk bodies and chunk segments never
//     pass through an encoder buffer: requests carry them as the
//     frame's unprefixed trailing payload (taken with the single-use
//     Decoder.Rest) and responses return them as the whole response
//     body, vectored onto the socket by the rpc layer.
//
//   - Whole-chunk writes commit atomically (staging file + fsync +
//     rename on disk; the staging file is a pooled retired chunk file
//     when the pool has one, and a pooled file is never reachable by a
//     chunk name); streamed offset writes (PutAt) do not — a streamed
//     chunk is incomplete until its block's catalog registration, which
//     is the commit point of the streaming put path. Readers that find
//     a chunk only through the catalog never observe a torn chunk.
//
//   - Checksummed at rest. Every chunk is stored framed behind a
//     24-byte header carrying a CRC32-C of the payload (checksum.go).
//     Sizes reported by Bytes and offsets taken by GetAt/PutAt are in
//     payload coordinates; the header is invisible outside this
//     package except through Verify/Seal and the RawMutator hook.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"ecstore/internal/bufpool"
	"ecstore/internal/model"
)

// Errors returned by chunk stores and services.
var (
	ErrChunkNotFound = errors.New("storage: chunk not found")
	ErrSiteDown      = errors.New("storage: site unavailable")
	// ErrShortChunk reports a range read past the chunk's stored bytes.
	ErrShortChunk = errors.New("storage: chunk range beyond stored bytes")
)

// Store is a site-local chunk repository.
type Store interface {
	// Put stores a chunk, overwriting any previous contents.
	Put(ref model.ChunkRef, data []byte) error
	// Get returns a chunk's contents in a bufpool buffer the caller
	// owns.
	Get(ref model.ChunkRef) ([]byte, error)
	// GetAt returns the chunk bytes [off, off+n), likewise in a
	// caller-owned bufpool buffer. A range past the stored length fails
	// with ErrShortChunk; a missing chunk with ErrChunkNotFound.
	GetAt(ref model.ChunkRef, off, n int64) ([]byte, error)
	// PutAt writes data at byte offset off, creating the chunk if
	// needed and zero-filling any gap below off. Used by the streaming
	// put path to land one stripe segment at a time.
	PutAt(ref model.ChunkRef, off int64, data []byte) error
	// Delete removes a chunk; deleting a missing chunk is not an error.
	Delete(ref model.ChunkRef) error
	// DeleteBlock removes every chunk of a block.
	DeleteBlock(id model.BlockID) error
	// List returns all stored chunk refs in sorted order.
	List() ([]model.ChunkRef, error)
	// Count returns the number of stored chunks.
	Count() (int, error)
	// Bytes returns the total stored payload bytes (headers excluded).
	Bytes() (int64, error)
	// Verify checks a chunk's stored bytes against its header: a sealed
	// chunk's CRC and length must match, an unsealed chunk is structurally
	// accepted. Corruption fails with ErrCorruptChunk.
	Verify(ref model.ChunkRef) (ChunkCheck, error)
	// Seal verifies a chunk and, if it is unsealed, computes and persists
	// its authoritative length+CRC. The scrubber calls this
	// to finish chunks landed by the streaming put path.
	Seal(ref model.ChunkRef) (ChunkCheck, error)
}

// MemStore is an in-memory Store, safe for concurrent use. Chunks are
// held as raw frames (header + payload); bytes counts payload only.
type MemStore struct {
	mu     sync.RWMutex
	chunks map[model.ChunkRef][]byte
	bytes  int64
}

var _ Store = (*MemStore)(nil)
var _ RawMutator = (*MemStore)(nil)

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{chunks: make(map[model.ChunkRef][]byte)}
}

// payloadLen is how many stored bytes lie past the header.
func payloadLen(raw []byte) int64 {
	return max(int64(len(raw))-headerSize, 0)
}

// Put implements Store.
func (s *MemStore) Put(ref model.ChunkRef, data []byte) error {
	frame := sealFrame(data)
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.chunks[ref]; ok {
		s.bytes -= payloadLen(old)
	}
	s.chunks[ref] = frame
	s.bytes += int64(len(data))
	return nil
}

// Get implements Store. Sealed chunks are CRC-verified on every read.
func (s *MemStore) Get(ref model.ChunkRef) ([]byte, error) {
	return s.read(ref, 0, -1)
}

// GetAt implements Store. The window is in payload coordinates. A sealed
// chunk whose stored bytes disagree with its header length (truncation)
// fails with ErrCorruptChunk; a window covering the whole payload is
// additionally CRC-verified.
func (s *MemStore) GetAt(ref model.ChunkRef, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("%w: [%d, +%d)", ErrShortChunk, off, n)
	}
	return s.read(ref, off, n)
}

// read serves Get (n < 0: the whole payload) and GetAt, copying the
// window into a bufpool buffer the caller owns.
func (s *MemStore) read(ref model.ChunkRef, off, n int64) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	raw, ok := s.chunks[ref]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrChunkNotFound, ref)
	}
	payload, info, err := payloadOf(ref, raw)
	if err != nil {
		return nil, err
	}
	size := int64(len(payload))
	if info.sealed && info.length != uint64(size) {
		return nil, fmt.Errorf("%w: %s length %d, stored %d bytes",
			ErrCorruptChunk, ref, info.length, size)
	}
	if n < 0 {
		n = size
	}
	if off > size || n > size-off {
		return nil, fmt.Errorf("%w: %s [%d, +%d) of %d", ErrShortChunk, ref, off, n, size)
	}
	if info.sealed && off == 0 && n == size {
		if got := Checksum(payload); got != info.crc {
			return nil, fmt.Errorf("%w: %s crc %08x, want %08x", ErrCorruptChunk, ref, got, info.crc)
		}
	}
	cp := bufpool.Get(int(n))
	copy(cp, payload[off:off+n])
	return cp, nil
}

// PutAt implements Store. A fresh chunk is created under an unsealed
// header; writing into an existing chunk clears its seal (the payload is
// changing, so any recorded CRC is stale) until Seal recomputes it.
func (s *MemStore) PutAt(ref model.ChunkRef, off int64, data []byte) error {
	if off < 0 {
		return fmt.Errorf("%w: negative offset %d", ErrShortChunk, off)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var payload []byte
	if old, ok := s.chunks[ref]; ok {
		var err error
		if payload, _, err = payloadOf(ref, old); err != nil {
			return err
		}
	}
	oldLen := int64(len(payload))
	end := off + int64(len(data))
	if end < oldLen {
		end = oldLen
	}
	grown := make([]byte, end)
	copy(grown, payload)
	copy(grown[off:], data)
	s.chunks[ref] = unsealedFrame(grown)
	s.bytes += end - oldLen
	return nil
}

// Delete implements Store.
func (s *MemStore) Delete(ref model.ChunkRef) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.chunks[ref]; ok {
		s.bytes -= payloadLen(old)
		delete(s.chunks, ref)
	}
	return nil
}

// DeleteBlock implements Store.
func (s *MemStore) DeleteBlock(id model.BlockID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ref, raw := range s.chunks {
		if ref.Block == id {
			s.bytes -= payloadLen(raw)
			delete(s.chunks, ref)
		}
	}
	return nil
}

// List implements Store.
func (s *MemStore) List() ([]model.ChunkRef, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]model.ChunkRef, 0, len(s.chunks))
	for ref := range s.chunks {
		out = append(out, ref)
	}
	sortRefs(out)
	return out, nil
}

// Count implements Store.
func (s *MemStore) Count() (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.chunks), nil
}

// Bytes implements Store.
func (s *MemStore) Bytes() (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes, nil
}

// Verify implements Store.
func (s *MemStore) Verify(ref model.ChunkRef) (ChunkCheck, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	raw, ok := s.chunks[ref]
	if !ok {
		return ChunkCheck{}, fmt.Errorf("%w: %s", ErrChunkNotFound, ref)
	}
	return checkFrame(ref, raw)
}

// Seal implements Store.
func (s *MemStore) Seal(ref model.ChunkRef) (ChunkCheck, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, ok := s.chunks[ref]
	if !ok {
		return ChunkCheck{}, fmt.Errorf("%w: %s", ErrChunkNotFound, ref)
	}
	check, err := checkFrame(ref, raw)
	if err != nil || check.Sealed {
		return check, err
	}
	payload := raw[headerSize:]
	s.chunks[ref] = sealFrame(payload)
	return ChunkCheck{Sealed: true, Length: int64(len(payload)), CRC: Checksum(payload)}, nil
}

// MutateRaw implements RawMutator: the fault injector's corruption hook.
func (s *MemStore) MutateRaw(ref model.ChunkRef, mutate func([]byte) []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, ok := s.chunks[ref]
	if !ok {
		return fmt.Errorf("%w: %s", ErrChunkNotFound, ref)
	}
	cp := make([]byte, len(raw))
	copy(cp, raw)
	out := mutate(cp)
	s.bytes += payloadLen(out) - payloadLen(raw)
	s.chunks[ref] = out
	return nil
}

// DiskStore persists chunks as files `<urlencoded-block>.<chunk>` under a
// directory. Retired chunk files are kept for reuse in a pool directory,
// `.free/`, as files named by number: creating a file costs far more
// than rewriting one, so a store with churn writes chunks into pooled
// files and allocates no inode. A pooled file is never reachable by a
// chunk name. One DiskStore owns its directory at a time.
type DiskStore struct {
	dir  string
	pool string // dir/.free/

	// names keeps a file from entering the pool while anyone holds it
	// open by its chunk name. Every open by chunk name holds the shared
	// side until the file is closed; retire holds the exclusive side
	// across its rename. Otherwise a reader or streaming writer with an
	// fd from before a delete would see, or scribble on, the next chunk
	// written into that file: the header does not name its chunk.
	names sync.RWMutex

	poolMu sync.Mutex
	free   []uint64 // numbers of the empty files in the pool, reused last in first out
	next   uint64   // number for the next file made or moved into the pool
}

// poolCap bounds the pool: past it a delete unlinks the chunk's file.
const poolCap = 256

var _ Store = (*DiskStore)(nil)
var _ RawMutator = (*DiskStore)(nil)

// NewDiskStore creates (if needed) and wraps a directory. Files a
// previous run left in the pool are adopted: emptied if a crash caught
// one mid-retire or mid-write, unlinked if a crash inside PutAt left one
// also named as a chunk, or past the cap.
func NewDiskStore(dir string) (*DiskStore, error) {
	s := &DiskStore{dir: dir, pool: filepath.Join(dir, ".free") + string(filepath.Separator)}
	if err := os.MkdirAll(s.pool, 0o755); err != nil {
		return nil, fmt.Errorf("create chunk dir: %w", err)
	}
	entries, err := os.ReadDir(s.pool)
	if err != nil {
		return nil, fmt.Errorf("adopt chunk pool: %w", err)
	}
	for _, ent := range entries {
		n, err := strconv.ParseUint(ent.Name(), 10, 64)
		if err != nil || !ent.Type().IsRegular() {
			continue // not a pool file
		}
		s.next = max(s.next, n+1)
		info, err := ent.Info()
		if err != nil {
			return nil, fmt.Errorf("adopt chunk pool: %w", err)
		}
		st, ok := info.Sys().(*syscall.Stat_t)
		keep := len(s.free) < poolCap && !(ok && st.Nlink > 1)
		switch {
		case !keep:
			err = os.Remove(s.poolPath(n))
		case info.Size() > 0:
			err = os.Truncate(s.poolPath(n), 0)
		}
		if err != nil {
			return nil, fmt.Errorf("adopt chunk pool: %w", err)
		}
		if keep {
			s.free = append(s.free, n)
		}
	}
	return s, nil
}

func (s *DiskStore) poolPath(n uint64) string {
	return s.pool + strconv.FormatUint(n, 10)
}

// stage opens a file in the pool directory for a chunk write and returns
// it with its number: a pooled file, emptied on open, when there is one,
// else a new file. flag is the access mode.
func (s *DiskStore) stage(flag int) (*os.File, uint64, error) {
	s.poolMu.Lock()
	n := s.next
	if k := len(s.free); k > 0 {
		n = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		s.next++
		flag |= os.O_CREATE | os.O_EXCL
	}
	s.poolMu.Unlock()
	f, err := os.OpenFile(s.poolPath(n), flag|os.O_TRUNC, 0o644)
	return f, n, err
}

// release empties pool file n, named name, and puts it on the stack, or
// unlinks it if the pool is full.
func (s *DiskStore) release(n uint64, name string) error {
	if err := os.Truncate(name, 0); err != nil {
		_ = os.Remove(name) // should this fail too, the next start empties the file
		return err
	}
	s.poolMu.Lock()
	room := len(s.free) < poolCap
	if room {
		s.free = append(s.free, n)
	}
	s.poolMu.Unlock()
	if !room {
		return os.Remove(name)
	}
	return nil
}

// retire takes a chunk file off its name: into the pool, once no one
// holds it open by that name, while the pool has room, else unlinked.
func (s *DiskStore) retire(path string) error {
	s.poolMu.Lock()
	full := len(s.free) >= poolCap
	n := s.next
	s.next++
	s.poolMu.Unlock()
	if full {
		return os.Remove(path)
	}
	name := s.poolPath(n)
	s.names.Lock()
	err := os.Rename(path, name)
	s.names.Unlock()
	if err != nil {
		return err
	}
	return s.release(n, name)
}

// filePrefix is what the names of all of a block's chunk files start
// with; the chunk index follows. Path separators in block ids are
// escaped.
func filePrefix(id model.BlockID) string {
	return strings.ReplaceAll(string(id), "/", "_") + "."
}

func (s *DiskStore) path(ref model.ChunkRef) string {
	return filepath.Join(s.dir, filePrefix(ref.Block)+strconv.Itoa(ref.Chunk))
}

// Put implements Store. Each call stages into its own file from the pool
// — concurrent puts of the same chunk must not scribble over a shared
// staging file — syncs it to stable storage, then renames it into place
// so readers only ever observe complete chunk contents. The staging
// file is removed on any error. The file lands sealed: header first,
// CRC computed before any byte reaches the disk. Header and payload are
// written separately, so the chunk is never copied into a framed buffer.
func (s *DiskStore) Put(ref model.ChunkRef, data []byte) error {
	var hdr [headerSize]byte
	writeHeader(hdr[:], flagSealed, uint64(len(data)), Checksum(data))
	f, _, err := s.stage(os.O_WRONLY)
	if err != nil {
		return fmt.Errorf("write chunk: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(hdr[:]); err == nil {
		_, err = f.Write(data)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("write chunk: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("sync chunk: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("write chunk: %w", err)
	}
	if err := os.Rename(tmp, s.path(ref)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("commit chunk: %w", err)
	}
	return nil
}

// Get implements Store. Sealed chunks are CRC-verified on every read.
func (s *DiskStore) Get(ref model.ChunkRef) ([]byte, error) {
	return s.read(ref, 0, -1)
}

// GetAt implements Store. The window is in payload coordinates, and only
// the header plus the requested window are read from the file — a
// stripe-range read of a large chunk does not touch the rest of it.
// Truncation of a sealed chunk (file shorter than its header claims) is
// caught by comparing sizes; a window covering the whole payload is
// additionally CRC-verified. Bit rot outside the window is the
// scrubber's job (Verify reads everything).
func (s *DiskStore) GetAt(ref model.ChunkRef, off, n int64) ([]byte, error) {
	if off < 0 || n < 0 {
		return nil, fmt.Errorf("%w: [%d, +%d)", ErrShortChunk, off, n)
	}
	return s.read(ref, off, n)
}

// read serves Get (n < 0: the whole payload) and GetAt. The 24-byte
// header is read on its own and the payload window goes straight into a
// bufpool buffer sized for it, which the caller owns.
func (s *DiskStore) read(ref model.ChunkRef, off, n int64) ([]byte, error) {
	s.names.RLock()
	defer s.names.RUnlock()
	f, err := os.Open(s.path(ref))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s", ErrChunkNotFound, ref)
		}
		return nil, fmt.Errorf("read chunk: %w", err)
	}
	defer func() { _ = f.Close() }()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("read chunk: %w", err)
	}
	info, err := readHeader(ref, f, st.Size())
	if err != nil {
		return nil, err
	}
	paySize := st.Size() - headerSize
	if info.sealed && info.length != uint64(paySize) {
		return nil, fmt.Errorf("%w: %s length %d, stored %d bytes",
			ErrCorruptChunk, ref, info.length, paySize)
	}
	if n < 0 {
		n = paySize
	}
	if off > paySize || n > paySize-off {
		return nil, fmt.Errorf("%w: %s [%d, +%d) of %d", ErrShortChunk, ref, off, n, paySize)
	}
	buf := bufpool.Get(int(n))
	if _, err := f.ReadAt(buf, headerSize+off); err != nil {
		bufpool.Put(buf)
		if errors.Is(err, io.EOF) {
			return nil, fmt.Errorf("%w: %s [%d, +%d)", ErrShortChunk, ref, off, n)
		}
		return nil, fmt.Errorf("read chunk: %w", err)
	}
	if info.sealed && off == 0 && n == paySize {
		if got := Checksum(buf); got != info.crc {
			bufpool.Put(buf)
			return nil, fmt.Errorf("%w: %s crc %08x, want %08x", ErrCorruptChunk, ref, got, info.crc)
		}
	}
	return buf, nil
}

// readHeader parses the header of the size-byte chunk file f.
func readHeader(ref model.ChunkRef, f *os.File, size int64) (frameInfo, error) {
	var hdr [headerSize]byte
	head := hdr[:min(size, headerSize)]
	if _, err := f.ReadAt(head, 0); err != nil {
		return frameInfo{}, fmt.Errorf("read chunk header: %w", err)
	}
	_, info, err := payloadOf(ref, head)
	return info, err
}

// PutAt implements Store. Unlike Put there is no temp-and-rename: a
// streamed chunk grows in place under an unsealed header, one stripe
// segment per call, and is unreachable by readers until the block's
// catalog registration commits the stream (see the package comment).
// Gaps below off read as zeros. Writing into an already-sealed chunk
// clears its seal; Seal recomputes the CRC later.
func (s *DiskStore) PutAt(ref model.ChunkRef, off int64, data []byte) error {
	if off < 0 {
		return fmt.Errorf("%w: negative offset %d", ErrShortChunk, off)
	}
	s.names.RLock()
	defer s.names.RUnlock()
	f, err := s.openStream(s.path(ref))
	if err != nil {
		return fmt.Errorf("open chunk for stream: %w", err)
	}
	defer func() { _ = f.Close() }()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("stream chunk segment: %w", err)
	}
	// A fresh streamed chunk starts under an unsealed header, and writing
	// into a sealed one clears its seal the same way.
	unseal := st.Size() == 0
	if !unseal {
		info, err := readHeader(ref, f, st.Size())
		if err != nil {
			return err
		}
		unseal = info.sealed
	}
	if unseal {
		var hdr [headerSize]byte
		writeHeader(hdr[:], 0, 0, 0)
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			return fmt.Errorf("stream chunk header: %w", err)
		}
	}
	if _, err := f.WriteAt(data, headerSize+off); err != nil {
		return fmt.Errorf("stream chunk segment: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("stream chunk segment: %w", err)
	}
	return nil
}

// openStream opens a streamed chunk's file by its name for PutAt. The
// first segment of a chunk brings its file from the pool, headed before
// it gets the chunk's name so the chunk never shows up headerless. The
// link fails with EEXIST when another stream created the chunk first;
// the staged file then goes back to the pool.
func (s *DiskStore) openStream(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if !errors.Is(err, os.ErrNotExist) {
		return f, err
	}
	f, n, err := s.stage(os.O_RDWR)
	if err != nil {
		return nil, err
	}
	staged := f.Name()
	var hdr [headerSize]byte
	writeHeader(hdr[:], 0, 0, 0)
	if _, err = f.Write(hdr[:]); err == nil {
		if err = os.Link(staged, path); err == nil {
			err = os.Remove(staged)
		}
	}
	if err == nil {
		return f, nil
	}
	_ = f.Close()
	if !errors.Is(err, os.ErrExist) {
		_ = os.Remove(staged)
		return nil, err
	}
	if err := s.release(n, staged); err != nil {
		return nil, err
	}
	return os.OpenFile(path, os.O_RDWR, 0)
}

// Delete implements Store.
func (s *DiskStore) Delete(ref model.ChunkRef) error {
	err := s.retire(s.path(ref))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("delete chunk: %w", err)
	}
	return nil
}

// DeleteBlock implements Store. It removes the files named
// `<block>.<chunk>` and nothing else: the directory's names are scanned
// once, without the sort and per-file parsing List does for every other
// block's chunks.
func (s *DiskStore) DeleteBlock(id model.BlockID) error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("delete block: %w", err)
	}
	names, err := d.Readdirnames(-1)
	_ = d.Close()
	if err != nil {
		return fmt.Errorf("delete block: %w", err)
	}
	prefix := filePrefix(id)
	for _, name := range names {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		// The rest must be exactly a chunk index: "a.1.0" is chunk 0 of
		// block "a.1", not a chunk of block "a", and staging files of
		// older builds end in ".tmp".
		if _, err := strconv.Atoi(name[len(prefix):]); err != nil {
			continue
		}
		if err := s.retire(filepath.Join(s.dir, name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("delete chunk: %w", err)
		}
	}
	return nil
}

// List implements Store.
func (s *DiskStore) List() ([]model.ChunkRef, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("list chunks: %w", err)
	}
	var out []model.ChunkRef
	for _, ent := range entries {
		if ent.IsDir() || strings.HasSuffix(ent.Name(), ".tmp") {
			continue
		}
		dot := strings.LastIndexByte(ent.Name(), '.')
		if dot <= 0 {
			continue
		}
		chunk, err := strconv.Atoi(ent.Name()[dot+1:])
		if err != nil {
			continue
		}
		out = append(out, model.ChunkRef{Block: model.BlockID(ent.Name()[:dot]), Chunk: chunk})
	}
	sortRefs(out)
	return out, nil
}

// Count implements Store.
func (s *DiskStore) Count() (int, error) {
	refs, err := s.List()
	if err != nil {
		return 0, err
	}
	return len(refs), nil
}

// Bytes implements Store. Headers are subtracted so the count stays in
// payload bytes, which is what capacity accounting and load reports mean.
func (s *DiskStore) Bytes() (int64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("stat chunks: %w", err)
	}
	var total int64
	for _, ent := range entries {
		if ent.IsDir() || strings.HasSuffix(ent.Name(), ".tmp") {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		total += max(info.Size()-headerSize, 0)
	}
	return total, nil
}

// Verify implements Store.
func (s *DiskStore) Verify(ref model.ChunkRef) (ChunkCheck, error) {
	raw, err := s.readFile(ref, "verify chunk")
	if err != nil {
		return ChunkCheck{}, err
	}
	return checkFrame(ref, raw)
}

// Seal implements Store. Resealing rewrites the chunk through the atomic
// Put path, so a crash mid-seal leaves the old (unsealed) file intact.
func (s *DiskStore) Seal(ref model.ChunkRef) (ChunkCheck, error) {
	raw, err := s.readFile(ref, "seal chunk")
	if err != nil {
		return ChunkCheck{}, err
	}
	check, err := checkFrame(ref, raw)
	if err != nil || check.Sealed {
		return check, err
	}
	payload := raw[headerSize:]
	if err := s.Put(ref, payload); err != nil {
		return ChunkCheck{}, err
	}
	return ChunkCheck{Sealed: true, Length: int64(len(payload)), CRC: Checksum(payload)}, nil
}

// MutateRaw implements RawMutator: the fault injector's corruption hook.
// The mutated frame is written straight over the file — deliberately not
// through the atomic Put path, because this models media damage.
func (s *DiskStore) MutateRaw(ref model.ChunkRef, mutate func([]byte) []byte) error {
	raw, err := s.readFile(ref, "mutate chunk")
	if err != nil {
		return err
	}
	out := mutate(raw)
	s.names.RLock()
	err = os.WriteFile(s.path(ref), out, 0o644)
	s.names.RUnlock()
	if err != nil {
		return fmt.Errorf("mutate chunk: %w", err)
	}
	return nil
}

// readFile reads a chunk's whole file by its name; op names the caller
// in errors other than ErrChunkNotFound.
func (s *DiskStore) readFile(ref model.ChunkRef, op string) ([]byte, error) {
	s.names.RLock()
	raw, err := os.ReadFile(s.path(ref))
	s.names.RUnlock()
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil, fmt.Errorf("%w: %s", ErrChunkNotFound, ref)
	case err != nil:
		return nil, fmt.Errorf("%s: %w", op, err)
	}
	return raw, nil
}

func sortRefs(refs []model.ChunkRef) {
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Block != refs[j].Block {
			return refs[i].Block < refs[j].Block
		}
		return refs[i].Chunk < refs[j].Chunk
	})
}

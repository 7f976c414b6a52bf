// Package metadata implements EC-Store's metadata service (Section V): the
// authoritative catalog mapping each block to the sites storing its encoded
// chunks, with compare-and-swap placement updates so the chunk mover and
// repair service can relocate chunks without racing readers.
//
// The catalog is sharded by block-id hash into independently locked
// partitions (partition.go), each with an optional write-ahead log and
// snapshot compaction (wal.go, recover.go) so a metadata restart replays
// exactly the pre-crash state — including the retired version watermarks
// that keep (BlockID, version) cache keys unique across a block's
// lifetimes.
package metadata

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ecstore/internal/model"
	"ecstore/internal/obs"
)

// Errors returned by the catalog.
var (
	ErrNotFound      = errors.New("metadata: block not found")
	ErrExists        = errors.New("metadata: block already registered")
	ErrStaleVersion  = errors.New("metadata: placement version conflict")
	ErrChunkConflict = errors.New("metadata: destination already holds a chunk of this block")
	ErrInvalidChunk  = errors.New("metadata: invalid chunk id")
	ErrInvalidBlock  = errors.New("metadata: invalid block metadata")
	ErrUnknownSite   = errors.New("metadata: unknown site")
	ErrInvalidMember = errors.New("metadata: invalid pack member")
)

// memberRef locates one packed block inside its container.
type memberRef struct {
	container model.BlockID
	off, size int64
}

// Catalog is the in-memory metadata store. It is safe for concurrent use
// and implements placement.CatalogView.
//
// Block state (blocks, member refs, retired watermarks, the by-site
// index) is sharded over partitions by id hash; each partition has its
// own RWMutex, so updates to unrelated blocks never contend. Control
// state shared by every operation — the site set, site administrative
// records, and background task rows — stays global under gmu, which is
// read-mostly. Lock order, enforced by the lockorder lint: partition.mu
// before gmu before partLog.mu; no operation ever holds two partition
// locks at once (cross-partition work releases one before taking the
// next).
type Catalog struct {
	parts []*partition

	gmu      sync.RWMutex
	sites    map[model.SiteID]bool
	siteInfo map[model.SiteID]model.SiteInfo
	tasks    map[string]*model.TaskRecord

	// nblocks mirrors the total registered block count for the gauge
	// without summing partition lengths on every mutation.
	nblocks atomic.Int64

	// wal is non-nil for catalogs opened with durability (Open); it
	// owns the partition logs, the group-commit flusher and compaction.
	wal *walSet

	reg         *obs.Registry
	registers   *obs.Counter
	lookups     *obs.Counter
	lookupMiss  *obs.Counter
	deletes     *obs.Counter
	updates     *obs.Counter
	updateFails *obs.Counter
	blocksGauge *obs.Gauge
	partsGauge  *obs.Gauge
	partMaxG    *obs.Gauge
}

// EnableMetrics exports catalog instrumentation into reg (nil disables it,
// which is the default). Call before serving traffic.
func (c *Catalog) EnableMetrics(reg *obs.Registry) {
	c.reg = reg
	c.registers = reg.Counter("meta_registers_total", "blocks registered")
	c.lookups = reg.Counter("meta_lookups_total", "block metadata lookups")
	c.lookupMiss = reg.Counter("meta_lookup_misses_total", "lookups of unknown blocks")
	c.deletes = reg.Counter("meta_deletes_total", "blocks deleted")
	c.updates = reg.Counter("meta_placement_updates_total", "successful chunk placement CAS updates")
	c.updateFails = reg.Counter("meta_placement_conflicts_total", "placement CAS updates rejected (stale version or conflict)")
	c.blocksGauge = reg.Gauge("meta_blocks", "blocks currently registered")
	c.partsGauge = reg.Gauge("meta_partition_count", "catalog partition count")
	c.partMaxG = reg.Gauge("meta_partition_blocks_max", "blocks in the fullest partition (hash-skew watch)")
	c.partsGauge.Set(int64(len(c.parts)))
	c.blocksGauge.Set(c.nblocks.Load())
	c.wal.enableMetrics(reg)
}

// MetricsSnapshot captures the catalog's registry (empty when metrics are
// disabled). Served remotely by the GetMetrics RPC method. Scrape-time
// gauges (partition skew) are refreshed here rather than on every
// mutation.
func (c *Catalog) MetricsSnapshot() *obs.Snapshot {
	if c.partMaxG != nil {
		var max int
		for _, p := range c.parts {
			p.mu.RLock()
			if len(p.blocks) > max {
				max = len(p.blocks)
			}
			p.mu.RUnlock()
		}
		c.partMaxG.Set(int64(max))
	}
	return c.reg.Snapshot()
}

// NewCatalog returns an empty volatile catalog aware of the given sites,
// sharded over DefaultPartitions partitions. Use Open for a durable
// catalog backed by per-partition write-ahead logs.
func NewCatalog(sites []model.SiteID) *Catalog {
	return NewCatalogParts(sites, DefaultPartitions)
}

// NewCatalogParts returns an empty volatile catalog with an explicit
// partition count (1 reproduces the old single-lock catalog).
func NewCatalogParts(sites []model.SiteID, partitions int) *Catalog {
	if partitions < 1 {
		partitions = 1
	}
	c := &Catalog{
		parts:    make([]*partition, partitions),
		sites:    make(map[model.SiteID]bool, len(sites)),
		siteInfo: make(map[model.SiteID]model.SiteInfo),
		tasks:    make(map[string]*model.TaskRecord),
	}
	for i := range c.parts {
		c.parts[i] = newPartition()
	}
	for _, s := range sites {
		c.sites[s] = true
	}
	return c
}

// Partitions returns the catalog's shard count.
func (c *Catalog) Partitions() int { return len(c.parts) }

// walFailed gates every mutation entry point: once a WAL write or fsync
// has failed the catalog is fail-stopped and rejects mutations before
// touching any state (always nil for volatile catalogs).
func (c *Catalog) walFailed() error {
	return c.wal.failErr()
}

// AddSite registers an additional site (idempotent).
func (c *Catalog) AddSite(s model.SiteID) error {
	if err := c.walFailed(); err != nil {
		return err
	}
	p := c.sitePart(s)
	c.gmu.Lock()
	if c.sites[s] {
		c.gmu.Unlock()
		return nil
	}
	c.sites[s] = true
	lsn := p.log.appendSiteAdd(s)
	c.gmu.Unlock()
	return c.wal.commit(p, lsn)
}

// Sites lists every known site in ascending order.
func (c *Catalog) Sites() []model.SiteID {
	c.gmu.RLock()
	defer c.gmu.RUnlock()
	out := make([]model.SiteID, 0, len(c.sites))
	for s := range c.sites {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// knownSites checks every site in the list against the global site set.
func (c *Catalog) knownSites(ss []model.SiteID) error {
	c.gmu.RLock()
	defer c.gmu.RUnlock()
	for _, s := range ss {
		if !c.sites[s] {
			return fmt.Errorf("%w: site %d", ErrUnknownSite, s)
		}
	}
	return nil
}

// Register adds a new block. Every chunk site must be known, chunks of one
// block must land on distinct sites, and the id must be unused. A meta
// carrying Members registers a pack container: each member id becomes
// resolvable through Lookup/BlockMeta as a synthesized entry, so member
// ids must be unused too and their byte ranges must fit the container.
func (c *Catalog) Register(meta *model.BlockMeta) error {
	if err := c.walFailed(); err != nil {
		return err
	}
	if meta == nil || meta.ID == "" || len(meta.Sites) == 0 {
		return ErrInvalidBlock
	}
	if meta.Packed() {
		// Synthesized member metadata is derived state; only containers
		// and plain blocks are registered.
		return fmt.Errorf("%w: %s carries PackedIn", ErrInvalidBlock, meta.ID)
	}
	if len(meta.Sites) != meta.TotalChunks() {
		return fmt.Errorf("%w: %d sites for %d chunks", ErrInvalidBlock, len(meta.Sites), meta.TotalChunks())
	}
	// Write-side bounds: anything past what DecodeBlockMeta or the WAL
	// frame limit accepts must be rejected here — once logged, an
	// oversized record would be unreadable at replay.
	if len(meta.Sites) > maxBlockSites {
		return fmt.Errorf("%w: %d sites exceeds bound %d", ErrInvalidBlock, len(meta.Sites), maxBlockSites)
	}
	if len(meta.Members) > maxPackMembers {
		return fmt.Errorf("%w: %d members in %s exceeds bound %d", ErrInvalidMember, len(meta.Members), meta.ID, maxPackMembers)
	}
	if sz := encodedBlockMetaSize(meta); sz > maxWALBody {
		return fmt.Errorf("%w: %s encodes to %d bytes, exceeding the %d-byte WAL record bound", ErrInvalidBlock, meta.ID, sz, maxWALBody)
	}
	seen := make(map[model.SiteID]bool, len(meta.Sites))
	for _, s := range meta.Sites {
		if seen[s] {
			return fmt.Errorf("%w: duplicate site %d", ErrInvalidBlock, s)
		}
		seen[s] = true
	}
	memberIDs := make(map[model.BlockID]bool, len(meta.Members))
	for _, m := range meta.Members {
		if m.ID == "" || m.ID == meta.ID {
			return fmt.Errorf("%w: bad id %q in %s", ErrInvalidMember, m.ID, meta.ID)
		}
		if memberIDs[m.ID] {
			return fmt.Errorf("%w: duplicate id %s in %s", ErrInvalidMember, m.ID, meta.ID)
		}
		memberIDs[m.ID] = true
		if m.Off < 0 || m.Len < 0 || m.Off+m.Len > meta.Size {
			return fmt.Errorf("%w: %s range [%d,%d) outside container of %d bytes", ErrInvalidMember, m.ID, m.Off, m.Off+m.Len, meta.Size)
		}
	}
	if err := c.knownSites(meta.Sites); err != nil {
		return err
	}

	// Reserve every member id in its own partition, one lock at a time.
	// A reservation is a member ref whose container is not registered
	// yet; lookups of it fail until the container lands, and a failure
	// below rolls the reservations back.
	reserved := make([]model.PackedMember, 0, len(meta.Members))
	fail := func(err error) error {
		for _, m := range reserved {
			pm := c.part(m.ID)
			pm.mu.Lock()
			if ref, ok := pm.members[m.ID]; ok && ref.container == meta.ID {
				delete(pm.members, m.ID)
			}
			pm.mu.Unlock()
		}
		return err
	}
	for _, m := range meta.Members {
		pm := c.part(m.ID)
		pm.mu.Lock()
		_, isBlock := pm.blocks[m.ID]
		_, isMember := pm.members[m.ID]
		if isBlock {
			pm.mu.Unlock()
			return fail(fmt.Errorf("%w: member %s", ErrExists, m.ID))
		}
		if isMember {
			pm.mu.Unlock()
			return fail(fmt.Errorf("%w: member %s (already packed)", ErrExists, m.ID))
		}
		pm.members[m.ID] = memberRef{container: meta.ID, off: m.Off, size: m.Len}
		pm.mu.Unlock()
		reserved = append(reserved, m)
	}

	p := c.part(meta.ID)
	p.mu.Lock()
	if _, exists := p.blocks[meta.ID]; exists {
		p.mu.Unlock()
		return fail(fmt.Errorf("%w: %s", ErrExists, meta.ID))
	}
	if ref, exists := p.members[meta.ID]; exists && ref.container != meta.ID {
		p.mu.Unlock()
		return fail(fmt.Errorf("%w: %s (is a pack member)", ErrExists, meta.ID))
	}
	stored := meta.Clone()
	if last, wasDeleted := p.retired[meta.ID]; wasDeleted && stored.Version <= last {
		// Resume version numbering where the deleted incarnation left
		// off, so version-keyed caches never alias its bytes.
		stored.Version = last + 1
	}
	delete(p.retired, meta.ID)
	p.blocks[meta.ID] = stored
	for _, s := range stored.Sites {
		p.indexLocked(s, stored.ID)
	}
	lsn := p.log.appendRegister(stored)
	p.mu.Unlock()
	if err := c.wal.commit(p, lsn); err != nil {
		return err
	}

	c.nblocks.Add(1)
	c.registers.Inc()
	c.blocksGauge.Set(c.nblocks.Load())
	return nil
}

// memberMeta synthesizes a pack member's metadata from its container.
// The member mirrors the container's coding parameters, placement and
// version (so version-keyed caches invalidate with the container) but
// owns no chunks of its own.
func synthMemberMeta(id model.BlockID, cm *model.BlockMeta, ref memberRef) *model.BlockMeta {
	return &model.BlockMeta{
		ID:         id,
		Scheme:     cm.Scheme,
		Size:       ref.size,
		K:          cm.K,
		R:          cm.R,
		ChunkSize:  cm.ChunkSize,
		Sites:      append([]model.SiteID(nil), cm.Sites...),
		Version:    cm.Version,
		StripeUnit: cm.StripeUnit,
		PackedIn:   cm.ID,
		PackedOff:  ref.off,
	}
}

// lookupOne resolves one id — a registered block or a synthesized pack
// member — taking at most two partition locks in sequence, never nested.
func (c *Catalog) lookupOne(id model.BlockID) (*model.BlockMeta, bool) {
	p := c.part(id)
	p.mu.RLock()
	if meta, ok := p.blocks[id]; ok {
		out := meta.Clone()
		p.mu.RUnlock()
		return out, true
	}
	ref, isMember := p.members[id]
	p.mu.RUnlock()
	if !isMember {
		return nil, false
	}
	pc := c.part(ref.container)
	pc.mu.RLock()
	defer pc.mu.RUnlock()
	cm, ok := pc.blocks[ref.container]
	if !ok {
		// A reservation whose container never landed, or a racing
		// container delete: the member does not resolve.
		return nil, false
	}
	return synthMemberMeta(id, cm, ref), true
}

// BlockMeta returns a copy of a block's metadata. The boolean reports
// existence (satisfying placement.CatalogView).
func (c *Catalog) BlockMeta(id model.BlockID) (*model.BlockMeta, bool) {
	return c.lookupOne(id)
}

// Lookup returns copies of the metadata for the given ids; missing blocks
// yield ErrNotFound.
func (c *Catalog) Lookup(ids []model.BlockID) (map[model.BlockID]*model.BlockMeta, error) {
	c.lookups.Inc()
	out := make(map[model.BlockID]*model.BlockMeta, len(ids))
	for _, id := range ids {
		meta, ok := c.lookupOne(id)
		if !ok {
			c.lookupMiss.Inc()
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		out[id] = meta
	}
	return out, nil
}

// Delete removes a block, returning its final metadata so callers can
// delete the chunks.
//
// Deleting a pack member removes it from the container's member list and
// returns its synthesized metadata with Sites set to nil: the member owns
// no chunks, so there is nothing for the caller to delete (the container
// keeps its chunks until it is deleted itself). Deleting a container
// cascades: every remaining member id stops resolving.
func (c *Catalog) Delete(id model.BlockID) (*model.BlockMeta, error) {
	if err := c.walFailed(); err != nil {
		return nil, err
	}
	p := c.part(id)
	p.mu.Lock()
	meta, ok := p.blocks[id]
	if !ok {
		ref, isMember := p.members[id]
		p.mu.Unlock()
		if !isMember {
			return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
		}
		return c.deleteMember(id, ref)
	}
	delete(p.blocks, id)
	p.retireLocked(id, meta.Version)
	for _, s := range meta.Sites {
		p.unindexLocked(s, id)
	}
	lsn := p.log.appendDelete(id, meta.Version)
	p.mu.Unlock()
	if err := c.wal.commit(p, lsn); err != nil {
		return nil, err
	}

	// Cascade: retire every member id in its own partition. The member
	// refs and watermarks live where the ids hash, so each mutation —
	// and its WAL record — is confined to one partition. The cascade is
	// not crash-atomic with the container record; replay re-derives the
	// member watermarks from the container's delete record (see
	// applyWALRecord), so a crash here loses nothing.
	for _, m := range meta.Members {
		pm := c.part(m.ID)
		pm.mu.Lock()
		if ref, okm := pm.members[m.ID]; okm && ref.container == id {
			delete(pm.members, m.ID)
		}
		pm.retireLocked(m.ID, meta.Version)
		mlsn := pm.log.appendRetire(m.ID, meta.Version)
		pm.mu.Unlock()
		if err := c.wal.commit(pm, mlsn); err != nil {
			return nil, err
		}
	}
	c.nblocks.Add(-1)
	c.deletes.Inc()
	c.blocksGauge.Set(c.nblocks.Load())
	return meta, nil
}

// deleteMember detaches one packed block from its container.
func (c *Catalog) deleteMember(id model.BlockID, ref memberRef) (*model.BlockMeta, error) {
	pc := c.part(ref.container)
	pc.mu.Lock()
	cm, ok := pc.blocks[ref.container]
	if !ok {
		pc.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	for i, m := range cm.Members {
		if m.ID == id {
			cm.Members = append(cm.Members[:i], cm.Members[i+1:]...)
			break
		}
	}
	synth := synthMemberMeta(id, cm, ref)
	lsn := pc.log.appendMemberRemove(ref.container, id)
	pc.mu.Unlock()
	if err := c.wal.commit(pc, lsn); err != nil {
		return nil, err
	}

	// Like Delete's cascade, the member's retire record is separate from
	// the container's member-remove record; replay re-derives the
	// watermark from the latter if a crash lands between them.
	pm := c.part(id)
	pm.mu.Lock()
	if cur, okm := pm.members[id]; okm && cur.container == ref.container {
		delete(pm.members, id)
	}
	pm.retireLocked(id, synth.Version)
	mlsn := pm.log.appendRetire(id, synth.Version)
	pm.mu.Unlock()
	if err := c.wal.commit(pm, mlsn); err != nil {
		return nil, err
	}

	synth.Sites = nil
	c.deletes.Inc()
	return synth, nil
}

// UpdatePlacement atomically relocates one chunk: it verifies the expected
// version (optimistic concurrency for the mover), rejects destinations
// already holding a chunk of the block (r-fault tolerance), updates the
// index, and returns the new version.
func (c *Catalog) UpdatePlacement(id model.BlockID, chunk int, to model.SiteID, expectVersion uint64) (uint64, error) {
	if err := c.walFailed(); err != nil {
		return 0, err
	}
	if err := c.knownSites([]model.SiteID{to}); err != nil {
		c.updateFails.Inc()
		return 0, err
	}
	p := c.part(id)
	p.mu.Lock()
	meta, ok := p.blocks[id]
	if !ok {
		p.mu.Unlock()
		c.updateFails.Inc()
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if chunk < 0 || chunk >= len(meta.Sites) {
		p.mu.Unlock()
		c.updateFails.Inc()
		return 0, fmt.Errorf("%w: %d", ErrInvalidChunk, chunk)
	}
	if meta.Version != expectVersion {
		have := meta.Version
		p.mu.Unlock()
		c.updateFails.Inc()
		return 0, fmt.Errorf("%w: have %d, expected %d", ErrStaleVersion, have, expectVersion)
	}
	for ci, s := range meta.Sites {
		if s == to && ci != chunk {
			p.mu.Unlock()
			c.updateFails.Inc()
			return 0, fmt.Errorf("%w: site %d", ErrChunkConflict, to)
		}
	}
	from := meta.Sites[chunk]
	if from == to {
		v := meta.Version
		p.mu.Unlock()
		return v, nil
	}
	meta.Sites[chunk] = to
	meta.Version++
	p.unindexLocked(from, id)
	// Keep the index entry if another chunk still lives at `from`.
	for ci, s := range meta.Sites {
		if s == from && ci != chunk {
			p.indexLocked(from, id)
			break
		}
	}
	p.indexLocked(to, id)
	version := meta.Version
	lsn := p.log.appendUpdate(id, chunk, to, version)
	p.mu.Unlock()
	if err := c.wal.commit(p, lsn); err != nil {
		return 0, err
	}
	c.updates.Inc()
	return version, nil
}

// BlocksOnSite lists blocks with at least one chunk at the site, in sorted
// order (used by the repair service). Partitions are scanned one at a
// time; the result is a merge of their per-partition indexes.
func (c *Catalog) BlocksOnSite(s model.SiteID) []model.BlockID {
	var out []model.BlockID
	for _, p := range c.parts {
		p.mu.RLock()
		for id := range p.bySite[s] {
			out = append(out, id)
		}
		p.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the number of registered blocks.
func (c *Catalog) Len() int {
	n := 0
	for _, p := range c.parts {
		p.mu.RLock()
		n += len(p.blocks)
		p.mu.RUnlock()
	}
	return n
}

// ForEach invokes fn with a copy of every block's metadata until fn
// returns false. Iteration order is unspecified.
func (c *Catalog) ForEach(fn func(*model.BlockMeta) bool) {
	for _, p := range c.parts {
		p.mu.RLock()
		ids := make([]model.BlockID, 0, len(p.blocks))
		for id := range p.blocks {
			ids = append(ids, id)
		}
		p.mu.RUnlock()
		for _, id := range ids {
			meta, ok := c.lookupOne(id)
			if !ok {
				continue
			}
			if !fn(meta) {
				return
			}
		}
	}
}

// restoreRetired seeds a retired watermark during partition-snapshot load
// and WAL replay.
func (c *Catalog) restoreRetired(id model.BlockID, version uint64) {
	p := c.part(id)
	p.mu.Lock()
	p.retireLocked(id, version)
	p.mu.Unlock()
}

// RetiredVersion reports the recorded watermark for a deleted id (zero,
// false when the id was never deleted or has been re-registered).
func (c *Catalog) RetiredVersion(id model.BlockID) (uint64, bool) {
	p := c.part(id)
	p.mu.RLock()
	defer p.mu.RUnlock()
	v, ok := p.retired[id]
	return v, ok
}

// Package store implements the tiered artifact storage manager (§5.3): a
// content-addressed store that deduplicates dataset columns by their
// lineage IDs, so two artifacts sharing columns cost the shared bytes only
// once. Models and aggregates are stored as whole blobs.
//
// The manager holds two tiers. The memory tier serves artifacts at
// in-process speed and has a configurable byte budget; under pressure, cold
// artifacts are *demoted* to the durable disk tier (internal/tier) instead
// of being dropped, and promoted back on access. The manager decides only
// where an artifact lives: what is stored is the caller's to decide (Evict),
// and only a memory budget with no disk tier attached drops artifacts on its
// own. The tiers are inclusive: a
// promoted artifact keeps its disk copy, so re-demotion is a metadata-only
// drop and a crash never loses demoted work. See DESIGN.md "Tiered
// storage".
package store

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tier"
)

// Tier identifies which storage tier holds (or served) an artifact.
type Tier int

const (
	// TierNone: the artifact is not stored.
	TierNone Tier = iota
	// TierMemory: resident in the in-process memory tier.
	TierMemory
	// TierDisk: resident only in the durable disk tier.
	TierDisk
)

// String returns the tier label used in metrics, trace spans, and the
// X-Collab-Tier transfer header.
func (t Tier) String() string {
	switch t {
	case TierMemory:
		return "memory"
	case TierDisk:
		return "disk"
	default:
		return "none"
	}
}

// Metrics holds the manager's optional observability counters. All fields
// are nil-safe (see internal/obs): an uninstrumented manager pays only a
// nil check per operation.
type Metrics struct {
	// GetHits / GetMisses count lookups by outcome (any tier).
	GetHits, GetMisses *obs.Counter
	// DiskHits counts lookups served by the disk tier (subset of GetHits).
	DiskHits *obs.Counter
	// Puts counts artifacts admitted (no-op re-puts excluded).
	Puts *obs.Counter
	// Evictions counts artifacts removed entirely (all tiers).
	Evictions *obs.Counter
	// Demotions counts artifacts moved memory → disk under budget
	// pressure (or by Demote).
	Demotions *obs.Counter
	// Promotions counts artifacts copied disk → memory on access.
	Promotions *obs.Counter
	// ChecksumFailures counts disk reads rejected by checksum or decode
	// verification (the offending files are quarantined).
	ChecksumFailures *obs.Counter
	// BytesFetched accumulates the logical size of artifacts served by Get.
	BytesFetched *obs.Counter
	// LockWait accounts time callers queued on the manager's write lock
	// (Put, Get, Evict, Demote, and Sync once per artifact it walks) — the
	// eviction/admission serialization point under concurrent clients.
	LockWait *obs.Histogram
}

// Options configures the tiered manager beyond the memory profile.
type Options struct {
	// MemoryBudget bounds the memory tier's deduplicated bytes; exceeding
	// it demotes cold artifacts to disk (or hard-evicts them when no disk
	// tier is attached). 0 means unbounded.
	MemoryBudget int64
	// Disk attaches the durable tier; nil keeps the manager memory-only.
	Disk *tier.Disk
	// DiskProfile is the load-cost profile priced for disk-tier artifacts
	// (defaults to cost.Disk() when a disk tier is attached).
	DiskProfile cost.Profile
}

// Manager stores artifact content for materialized Experiment Graph
// vertices. It is safe for concurrent use.
type Manager struct {
	mu          sync.RWMutex
	profile     cost.Profile // memory-tier load costs
	diskProfile cost.Profile // disk-tier load costs
	memBudget   int64
	disk        *tier.Disk

	// The memory tier: an index of what it holds, and the values — each
	// column of its manifests once, by lineage ID, and each blob.
	mem   *tier.Index
	cols  map[string]*column
	blobs map[string]graph.Artifact

	// memLRU lists the IDs of the memory-resident artifacts from least to
	// most recently used (front = coldest), memElem finds an ID's element: a
	// touch is a move to the back and picking a budget victim is reading the
	// front.
	memLRU  *list.List
	memElem map[string]*list.Element

	met Metrics

	// ledger, when attached, is told where an artifact lives after every
	// change of residency (reportLocked). An atomic pointer, not a Metrics
	// field: transitions happen inside locked sections on the hot path, and
	// the detached state must cost exactly one pointer load
	// (TestDetachedLedgerAllocatesAsAbsent).
	ledger atomic.Pointer[obs.ArtifactLedger]

	// drops counts what the manager dropped from its last tier on its own
	// (Drops). Atomic: PeekRecords counts a failed disk read under the read
	// lock.
	drops atomic.Uint64
}

// Instrument installs observability counters on the manager; the zero
// Metrics value (all nil) returns it to the uninstrumented state.
func (m *Manager) Instrument(met Metrics) {
	m.mu.Lock()
	m.met = met
	m.mu.Unlock()
}

// RentHorizonSeconds is the pricing window for artifact storage rent: one
// rent horizon of residency in a tier is charged one bandwidth-priced load
// of the artifact's bytes from that tier. The horizon keeps rent
// commensurate with the load-time savings it is weighed against — an
// artifact that cannot save one tier-load's worth of time per minute of
// residency is paying more than it earns (ROADMAP item 4's eviction
// signal).
const RentHorizonSeconds = 60

// RentRate converts a tier's cost profile into the ledger's rent price:
// seconds of rent per byte-second of residency. A profile without
// bandwidth (unpriceable tier) rents for free.
func RentRate(p cost.Profile) float64 {
	if p.BytesPerSecond <= 0 {
		return 0
	}
	return 1 / (p.BytesPerSecond * RentHorizonSeconds)
}

// AttachLedger connects the artifact ledger: rent rates are derived from
// the manager's tier profiles, every artifact already stored is reported
// where it lives (after a crash, the durable tier's survivors rebuild their
// entries, with pre-crash economics gone), and so is every later change of
// residency. nil detaches; the detached fast path is a single atomic
// pointer load.
func (m *Manager) AttachLedger(led *obs.ArtifactLedger) {
	if led != nil {
		led.SetRentRate(TierMemory.String(), RentRate(m.profile))
		led.SetRentRate(TierDisk.String(), RentRate(m.diskProfile))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.ledger.Store(led)
	ids := m.storedIDsLocked()
	sort.Strings(ids)
	for _, id := range ids {
		m.reportLocked(id)
	}
}

// reportLocked tells the attached ledger where the vertex's content lives
// now — memory, disk, both, or nowhere — and its logical size when some
// tier holds it.
func (m *Manager) reportLocked(vertexID string) {
	led := m.ledger.Load()
	if led == nil {
		return
	}
	inMemory, sz := m.mem.Has(vertexID), m.mem.Logical(vertexID)
	onDisk := m.disk != nil && m.disk.Has(vertexID)
	if !inMemory && onDisk {
		sz = m.disk.LogicalSize(vertexID)
	}
	led.Hold(vertexID, inMemory, onDisk, sz)
}

// Drops counts the artifacts the manager has dropped from its last tier on
// its own: evicted under a memory budget with no disk tier to demote to, or
// unreadable on disk. A caller that put
// something and sees the count move knows the put may have cost it another
// artifact; what is held now is Has's to say.
func (m *Manager) Drops() uint64 { return m.drops.Load() }

// Holding calls fn, under the manager's read lock, with a predicate that
// reports whether some tier holds a vertex's content: Has for many vertices
// at the price of one lock, with answers consistent with each other. fn must
// not call back into the manager. It may take other locks, as long as no
// holder of those ever waits on the manager's.
func (m *Manager) Holding(fn func(held func(vertexID string) bool)) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	fn(m.hasLocked)
}

// Ledger returns the attached artifact ledger, or nil.
func (m *Manager) Ledger() *obs.ArtifactLedger { return m.ledger.Load() }

// lockWrite acquires the manager's write lock, accounting the queue wait.
// m.met is guarded by the lock itself, so the observation necessarily
// happens after acquisition — the measured wait is unaffected.
func (m *Manager) lockWrite() {
	sw := obs.StartTimer()
	m.mu.Lock()
	if m.met.LockWait != nil {
		m.met.LockWait.Observe(sw.Elapsed().Seconds())
	}
}

// New returns an empty memory-only storage manager with the given load-cost
// profile and no budget.
func New(profile cost.Profile) *Manager {
	return NewTiered(profile, Options{})
}

// NewTiered returns an empty manager with the given memory-tier profile and
// tiering options.
func NewTiered(profile cost.Profile, opts Options) *Manager {
	dp := opts.DiskProfile
	if dp.Name == "" {
		dp = cost.Disk()
	}
	return &Manager{
		profile:     profile,
		diskProfile: dp,
		memBudget:   opts.MemoryBudget,
		disk:        opts.Disk,
		mem:         tier.NewIndex(),
		cols:        make(map[string]*column),
		blobs:       make(map[string]graph.Artifact),
		memLRU:      list.New(),
		memElem:     make(map[string]*list.Element),
	}
}

// Profile returns the manager's memory-tier load-cost profile.
func (m *Manager) Profile() cost.Profile { return m.profile }

// TierProfile returns the load-cost profile of the given tier.
func (m *Manager) TierProfile(t Tier) cost.Profile {
	if t == TierDisk {
		return m.diskProfile
	}
	return m.profile
}

// Disk returns the attached disk tier, or nil for a memory-only manager.
func (m *Manager) Disk() *tier.Disk { return m.disk }

// touchLocked moves a memory-resident artifact to the hot end of the LRU.
func (m *Manager) touchLocked(vertexID string) {
	if e, ok := m.memElem[vertexID]; ok {
		m.memLRU.MoveToBack(e)
	} else {
		m.memElem[vertexID] = m.memLRU.PushBack(vertexID)
	}
}

// Put stores the artifact content for a vertex in the memory tier. Dataset
// artifacts are decomposed into deduplicated columns; other artifacts are
// stored whole. Putting an already-present vertex (either tier) is a no-op.
// If the memory budget is exceeded, the coldest artifacts are demoted to
// the disk tier before Put returns.
func (m *Manager) Put(vertexID string, a graph.Artifact) error {
	if a == nil {
		return fmt.Errorf("store: nil artifact for %s", vertexID)
	}
	m.lockWrite()
	defer m.mu.Unlock()
	if m.hasLocked(vertexID) {
		return nil
	}
	m.putLocked(vertexID, func() { m.admitLocked(vertexID, a) })
	return nil
}

// putLocked admits a vertex that no tier holds yet: counters, memory-tier
// maps (admit), LRU position, ledger report, then budget enforcement.
func (m *Manager) putLocked(vertexID string, admit func()) {
	m.met.Puts.Inc()
	admit()
	m.touchLocked(vertexID)
	m.reportLocked(vertexID)
	m.enforceBudgetLocked()
}

// ErrColumnAbsent is returned by PutFrameRef when the manifest names a
// column that is neither among the supplied columns nor held by any tier:
// the caller believed the store had it and it has since been evicted.
var ErrColumnAbsent = errors.New("store: manifest column neither supplied nor held")

// ErrBadManifest is returned by PutFrameRef for input that can never be
// admitted, however many columns are supplied.
var ErrBadManifest = errors.New("store: inconsistent frame manifest")

// HeldColumns returns the indices into colIDs of the column lineage IDs the
// store holds in some tier — the memory tier's column map or a column file
// of the disk tier. PutFrameRef can assemble a frame from exactly these.
func (m *Manager) HeldColumns(colIDs []string) []int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var held []int
	for i, id := range colIDs {
		if m.mem.HasColumn(id) || (m.disk != nil && m.disk.HasColumn(id)) {
			held = append(held, i)
		}
	}
	return held
}

// PutFrameRef is Put for a dataset given by reference: the manifest
// (ordered column lineage IDs and the names they carry in this frame) plus
// the records of only the columns the caller chose to supply. Every other
// manifest column is taken from the store under its lineage ID, from the
// memory tier or, for columns that only demoted frames still reference, as
// its record from the disk tier. The outcome is that of Put with the whole
// frame: same column ref-counts, physical and logical bytes, ledger report
// and budget enforcement. Nothing is decoded: the memory tier keeps the
// records, and decodes one when an in-process Get first asks for it.
//
// Nothing is admitted unless the whole frame can be: ErrColumnAbsent (retry
// with every column) when a manifest column is in neither place,
// ErrBadManifest when the input contradicts itself or the store — a supplied
// column the manifest does not name, two supplied columns under one ID, a
// supplied column whose type or length differs from the held column of the
// same ID, or columns that do not form a frame.
func (m *Manager) PutFrameRef(vertexID string, colIDs, names []string, supplied []tier.Record) error {
	if len(colIDs) == 0 || len(colIDs) != len(names) {
		return fmt.Errorf("%w: %d column ids, %d names", ErrBadManifest, len(colIDs), len(names))
	}
	// byID holds every column the manifest names, keyed by the manifest's
	// own strings: the supplied ones, and nil for the rest until a tier
	// supplies them. Each entry is its own allocation, so that an evicted
	// column's record is not kept alive by a sibling the store still holds.
	byID := make(map[string]*column, len(colIDs))
	for _, id := range colIDs {
		byID[id] = nil
	}
	for _, r := range supplied {
		switch c, named := byID[r.ID]; {
		case !named:
			return fmt.Errorf("%w: supplied column not named by the manifest", ErrBadManifest)
		case c != nil:
			return fmt.Errorf("%w: column %s supplied twice", ErrBadManifest, r.ID)
		}
		byID[r.ID] = &column{info: r.ColumnInfo, rec: r}
	}

	m.lockWrite()
	defer m.mu.Unlock()
	if m.hasLocked(vertexID) {
		return nil
	}
	cols := make([]*column, len(colIDs))
	for i, id := range colIDs {
		c := byID[id]
		if held := m.cols[id]; held != nil {
			// As in admitLocked, the held column wins; a supplied one must
			// at least be the same shape.
			if c != nil && (c.info.Type != held.info.Type || c.info.Rows != held.info.Rows) {
				return fmt.Errorf("%w: column %s is %s×%d here, %s×%d in the store", ErrBadManifest,
					id, c.info.Type, c.info.Rows, held.info.Type, held.info.Rows)
			}
			c = held
		}
		if c == nil && m.disk != nil {
			r, ok, err := m.disk.ColumnRecord(id)
			if err != nil {
				m.met.ChecksumFailures.Inc()
			}
			if ok {
				c = &column{info: r.ColumnInfo, rec: r}
				byID[id] = c
			}
		}
		if c == nil {
			return fmt.Errorf("%w: %s", ErrColumnAbsent, id)
		}
		cols[i] = c
	}
	// The frame's own shape, as data.NewFrame checks it.
	seen := make(map[string]bool, len(names))
	for i, name := range names {
		if seen[name] {
			return fmt.Errorf("%w: data: duplicate column %q", ErrBadManifest, name)
		}
		seen[name] = true
		if rows := cols[i].info.Rows; rows != cols[0].info.Rows {
			return fmt.Errorf("%w: data: column %q has %d rows, frame has %d", ErrBadManifest, name, rows, cols[0].info.Rows)
		}
	}
	m.putLocked(vertexID, func() {
		m.admitFrameLocked(vertexID, tier.Manifest{ColIDs: colIDs, Names: names}, func(i int) *column { return cols[i] })
	})
	return nil
}

// admitLocked inserts content into the memory tier (no budget check, no
// touch). A dataset's columns already held keep their values.
func (m *Manager) admitLocked(vertexID string, a graph.Artifact) {
	ds, ok := a.(*graph.DatasetArtifact)
	if !ok || ds.Frame == nil {
		m.blobs[vertexID] = a
		m.mem.AddBlob(vertexID, a.SizeBytes())
		return
	}
	cols := ds.Frame.Columns()
	m.admitFrameLocked(vertexID, tier.ManifestOf(cols), func(i int) *column { return decodedColumn(cols[i]) })
}

// admitFrameLocked records a dataset in the memory tier: col(i) is the
// entry of column man.ColIDs[i], asked for only when the memory tier does
// not hold that column yet.
func (m *Manager) admitFrameLocked(vertexID string, man tier.Manifest, col func(i int) *column) {
	entries := make([]*column, len(man.ColIDs))
	size := func(i int) int64 {
		if held := m.cols[man.ColIDs[i]]; held != nil {
			return held.info.Size
		}
		entries[i] = col(i)
		return entries[i].info.Size
	}
	for _, i := range m.mem.AddFrame(vertexID, man, size) {
		m.cols[man.ColIDs[i]] = entries[i]
	}
}

// getMemoryLocked reassembles a memory-resident artifact, or nil.
func (m *Manager) getMemoryLocked(vertexID string) graph.Artifact {
	man, ok := m.mem.Frame(vertexID)
	if !ok {
		return m.blobs[vertexID]
	}
	a, err := tier.Assemble(man, m.memColumn)
	if err != nil {
		return nil // torn entry; treat as absent
	}
	return a
}

// memColumn returns the memory tier's values of a column.
func (m *Manager) memColumn(colID string) (*data.Column, error) {
	if c := m.cols[colID]; c != nil {
		return c.decoded()
	}
	return nil, fmt.Errorf("store: torn entry: column %s not held", colID)
}

// memRecord returns the memory tier's record of a column.
func (m *Manager) memRecord(colID string) (tier.Record, error) {
	if c := m.cols[colID]; c != nil {
		return c.record()
	}
	return tier.Record{}, fmt.Errorf("store: torn entry: column %s not held", colID)
}

// column is one column of the memory tier, held once per lineage ID in two
// views: the record, which a transfer writes and a demotion spills, and the
// decoded column, which an in-process Get returns. An upload fills the
// record, an in-process Put the column, so neither path converts unless the
// other kind of reader comes along. The decoded view of a record is made
// the first time it is asked for and kept. The record of a decoded column
// is encoded each time and not kept: only an in-process server holds
// decoded columns, and every checkpoint's Sync spills them, which would
// leave it holding each column twice.
type column struct {
	info tier.ColumnInfo
	rec  tier.Record // set when the entry is made, or never

	mu  sync.Mutex
	col *data.Column
}

// decodedColumn is the entry of a column an in-process Put stored.
func decodedColumn(c *data.Column) *column {
	return &column{info: tier.InfoOf(c), col: c}
}

// decoded returns the column's values, decoding its record the first time:
// the one place the store decodes a column record.
func (c *column) decoded() (*data.Column, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.col == nil {
		col, err := tier.DecodeColumn(c.rec.Bytes())
		if err != nil {
			return nil, err
		}
		c.col = col
	}
	return c.col, nil
}

// record returns the column's record, encoding its values when it has none.
func (c *column) record() (tier.Record, error) {
	if c.rec.Bytes() != nil {
		return c.rec, nil
	}
	return tier.RecordOf(c.col)
}

// getDiskLocked reads an artifact from the disk tier, counting checksum
// failures (the tier quarantines the offending file itself).
func (m *Manager) getDiskLocked(vertexID string) graph.Artifact {
	if m.disk == nil {
		return nil
	}
	a, err := m.disk.Get(vertexID)
	if err != nil {
		m.diskFailedLocked(vertexID)
		return nil
	}
	return a
}

// diskFailedLocked accounts a disk read that failed: the tier has
// quarantined what failed verification and dropped the vertex.
func (m *Manager) diskFailedLocked(vertexID string) {
	m.met.ChecksumFailures.Inc()
	if led := m.ledger.Load(); led != nil {
		led.Quarantine(vertexID)
	}
	if !m.hasLocked(vertexID) {
		m.drops.Add(1)
	}
}

// Get retrieves the artifact content for a vertex, or nil if absent, and
// reports which tier served it, so callers (the executor's fetch path, the
// reuse planner's cost model) can price and tag the access with the
// artifact's actual location. Dataset artifacts are reassembled from the
// column store; the returned frame shares the stored column arrays
// (in-memory EG semantics). A disk-tier hit promotes the artifact back into
// the memory tier.
func (m *Manager) Get(vertexID string) (graph.Artifact, Tier) {
	m.lockWrite()
	defer m.mu.Unlock()
	if a := m.getMemoryLocked(vertexID); a != nil {
		m.met.GetHits.Inc()
		m.met.BytesFetched.Add(m.mem.Logical(vertexID))
		m.touchLocked(vertexID)
		return a, TierMemory
	}
	if a := m.getDiskLocked(vertexID); a != nil {
		m.met.GetHits.Inc()
		m.met.DiskHits.Inc()
		// Promote: copy up into the memory tier (the disk copy remains, so
		// a later demotion is a metadata-only drop).
		m.admitLocked(vertexID, a)
		m.met.Promotions.Inc()
		m.reportLocked(vertexID)
		m.met.BytesFetched.Add(m.mem.Logical(vertexID))
		m.touchLocked(vertexID)
		m.enforceBudgetLocked()
		return a, TierDisk
	}
	m.met.GetMisses.Inc()
	return nil, TierNone
}

// Records is an artifact in the form a transfer writes it: a dataset with
// columns as its manifest and the record of each distinct column
// (tier.Distinct), anything else as Content.
type Records struct {
	Content  graph.Artifact
	Manifest tier.Manifest
	Columns  []tier.Record
}

// PeekRecords returns the artifact in the form a transfer writes it,
// without promoting it or disturbing the LRU order, so serving a
// collaborator does not displace the hot set: a dataset comes back as the
// records the store keeps, from the memory tier or straight from the disk
// tier's files, decoded nowhere. A column the memory tier holds only decoded
// (an in-process Put) is encoded. A disk read that fails is counted and
// quarantined as Get's is.
func (m *Manager) PeekRecords(vertexID string) (*Records, Tier) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if man, ok := m.mem.Frame(vertexID); ok && len(man.ColIDs) > 0 {
		recs, err := tier.Distinct(man, m.memRecord)
		if err != nil {
			return nil, TierNone // torn entry; treat as absent
		}
		return &Records{Manifest: man, Columns: recs}, TierMemory
	}
	if a := m.getMemoryLocked(vertexID); a != nil {
		return &Records{Content: a}, TierMemory
	}
	if m.disk == nil {
		return nil, TierNone
	}
	man, recs, ok, err := m.disk.FrameRecords(vertexID)
	if ok && len(man.ColIDs) > 0 {
		if err != nil {
			m.diskFailedLocked(vertexID)
			return nil, TierNone
		}
		return &Records{Manifest: man, Columns: recs}, TierDisk
	}
	if a := m.getDiskLocked(vertexID); a != nil {
		return &Records{Content: a}, TierDisk
	}
	return nil, TierNone
}

// TierOf reports where the vertex's content currently resides. Memory wins
// when both tiers hold a copy.
func (m *Manager) TierOf(vertexID string) Tier {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.tierOfLocked(vertexID)
}

func (m *Manager) tierOfLocked(vertexID string) Tier {
	if m.mem.Has(vertexID) {
		return TierMemory
	}
	if m.disk != nil && m.disk.Has(vertexID) {
		return TierDisk
	}
	return TierNone
}

// Has reports whether the vertex's content is stored in any tier.
func (m *Manager) Has(vertexID string) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.hasLocked(vertexID)
}

func (m *Manager) hasLocked(vertexID string) bool {
	return m.tierOfLocked(vertexID) != TierNone
}

// dropMemoryLocked removes a vertex from the memory tier, letting go of the
// columns no other memory-resident frame names. Reports whether anything was
// removed.
func (m *Manager) dropMemoryLocked(vertexID string) bool {
	if !m.mem.Has(vertexID) {
		return false
	}
	if e, ok := m.memElem[vertexID]; ok {
		m.memLRU.Remove(e)
		delete(m.memElem, vertexID)
	}
	for _, id := range m.mem.Drop(vertexID) {
		delete(m.cols, id)
	}
	delete(m.blobs, vertexID)
	return true
}

// Evict removes a vertex's content from every tier (true eviction),
// releasing column references and reclaiming physical space for columns no
// longer referenced.
func (m *Manager) Evict(vertexID string) {
	m.lockWrite()
	defer m.mu.Unlock()
	dropped := m.dropMemoryLocked(vertexID)
	if m.disk != nil && m.disk.Has(vertexID) {
		m.disk.Evict(vertexID)
		dropped = true
	}
	if dropped {
		m.met.Evictions.Inc()
		m.reportLocked(vertexID)
	}
}

// spillLocked writes the disk copy of a memory-resident artifact unless the
// inclusive copy already exists. It is the one writer of disk copies:
// demotion and Sync both spill.
func (m *Manager) spillLocked(vertexID string) error {
	if m.disk == nil {
		return fmt.Errorf("store: no disk tier to spill %s to", vertexID)
	}
	if m.disk.Has(vertexID) {
		return nil
	}
	if man, ok := m.mem.Frame(vertexID); ok {
		return m.disk.PutFrame(vertexID, man,
			func(i int) int64 { return m.mem.ColumnSize(man.ColIDs[i]) },
			func(i int) (tier.Record, error) { return m.memRecord(man.ColIDs[i]) })
	}
	return m.disk.PutBlob(vertexID, m.blobs[vertexID])
}

// demoteLocked moves a memory-resident artifact to the disk tier: content
// is spilled and the memory copy dropped. The artifact stays loadable —
// Has, Get, and the planner's cost model all keep seeing it, at disk cost.
func (m *Manager) demoteLocked(vertexID string) error {
	if !m.mem.Has(vertexID) {
		return fmt.Errorf("store: %s is not memory-resident", vertexID)
	}
	if err := m.spillLocked(vertexID); err != nil {
		return err
	}
	m.dropMemoryLocked(vertexID)
	m.met.Demotions.Inc()
	m.reportLocked(vertexID)
	return nil
}

// Demote explicitly moves a vertex's content from the memory tier to the
// disk tier.
func (m *Manager) Demote(vertexID string) error {
	m.lockWrite()
	defer m.mu.Unlock()
	return m.demoteLocked(vertexID)
}

// coldestLocked returns the least recently used memory-resident vertex, or
// "" when the memory tier is empty.
func (m *Manager) coldestLocked() string {
	if e := m.memLRU.Front(); e != nil {
		return e.Value.(string)
	}
	return ""
}

// enforceBudgetLocked demotes the coldest memory artifacts, in LRU order,
// until the memory tier fits its budget, hard-evicting when demotion is
// impossible.
func (m *Manager) enforceBudgetLocked() {
	if m.memBudget <= 0 {
		return
	}
	for m.mem.Physical() > m.memBudget {
		victim := m.coldestLocked()
		if victim == "" {
			break
		}
		if err := m.demoteLocked(victim); err != nil {
			// No disk tier or spill failure: fall back to dropping the
			// artifact so the budget still holds.
			m.dropMemoryLocked(victim)
			m.met.Evictions.Inc()
			m.reportLocked(victim)
			m.drops.Add(1)
		}
	}
}

// Sync writes the disk copy of every memory-resident artifact that lacks
// one, coldest first, and keeps the memory copy (the tiers are inclusive).
// It locks per artifact, so a Get or Evict waits for one write, not the
// walk, and it skips an artifact evicted meanwhile: writing it back would
// restore content the materializer dropped. Sync continues past failures and
// returns the first, or an error when no disk tier is attached.
func (m *Manager) Sync() error {
	if m.disk == nil {
		return errors.New("store: no disk tier to sync to")
	}
	m.mu.RLock()
	ids := make([]string, 0, m.memLRU.Len())
	for e := m.memLRU.Front(); e != nil; e = e.Next() {
		ids = append(ids, e.Value.(string))
	}
	m.mu.RUnlock()
	var first error
	for _, id := range ids {
		m.lockWrite()
		if m.mem.Has(id) && !m.disk.Has(id) {
			if err := m.spillLocked(id); err != nil {
				if first == nil {
					first = err
				}
			} else {
				m.reportLocked(id)
			}
		}
		m.mu.Unlock()
	}
	return first
}

// MemoryBytes returns the deduplicated bytes resident in the memory tier.
func (m *Manager) MemoryBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.mem.Physical()
}

// DiskBytes returns the deduplicated bytes resident in the disk tier, 0
// for a memory-only manager.
func (m *Manager) DiskBytes() int64 {
	if m.disk == nil {
		return 0
	}
	return m.disk.PhysicalBytes()
}

// TierCounts reports how many artifacts each tier currently holds. The
// tiers are inclusive, so an artifact resident in both counts in both —
// memory+disk can exceed Len().
func (m *Manager) TierCounts() (memory, disk int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	memory = m.mem.Len()
	if m.disk != nil {
		disk = m.disk.Len()
	}
	return memory, disk
}

// PhysicalBytes returns the deduplicated bytes in the memory tier (the
// paper's single-tier accounting; per-tier figures are MemoryBytes and
// DiskBytes).
func (m *Manager) PhysicalBytes() int64 { return m.MemoryBytes() }

// LogicalBytes returns the sum of stored artifact sizes as if stored
// without deduplication across both tiers (the paper's "real size of the
// materialized artifacts", Figure 6, is this value for SA). Artifacts
// resident in both tiers count once.
func (m *Manager) LogicalBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n int64
	for _, id := range m.storedIDsLocked() {
		if m.mem.Has(id) {
			n += m.mem.Logical(id)
		} else {
			n += m.disk.LogicalSize(id)
		}
	}
	return n
}

// StoredIDs returns the vertex IDs with stored content in any tier.
func (m *Manager) StoredIDs() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.storedIDsLocked()
}

func (m *Manager) storedIDsLocked() []string {
	out := m.mem.IDs()
	if m.disk != nil {
		for _, id := range m.disk.StoredIDs() {
			if !m.mem.Has(id) {
				out = append(out, id)
			}
		}
	}
	return out
}

// LoadCostFor returns the modeled retrieval cost Cl in seconds for the
// vertex's artifact, priced with the profile of the tier that actually
// holds it — the paper's Cl(v) adapted per artifact location rather than
// per deployment. Unstored vertices are priced at memory cost (the
// caller's guard, st.Has, decides loadability).
func (m *Manager) LoadCostFor(vertexID string, sizeBytes int64) float64 {
	return m.TierProfile(m.TierOf(vertexID)).LoadCost(sizeBytes).Seconds()
}

// Len returns the number of stored artifacts across tiers.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.storedIDsLocked())
}

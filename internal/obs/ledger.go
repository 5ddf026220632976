package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// This file is the artifact lifecycle ledger: a bounded per-artifact
// accounting table that records every storage transition an artifact goes
// through (materialized, hit, promoted, demoted, evicted, quarantined,
// recovered) together with the storage economics the paper's central bet
// rests on — does the realized reuse saving of a materialized artifact
// cover the storage rent of keeping it around? The store manager feeds
// residency transitions, the server's update path feeds per-reuse savings
// joined from planner predictions and client measurements, and the result
// is served at GET /v1/artifacts (`collab artifacts`) and summarized on
// /metrics and /v1/stats. ROADMAP item 4 (evict artifacts whose savings
// fall below their rent) reads this ledger as its input signal.

// Artifact event kinds — the fixed lifecycle vocabulary. Tier labels on
// events are the store's ("memory", "disk"); an empty tier on an eviction
// means "all tiers".
const (
	// ArtifactMaterialized: content admitted to the memory tier.
	ArtifactMaterialized = "materialized"
	// ArtifactMemoryHit / ArtifactDiskHit: a reuse fetch served by the
	// named tier, recorded by the server's update join (carries the
	// request ID and the realized saving).
	ArtifactMemoryHit = "memory-hit"
	ArtifactDiskHit   = "disk-hit"
	// ArtifactReuse: a reuse the client did not measure (calibration off)
	// — counted, but with unknown tier and zero attributed saving.
	ArtifactReuse = "reuse"
	// ArtifactPromoted: copied disk → memory on access (inclusive tiers:
	// the disk copy remains).
	ArtifactPromoted = "promoted"
	// ArtifactDemoted: spilled memory → disk under budget pressure or an
	// idle sweep.
	ArtifactDemoted = "demoted"
	// ArtifactEvicted: dropped from the tier named on the event (empty
	// tier: dropped from every tier).
	ArtifactEvicted = "evicted"
	// ArtifactQuarantined: a disk read failed checksum or decode
	// verification and the tier quarantined the file. The artifact drops
	// out of the economics totals — unloadable bytes earn no savings.
	ArtifactQuarantined = "quarantined"
	// ArtifactRecovered: found in the durable tier at ledger attach time
	// (crash recovery rebuilt the entry; its pre-crash history is gone).
	ArtifactRecovered = "recovered"
)

// ArtifactEventKinds is the full event vocabulary in rendering order —
// the bound on the collab_artifact_events_total{kind} label.
var ArtifactEventKinds = []string{
	ArtifactMaterialized,
	ArtifactMemoryHit,
	ArtifactDiskHit,
	ArtifactReuse,
	ArtifactPromoted,
	ArtifactDemoted,
	ArtifactEvicted,
	ArtifactQuarantined,
	ArtifactRecovered,
}

// DefaultLedgerCap bounds a NewArtifactLedger(0) ledger.
const DefaultLedgerCap = 512

// ledgerEventCap is the per-artifact event ring size: enough to hold a
// full materialize → reuse → demote → evict cycle with room for hits,
// small enough that a thousand tracked artifacts stay cheap.
const ledgerEventCap = 8

// ArtifactEvent is one lifecycle transition. Field order is the JSON
// contract (byte-stable WriteJSON, golden-tested).
type ArtifactEvent struct {
	Seq       int64  `json:"seq"`
	Kind      string `json:"kind"`
	Tier      string `json:"tier,omitempty"`
	Bytes     int64  `json:"bytes,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	UnixNano  int64  `json:"unix_nano"`
}

// ArtifactRecord is the exported per-artifact view: identity, current
// residency, cumulative economics, and the recent event window. Field
// order is the JSON contract.
type ArtifactRecord struct {
	ID string `json:"id"`
	// Tier is the current residency ("memory" wins when both tiers hold a
	// copy; "none" after eviction).
	Tier  string `json:"tier"`
	Bytes int64  `json:"bytes"`
	// Reuse counts every reuse fetch; MemoryHits/DiskHits split the
	// measured ones by serving tier.
	Reuse      int64 `json:"reuse"`
	MemoryHits int64 `json:"memory_hits,omitempty"`
	DiskHits   int64 `json:"disk_hits,omitempty"`
	// SavedSec is the realized load-time saving: Σ over measured reuses of
	// Cr(v) avoided minus the measured fetch time. Negative when fetching
	// was slower than recomputing would have been.
	SavedSec float64 `json:"saved_sec"`
	// MemoryByteSec / DiskByteSec are exact byte-seconds of residency per
	// tier; RentSec prices them through the tier profiles (see SetRentRate).
	MemoryByteSec float64 `json:"memory_byte_sec"`
	DiskByteSec   float64 `json:"disk_byte_sec"`
	RentSec       float64 `json:"rent_sec"`
	// NetSec = SavedSec − RentSec: the artifact's running profit-and-loss.
	NetSec      float64 `json:"net_sec"`
	Quarantined bool    `json:"quarantined,omitempty"`
	// Events is the recent event window, oldest first (bounded ring;
	// EventsDropped counts what scrolled out).
	EventsDropped int64           `json:"events_dropped,omitempty"`
	Events        []ArtifactEvent `json:"events"`
}

// tierHold tracks one tier's residency for byte-second accrual.
type tierHold struct {
	resident bool
	bytes    int64
	since    time.Time
	byteSec  float64
}

// accrue folds residency up to now into the byte-second total and
// restarts the residency window.
func (h *tierHold) accrue(now time.Time) {
	if !h.resident {
		return
	}
	if d := now.Sub(h.since); d > 0 {
		h.byteSec += d.Seconds() * float64(h.bytes)
	}
	h.since = now
}

// held returns the byte-seconds including the still-open residency window
// (non-mutating; used by snapshots).
func (h *tierHold) held(now time.Time) float64 {
	total := h.byteSec
	if h.resident {
		if d := now.Sub(h.since); d > 0 {
			total += d.Seconds() * float64(h.bytes)
		}
	}
	return total
}

// clear ends residency after accruing up to now.
func (h *tierHold) clear(now time.Time) {
	h.accrue(now)
	h.resident = false
	h.bytes = 0
}

// set (re)starts residency with the given size after accruing the prior
// window.
func (h *tierHold) set(now time.Time, bytes int64) {
	h.accrue(now)
	h.resident = true
	if bytes > 0 {
		h.bytes = bytes
	}
	h.since = now
}

const (
	tierMemoryIdx = 0
	tierDiskIdx   = 1
)

type ledgerEntry struct {
	id          string
	bytes       int64 // last known logical size
	quarantined bool

	reuse, memHits, diskHits int64
	savedSec                 float64
	hold                     [2]tierHold // memory, disk

	events *Ring[ArtifactEvent] // the newest ledgerEventCap transitions
}

// ArtifactLedger is a bounded, race-safe per-artifact lifecycle and
// storage-economics table. A nil ledger drops observations and serves
// empty snapshots, so instrumentation sites hold it without guards.
type ArtifactLedger struct {
	mu   sync.Mutex
	capN int
	seq  int64
	now  func() time.Time
	// rent maps a tier label to its price in seconds of rent per
	// byte-second of residency (see SetRentRate).
	rent map[string]float64
	m    map[string]*ledgerEntry
	// dropped counts artifacts never tracked because the table was full.
	dropped int64
	// eventCounts aggregates events by kind for the
	// collab_artifact_events_total{kind} metric family.
	eventCounts map[string]int64
}

// NewArtifactLedger returns a ledger tracking at most n distinct
// artifacts (n <= 0 selects DefaultLedgerCap); artifacts beyond the cap
// are dropped and counted, never partially tracked.
func NewArtifactLedger(n int) *ArtifactLedger {
	if n <= 0 {
		n = DefaultLedgerCap
	}
	return &ArtifactLedger{
		capN:        n,
		now:         Timestamp,
		rent:        make(map[string]float64, 2),
		m:           make(map[string]*ledgerEntry),
		eventCounts: make(map[string]int64, len(ArtifactEventKinds)),
	}
}

// Cap returns the distinct-artifact capacity.
func (l *ArtifactLedger) Cap() int {
	if l == nil {
		return 0
	}
	return l.capN
}

// SetClock overrides the ledger's wall clock — deterministic tests inject
// a scripted clock. Call before concurrent use.
func (l *ArtifactLedger) SetClock(now func() time.Time) {
	if l == nil || now == nil {
		return
	}
	l.mu.Lock()
	l.now = now
	l.mu.Unlock()
}

// SetRentRate prices one byte-second of residency in the given tier as
// rate seconds of rent. The store manager derives the rate from the
// tier's cost profile: holding bytes for one rent horizon is charged one
// bandwidth-priced load of those bytes from that tier, which keeps rent
// commensurate with the load-time savings it is weighed against.
func (l *ArtifactLedger) SetRentRate(tier string, rate float64) {
	if l == nil || tier == "" || rate < 0 || math.IsNaN(rate) || math.IsInf(rate, 0) {
		return
	}
	l.mu.Lock()
	l.rent[tier] = rate
	l.mu.Unlock()
}

// entryLocked returns the artifact's entry, creating it if the table has
// room. Returns nil (and counts the drop) when the table is full.
func (l *ArtifactLedger) entryLocked(id string) *ledgerEntry {
	e := l.m[id]
	if e == nil {
		if len(l.m) >= l.capN {
			l.dropped++
			return nil
		}
		e = &ledgerEntry{id: id, events: NewRing[ArtifactEvent](ledgerEventCap)}
		l.m[id] = e
	}
	return e
}

// appendLocked stamps and appends one event to the entry's window.
func (l *ArtifactLedger) appendLocked(e *ledgerEntry, kind, tier string, bytes int64, requestID string, now time.Time) {
	l.seq++
	l.eventCounts[kind]++
	e.events.Add(ArtifactEvent{
		Seq:       l.seq,
		Kind:      kind,
		Tier:      tier,
		Bytes:     bytes,
		RequestID: requestID,
		UnixNano:  now.UnixNano(),
	})
}

// Event records one residency transition. kind is one of the Artifact*
// constants; tier names the tier the transition concerns (destination for
// materialized/promoted/demoted/recovered, source for a single-tier
// eviction, "" for an all-tier eviction); bytes is the artifact's logical
// size when the caller knows it; requestID correlates the transition with
// the request that caused it ("" when none did — background sweeps,
// budget pressure).
func (l *ArtifactLedger) Event(id, kind, tier string, bytes int64, requestID string) {
	if l == nil || id == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entryLocked(id)
	if e == nil {
		return
	}
	now := l.now()
	if bytes > 0 {
		e.bytes = bytes
	}
	switch kind {
	case ArtifactMaterialized:
		e.hold[tierMemoryIdx].set(now, e.bytes)
		e.quarantined = false
	case ArtifactPromoted:
		e.hold[tierMemoryIdx].set(now, e.bytes)
	case ArtifactRecovered:
		e.hold[tierDiskIdx].set(now, e.bytes)
	case ArtifactDemoted:
		e.hold[tierMemoryIdx].clear(now)
		e.hold[tierDiskIdx].set(now, e.bytes)
	case ArtifactEvicted:
		switch tier {
		case "memory":
			e.hold[tierMemoryIdx].clear(now)
		case "disk":
			e.hold[tierDiskIdx].clear(now)
		default:
			e.hold[tierMemoryIdx].clear(now)
			e.hold[tierDiskIdx].clear(now)
		}
	case ArtifactQuarantined:
		e.hold[tierMemoryIdx].clear(now)
		e.hold[tierDiskIdx].clear(now)
		e.quarantined = true
	}
	l.appendLocked(e, kind, tier, bytes, requestID, now)
}

// ObserveReuse records one reuse of the artifact: tier names the tier the
// fetch was served from ("memory", "disk", "remote", or "" when the
// client did not measure), and savedSec is the realized saving — the
// recreation cost Cr(v) the reuse avoided minus the measured fetch time,
// in seconds (0 for unmeasured reuses; negative when the fetch cost more
// than recomputation would have). The server's update path calls this
// while joining planner predictions with client measurements, so the
// event carries the request ID of the run that reused the artifact.
func (l *ArtifactLedger) ObserveReuse(id, tier string, bytes int64, savedSec float64, requestID string) {
	if l == nil || id == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entryLocked(id)
	if e == nil {
		return
	}
	now := l.now()
	if bytes > 0 {
		e.bytes = bytes
	}
	kind := ArtifactReuse
	switch tier {
	case "memory":
		kind = ArtifactMemoryHit
		e.memHits++
	case "disk":
		kind = ArtifactDiskHit
		e.diskHits++
	}
	e.reuse++
	if !math.IsNaN(savedSec) && !math.IsInf(savedSec, 0) {
		e.savedSec += savedSec
	}
	l.appendLocked(e, kind, tier, bytes, requestID, now)
}

// Len returns the number of tracked artifacts.
func (l *ArtifactLedger) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.m)
}

// Dropped returns how many artifacts were never tracked because the
// table was full.
func (l *ArtifactLedger) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// ReuseTotal returns the cumulative reuse count across tracked artifacts
// (measured hits of either tier plus unmeasured reuses).
func (l *ArtifactLedger) ReuseTotal() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.eventCounts[ArtifactMemoryHit] + l.eventCounts[ArtifactDiskHit] + l.eventCounts[ArtifactReuse]
}

// EventCount returns the cumulative number of events of the given kind.
func (l *ArtifactLedger) EventCount(kind string) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.eventCounts[kind]
}

// round9 trims float accumulation noise to nanosecond-ish precision so
// exported values are readable and byte-stable under a fixed clock.
func round9(x float64) float64 {
	return math.Round(x*1e9) / 1e9
}

// recordLocked builds the export view of one entry, accruing open
// residency windows up to now without mutating the entry.
func (l *ArtifactLedger) recordLocked(e *ledgerEntry, now time.Time) ArtifactRecord {
	memBS := e.hold[tierMemoryIdx].held(now)
	diskBS := e.hold[tierDiskIdx].held(now)
	rent := memBS*l.rent["memory"] + diskBS*l.rent["disk"]
	tier := "none"
	switch {
	case e.hold[tierMemoryIdx].resident:
		tier = "memory"
	case e.hold[tierDiskIdx].resident:
		tier = "disk"
	}
	rec := ArtifactRecord{
		ID:            e.id,
		Tier:          tier,
		Bytes:         e.bytes,
		Reuse:         e.reuse,
		MemoryHits:    e.memHits,
		DiskHits:      e.diskHits,
		SavedSec:      round9(e.savedSec),
		MemoryByteSec: round9(memBS),
		DiskByteSec:   round9(diskBS),
		RentSec:       round9(rent),
		NetSec:        round9(e.savedSec - rent),
		Quarantined:   e.quarantined,
		EventsDropped: e.events.Dropped(),
		Events:        e.events.Snapshot(),
	}
	return rec
}

// ArtifactQuery selects and orders records for export. The zero value
// returns every artifact sorted by net benefit (descending).
type ArtifactQuery struct {
	// SortBy orders the records: "net" (default), "saved", "rent",
	// "reuse", "bytes" — all descending with ID ascending as tiebreak —
	// or "id" (ascending).
	SortBy string
	// Top keeps only the first N records after sorting (0 keeps all).
	Top int
	// ID keeps only the artifact with exactly this vertex ID.
	ID string
}

// artifactSortKeys names the accepted SortBy values.
var artifactSortKeys = map[string]bool{
	"": true, "net": true, "saved": true, "rent": true,
	"reuse": true, "bytes": true, "id": true,
}

// ValidArtifactSort reports whether key is an accepted ArtifactQuery
// sort order.
func ValidArtifactSort(key string) bool { return artifactSortKeys[key] }

// Snapshot returns the selected records — a deterministic copy, safe to
// hold across further recording.
func (l *ArtifactLedger) Snapshot(q ArtifactQuery) []ArtifactRecord {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	now := l.now()
	out := make([]ArtifactRecord, 0, len(l.m))
	for _, e := range l.m {
		if q.ID != "" && e.id != q.ID {
			continue
		}
		out = append(out, l.recordLocked(e, now))
	}
	l.mu.Unlock()
	less := func(i, j int) bool { return out[i].ID < out[j].ID }
	key := func(r ArtifactRecord) float64 { return r.NetSec }
	switch q.SortBy {
	case "id":
		key = nil
	case "saved":
		key = func(r ArtifactRecord) float64 { return r.SavedSec }
	case "rent":
		key = func(r ArtifactRecord) float64 { return r.RentSec }
	case "reuse":
		key = func(r ArtifactRecord) float64 { return float64(r.Reuse) }
	case "bytes":
		key = func(r ArtifactRecord) float64 { return float64(r.Bytes) }
	}
	if key != nil {
		less = func(i, j int) bool {
			ki, kj := key(out[i]), key(out[j])
			if ki != kj {
				return ki > kj
			}
			return out[i].ID < out[j].ID
		}
	}
	sort.SliceStable(out, less)
	if q.Top > 0 && len(out) > q.Top {
		out = out[:q.Top]
	}
	return out
}

// Totals returns the aggregate economics across tracked artifacts.
// Quarantined artifacts are excluded — unloadable bytes neither earn
// savings nor owe further rent, and counting their history would let a
// corrupt file skew the net-benefit signal the eviction policy reads.
func (l *ArtifactLedger) Totals() (tracked int, saved, rent, net float64) {
	if l == nil {
		return 0, 0, 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	for _, e := range l.m {
		if e.quarantined {
			continue
		}
		tracked++
		r := e.hold[tierMemoryIdx].held(now)*l.rent["memory"] +
			e.hold[tierDiskIdx].held(now)*l.rent["disk"]
		saved += e.savedSec
		rent += r
	}
	saved, rent = round9(saved), round9(rent)
	return tracked, saved, rent, round9(saved - rent)
}

// ArtifactReport is the /v1/artifacts view: the ledger's records selected
// and ordered by one query, rendered on demand.
type ArtifactReport struct {
	led *ArtifactLedger
	q   ArtifactQuery
}

// Report binds a query to the ledger for rendering.
func (l *ArtifactLedger) Report(q ArtifactQuery) ArtifactReport {
	return ArtifactReport{led: l, q: q}
}

// ledgerExport is the JSON envelope of GET /v1/artifacts. count is the
// exported record count; tracked/saved_sec/rent_sec/net_sec summarize the
// whole table (quarantined artifacts excluded from the economics, see
// Totals).
type ledgerExport struct {
	Count     int              `json:"count"`
	Tracked   int              `json:"tracked"`
	Dropped   int64            `json:"dropped"`
	SavedSec  float64          `json:"saved_sec"`
	RentSec   float64          `json:"rent_sec"`
	NetSec    float64          `json:"net_sec"`
	Artifacts []ArtifactRecord `json:"artifacts"`
}

// WriteJSON renders the selected records as byte-stable JSON.
func (rep ArtifactReport) WriteJSON(w io.Writer) error {
	l := rep.led
	recs := l.Snapshot(rep.q)
	if recs == nil {
		recs = []ArtifactRecord{}
	}
	_, saved, rent, net := l.Totals()
	return WriteJSON(w, ledgerExport{
		Count:     len(recs),
		Tracked:   l.Len(),
		Dropped:   l.Dropped(),
		SavedSec:  saved,
		RentSec:   rent,
		NetSec:    net,
		Artifacts: recs,
	})
}

// topListTextK bounds the "top savers" / "top wasters" lists in the text
// report.
const topListTextK = 5

// WriteText renders the selected records as a fixed-width report: the
// aggregate economics, the per-artifact table, and top-saver/top-waster
// lists by net benefit.
func (rep ArtifactReport) WriteText(out io.Writer) error {
	l, q := rep.led, rep.q
	w := &strings.Builder{}
	recs := l.Snapshot(q)
	tracked, saved, rent, net := l.Totals()
	quarantined := l.Len() - tracked
	fmt.Fprintf(w, "artifacts: %d tracked (%d quarantined), %d dropped\n",
		l.Len(), quarantined, l.Dropped())
	fmt.Fprintf(w, "economics: saved %.6fs  rent %.6fs  net %+.6fs (quarantined excluded)\n\n",
		saved, rent, net)
	fmt.Fprintf(w, "%-20s %-7s %10s %6s %5s %5s %12s %12s %12s %6s\n",
		"ARTIFACT", "TIER", "BYTES", "REUSE", "MEM", "DISK", "SAVED_S", "RENT_S", "NET_S", "QUAR")
	for _, r := range recs {
		quar := ""
		if r.Quarantined {
			quar = "yes"
		}
		fmt.Fprintf(w, "%-20s %-7s %10d %6d %5d %5d %12.6f %12.6f %+12.6f %6s\n",
			r.ID, r.Tier, r.Bytes, r.Reuse, r.MemoryHits, r.DiskHits,
			r.SavedSec, r.RentSec, r.NetSec, quar)
	}
	byNet := l.Snapshot(ArtifactQuery{SortBy: "net", ID: q.ID})
	savers := make([]ArtifactRecord, 0, topListTextK)
	for _, r := range byNet {
		if r.NetSec > 0 && len(savers) < topListTextK {
			savers = append(savers, r)
		}
	}
	if len(savers) > 0 {
		fmt.Fprintf(w, "\ntop savers (net benefit):\n")
		for i, r := range savers {
			fmt.Fprintf(w, "  %d. %-20s net %+.6fs (saved %.6fs, rent %.6fs, reuse %d)\n",
				i+1, r.ID, r.NetSec, r.SavedSec, r.RentSec, r.Reuse)
		}
	}
	wasters := make([]ArtifactRecord, 0, topListTextK)
	for i := len(byNet) - 1; i >= 0 && len(wasters) < topListTextK; i-- {
		if r := byNet[i]; r.NetSec < 0 {
			wasters = append(wasters, r)
		}
	}
	if len(wasters) > 0 {
		fmt.Fprintf(w, "\ntop wasters (rent exceeding savings):\n")
		for i, r := range wasters {
			fmt.Fprintf(w, "  %d. %-20s net %+.6fs (saved %.6fs, rent %.6fs, reuse %d)\n",
				i+1, r.ID, r.NetSec, r.SavedSec, r.RentSec, r.Reuse)
		}
	}
	_, err := io.WriteString(out, w.String())
	return err
}

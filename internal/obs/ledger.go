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

// This file is the artifact ledger: a bounded per-artifact table of the
// storage economics the paper's central bet rests on — does the realized
// reuse saving of a materialized artifact cover the storage rent of keeping
// it around? The store manager reports where each artifact lives after
// every change of residency (Hold, Quarantine), the server's update path
// feeds per-reuse savings joined from planner predictions and client
// measurements (ObserveReuse), and the result is served at GET
// /v1/artifacts (`collab artifacts`) and summarized on /metrics and
// /v1/stats. ROADMAP item 4 (evict artifacts whose savings fall below their
// rent) reads this ledger as its input signal.

// DefaultLedgerCap bounds a NewArtifactLedger(0) ledger.
const DefaultLedgerCap = 512

// ArtifactRecord is the exported per-artifact view: identity, current
// residency and cumulative economics. Field order is the JSON contract.
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
}

// tierHold tracks one tier's residency for byte-second accrual.
type tierHold struct {
	resident bool
	bytes    int64
	since    time.Time
	byteSec  float64
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

// move closes the open residency window into the byte-second total and
// opens the next: resident or not, holding bytes.
func (h *tierHold) move(now time.Time, resident bool, bytes int64) {
	h.byteSec = h.held(now)
	h.resident, h.bytes, h.since = resident, bytes, now
}

const (
	tierMemoryIdx = 0
	tierDiskIdx   = 1
)

type ledgerEntry struct {
	bytes int64 // last known logical size
	// quarantined: the store's last word on the artifact was that its
	// stored content failed verification.
	quarantined bool

	reuse, memHits, diskHits int64
	savedSec                 float64
	hold                     [2]tierHold // memory, disk
}

// ArtifactLedger is a bounded, race-safe per-artifact storage-economics
// table. A nil ledger drops observations and serves empty snapshots, so
// instrumentation sites hold it without guards.
type ArtifactLedger struct {
	mu   sync.Mutex
	capN int
	now  func() time.Time
	// rent maps a tier label to its price in seconds of rent per
	// byte-second of residency (see SetRentRate).
	rent map[string]float64
	m    map[string]*ledgerEntry
	// dropped counts observations (Hold, Quarantine, ObserveReuse) of
	// artifacts the full table had no entry for — one per call, so an
	// untracked artifact taken through three transitions counts three.
	dropped int64
}

// NewArtifactLedger returns a ledger tracking at most n distinct
// artifacts (n <= 0 selects DefaultLedgerCap); observations of artifacts
// beyond the cap are dropped and counted, never partially tracked.
func NewArtifactLedger(n int) *ArtifactLedger {
	if n <= 0 {
		n = DefaultLedgerCap
	}
	return &ArtifactLedger{
		capN: n,
		now:  Timestamp,
		rent: make(map[string]float64, 2),
		m:    make(map[string]*ledgerEntry),
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
// room. Returns nil (and counts the refused observation) when the table is
// full.
func (l *ArtifactLedger) entryLocked(id string) *ledgerEntry {
	e := l.m[id]
	if e == nil {
		if len(l.m) >= l.capN {
			l.dropped++
			return nil
		}
		e = &ledgerEntry{}
		l.m[id] = e
	}
	return e
}

// Hold records where the artifact lives now: in the memory tier, in the
// disk tier, in both (the tiers are inclusive), or — neither — nowhere.
// bytes is its logical size when the caller knows it (0 keeps the last
// known size). The store manager calls it after every change of residency;
// between calls each tier accrues byte-seconds.
func (l *ArtifactLedger) Hold(id string, inMemory, onDisk bool, bytes int64) {
	l.record(id, inMemory, onDisk, false, bytes)
}

// Quarantine records that the artifact's stored content failed checksum or
// decode verification and was set aside: it is resident nowhere, and it
// drops out of the economics totals — unloadable bytes earn no savings —
// until the store holds it again.
func (l *ArtifactLedger) Quarantine(id string) {
	l.record(id, false, false, true, 0)
}

func (l *ArtifactLedger) record(id string, inMemory, onDisk, quarantined bool, bytes int64) {
	if l == nil || id == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entryLocked(id)
	if e == nil {
		return
	}
	if bytes > 0 {
		e.bytes = bytes
	}
	now := l.now()
	e.hold[tierMemoryIdx].move(now, inMemory, e.bytes)
	e.hold[tierDiskIdx].move(now, onDisk, e.bytes)
	e.quarantined = quarantined
}

// ObserveReuse records one reuse of the artifact: tier names the tier the
// fetch was served from ("memory", "disk", "remote", or "" when the
// client did not measure), and savedSec is the realized saving — the
// recreation cost Cr(v) the reuse avoided minus the measured fetch time,
// in seconds (0 for unmeasured reuses; negative when the fetch cost more
// than recomputation would have). The server's update path calls this
// while joining planner predictions with client measurements.
func (l *ArtifactLedger) ObserveReuse(id, tier string, bytes int64, savedSec float64) {
	if l == nil || id == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	e := l.entryLocked(id)
	if e == nil {
		return
	}
	if bytes > 0 {
		e.bytes = bytes
	}
	switch tier {
	case "memory":
		e.memHits++
	case "disk":
		e.diskHits++
	}
	e.reuse++
	if !math.IsNaN(savedSec) && !math.IsInf(savedSec, 0) {
		e.savedSec += savedSec
	}
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

// Dropped returns how many observations were refused because the table
// was full and had no entry for their artifact.
func (l *ArtifactLedger) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// round9 trims float accumulation noise to nanosecond-ish precision so
// exported values are readable and byte-stable under a fixed clock.
func round9(x float64) float64 {
	return math.Round(x*1e9) / 1e9
}

// recordLocked builds the export view of one entry, accruing open
// residency windows up to now without mutating the entry.
func (l *ArtifactLedger) recordLocked(id string, e *ledgerEntry, now time.Time) ArtifactRecord {
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
	return ArtifactRecord{
		ID:            id,
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
	}
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
	for id, e := range l.m {
		if q.ID != "" && id != q.ID {
			continue
		}
		out = append(out, l.recordLocked(id, e, now))
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
// Totals); dropped counts observations the full table refused (Dropped).
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

package obs

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClockLedger returns a ledger with a controllable clock and simple
// rent rates (memory 0.001 s per byte-second, disk 0.01) so expected
// economics are easy to compute by hand.
func fakeClockLedger(t *testing.T, capN int) (*ArtifactLedger, *time.Time) {
	t.Helper()
	l := NewArtifactLedger(capN)
	now := time.Unix(1700000000, 0).UTC()
	l.SetClock(func() time.Time { return now })
	l.SetRentRate("memory", 0.001)
	l.SetRentRate("disk", 0.01)
	return l, &now
}

func TestLedgerLifecycleEconomics(t *testing.T) {
	l, now := fakeClockLedger(t, 8)

	// Materialize 100 bytes, hold in memory for 10s.
	l.Event("v1", ArtifactMaterialized, "memory", 100, "req-1")
	*now = now.Add(10 * time.Second)
	// Three measured memory reuses, 0.5s saved each.
	for i := 0; i < 3; i++ {
		l.ObserveReuse("v1", "memory", 100, 0.5, fmt.Sprintf("req-%d", i+2))
	}
	// Demote: memory residency ends, disk starts. 20s on disk.
	l.Event("v1", ArtifactDemoted, "disk", 100, "")
	*now = now.Add(20 * time.Second)
	// Disk hit + promotion back to memory; 5s in both tiers (inclusive).
	l.ObserveReuse("v1", "disk", 100, 0.2, "req-5")
	l.Event("v1", ArtifactPromoted, "memory", 100, "req-5")
	*now = now.Add(5 * time.Second)
	// Evicted from every tier.
	l.Event("v1", ArtifactEvicted, "", 100, "")
	*now = now.Add(100 * time.Second) // post-eviction time accrues nothing

	recs := l.Snapshot(ArtifactQuery{})
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.ID != "v1" || r.Tier != "none" || r.Bytes != 100 {
		t.Fatalf("record = %+v", r)
	}
	if r.Reuse != 4 || r.MemoryHits != 3 || r.DiskHits != 1 {
		t.Fatalf("reuse counts = %d/%d/%d, want 4/3/1", r.Reuse, r.MemoryHits, r.DiskHits)
	}
	if want := 1.7; math.Abs(r.SavedSec-want) > 1e-9 {
		t.Fatalf("saved = %v, want %v", r.SavedSec, want)
	}
	// Memory: 10s + 5s = 15s x 100B = 1500 byte-sec; disk: 20s + 5s = 25s
	// x 100B = 2500 byte-sec.
	if want := 1500.0; math.Abs(r.MemoryByteSec-want) > 1e-9 {
		t.Fatalf("memory byte-sec = %v, want %v", r.MemoryByteSec, want)
	}
	if want := 2500.0; math.Abs(r.DiskByteSec-want) > 1e-9 {
		t.Fatalf("disk byte-sec = %v, want %v", r.DiskByteSec, want)
	}
	wantRent := 1500*0.001 + 2500*0.01
	if math.Abs(r.RentSec-wantRent) > 1e-9 {
		t.Fatalf("rent = %v, want %v", r.RentSec, wantRent)
	}
	if math.Abs(r.NetSec-(1.7-wantRent)) > 1e-9 {
		t.Fatalf("net = %v, want %v", r.NetSec, 1.7-wantRent)
	}
	// Event ring: 8-cap holds all 8 events of this lifecycle.
	kinds := make([]string, 0, len(r.Events))
	for _, ev := range r.Events {
		kinds = append(kinds, ev.Kind)
	}
	want := []string{"materialized", "memory-hit", "memory-hit", "memory-hit",
		"demoted", "disk-hit", "promoted", "evicted"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	if r.Events[0].RequestID != "req-1" || r.Events[5].RequestID != "req-5" {
		t.Fatalf("request IDs not carried: %+v", r.Events)
	}
}

func TestLedgerQuarantineExcludedFromTotals(t *testing.T) {
	l, now := fakeClockLedger(t, 8)
	l.Event("good", ArtifactMaterialized, "memory", 10, "")
	l.ObserveReuse("good", "memory", 10, 2.0, "")
	l.Event("bad", ArtifactRecovered, "disk", 10, "")
	*now = now.Add(10 * time.Second)
	l.Event("bad", ArtifactQuarantined, "disk", 0, "")

	tracked, saved, rent, net := l.Totals()
	if tracked != 1 {
		t.Fatalf("tracked = %d, want 1 (quarantined excluded)", tracked)
	}
	wantRent := 10 * 10 * 0.001 // good's memory residency only
	if math.Abs(saved-2.0) > 1e-9 || math.Abs(rent-wantRent) > 1e-9 ||
		math.Abs(net-(2.0-wantRent)) > 1e-9 {
		t.Fatalf("totals = %v/%v/%v", saved, rent, net)
	}
	// The quarantined artifact still appears in the snapshot, flagged.
	recs := l.Snapshot(ArtifactQuery{ID: "bad"})
	if len(recs) != 1 || !recs[0].Quarantined || recs[0].Tier != "none" {
		t.Fatalf("quarantined record = %+v", recs)
	}
	if got := l.EventCount(ArtifactQuarantined); got != 1 {
		t.Fatalf("quarantined event count = %d, want 1", got)
	}
}

func TestLedgerBoundedAndRing(t *testing.T) {
	l, _ := fakeClockLedger(t, 2)
	l.Event("a", ArtifactMaterialized, "memory", 1, "")
	l.Event("b", ArtifactMaterialized, "memory", 1, "")
	l.Event("c", ArtifactMaterialized, "memory", 1, "") // over cap: dropped
	if l.Len() != 2 || l.Dropped() != 1 {
		t.Fatalf("len=%d dropped=%d, want 2/1", l.Len(), l.Dropped())
	}
	// Overflow the per-artifact event ring: oldest events scroll out.
	for i := 0; i < ledgerEventCap+3; i++ {
		l.ObserveReuse("a", "memory", 1, 0.1, fmt.Sprintf("r%d", i))
	}
	recs := l.Snapshot(ArtifactQuery{ID: "a"})
	r := recs[0]
	if len(r.Events) != ledgerEventCap {
		t.Fatalf("ring holds %d events, want %d", len(r.Events), ledgerEventCap)
	}
	if r.EventsDropped != 4 { // materialized + 11 reuses - 8 kept
		t.Fatalf("events dropped = %d, want 4", r.EventsDropped)
	}
	// Ring is oldest-first and sequential.
	for i := 1; i < len(r.Events); i++ {
		if r.Events[i].Seq <= r.Events[i-1].Seq {
			t.Fatalf("events out of order: %+v", r.Events)
		}
	}
	// Economics survive the ring overflow.
	if r.Reuse != 11 || math.Abs(r.SavedSec-1.1) > 1e-9 {
		t.Fatalf("reuse=%d saved=%v, want 11/1.1", r.Reuse, r.SavedSec)
	}
}

func TestLedgerSortFilterTop(t *testing.T) {
	l, _ := fakeClockLedger(t, 8)
	l.Event("a", ArtifactMaterialized, "memory", 300, "")
	l.ObserveReuse("a", "memory", 300, 1.0, "")
	l.Event("b", ArtifactMaterialized, "memory", 100, "")
	l.ObserveReuse("b", "memory", 100, 3.0, "")
	l.ObserveReuse("b", "memory", 100, 0.0, "")
	l.Event("c", ArtifactMaterialized, "memory", 200, "")

	ids := func(recs []ArtifactRecord) string {
		s := ""
		for _, r := range recs {
			s += r.ID
		}
		return s
	}
	if got := ids(l.Snapshot(ArtifactQuery{})); got != "bac" { // net desc
		t.Fatalf("default sort = %q, want bac", got)
	}
	if got := ids(l.Snapshot(ArtifactQuery{SortBy: "id"})); got != "abc" {
		t.Fatalf("id sort = %q, want abc", got)
	}
	if got := ids(l.Snapshot(ArtifactQuery{SortBy: "bytes"})); got != "acb" {
		t.Fatalf("bytes sort = %q, want acb", got)
	}
	if got := ids(l.Snapshot(ArtifactQuery{SortBy: "reuse"})); got != "bac" {
		t.Fatalf("reuse sort = %q, want bac", got)
	}
	if got := ids(l.Snapshot(ArtifactQuery{SortBy: "saved", Top: 1})); got != "b" {
		t.Fatalf("top-1 saved = %q, want b", got)
	}
	if got := ids(l.Snapshot(ArtifactQuery{ID: "c"})); got != "c" {
		t.Fatalf("id filter = %q, want c", got)
	}
	if !ValidArtifactSort("net") || !ValidArtifactSort("") || ValidArtifactSort("bogus") {
		t.Fatal("ValidArtifactSort vocabulary wrong")
	}
}

func TestLedgerNilAndDefaults(t *testing.T) {
	var l *ArtifactLedger
	l.Event("x", ArtifactMaterialized, "memory", 1, "") // must not panic
	l.ObserveReuse("x", "memory", 1, 1, "")
	l.SetClock(time.Now)
	l.SetRentRate("memory", 1)
	if l.Len() != 0 || l.Cap() != 0 || l.Dropped() != 0 ||
		l.Snapshot(ArtifactQuery{}) != nil || l.ReuseTotal() != 0 {
		t.Fatal("nil ledger must be inert")
	}
	if tr, s, r, n := l.Totals(); tr != 0 || s != 0 || r != 0 || n != 0 {
		t.Fatal("nil totals must be zero")
	}
	var buf bytes.Buffer
	if err := l.Report(ArtifactQuery{}).WriteJSON(&buf); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	if err := l.Report(ArtifactQuery{}).WriteText(&buf); err != nil {
		t.Fatalf("nil WriteText: %v", err)
	}

	l = NewArtifactLedger(0)
	if l.Cap() != DefaultLedgerCap {
		t.Fatalf("default cap = %d, want %d", l.Cap(), DefaultLedgerCap)
	}
	l.Event("", ArtifactMaterialized, "memory", 1, "") // empty id ignored
	if l.Len() != 0 {
		t.Fatal("empty artifact ID must be ignored")
	}
	// NaN/Inf savings must not poison the accumulator.
	l.ObserveReuse("v", "memory", 1, math.NaN(), "")
	l.ObserveReuse("v", "memory", 1, math.Inf(1), "")
	l.ObserveReuse("v", "memory", 1, 0.5, "")
	if recs := l.Snapshot(ArtifactQuery{}); math.Abs(recs[0].SavedSec-0.5) > 1e-9 {
		t.Fatalf("saved = %v, want 0.5", recs[0].SavedSec)
	}
}

func TestLedgerConcurrent(t *testing.T) {
	l := NewArtifactLedger(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("v%d", g%4)
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					l.Event(id, ArtifactMaterialized, "memory", 64, "")
				case 1:
					l.ObserveReuse(id, "memory", 64, 0.001, "r")
				case 2:
					l.Event(id, ArtifactDemoted, "disk", 64, "")
				default:
					l.Event(id, ArtifactEvicted, "", 64, "")
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != 4 {
		t.Fatalf("tracked %d artifacts, want 4", l.Len())
	}
	var buf bytes.Buffer
	if err := l.Report(ArtifactQuery{}).WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON after concurrency: %v", err)
	}
}

func TestLedgerReuseTotalAndEventCounts(t *testing.T) {
	l, _ := fakeClockLedger(t, 8)
	l.Event("v", ArtifactMaterialized, "memory", 1, "")
	l.ObserveReuse("v", "memory", 1, 0, "")
	l.ObserveReuse("v", "disk", 1, 0, "")
	l.ObserveReuse("v", "", 1, 0, "") // unmeasured
	if got := l.ReuseTotal(); got != 3 {
		t.Fatalf("reuse total = %d, want 3", got)
	}
	for kind, want := range map[string]int64{
		ArtifactMaterialized: 1, ArtifactMemoryHit: 1,
		ArtifactDiskHit: 1, ArtifactReuse: 1, ArtifactEvicted: 0,
	} {
		if got := l.EventCount(kind); got != want {
			t.Fatalf("EventCount(%s) = %d, want %d", kind, got, want)
		}
	}
}

// canonicalLedger replays the canonical scripted artifact lifecycle —
// materialize → three reuses → demote → disk hit with promotion → evict,
// plus a quarantined artifact and an unmeasured reuse — against a fixed
// clock and fixed rent rates, so its renderings are byte-stable by
// construction.
func canonicalLedger() *ArtifactLedger {
	l := NewArtifactLedger(0)
	now := time.Unix(1700000000, 0).UTC()
	l.SetClock(func() time.Time { return now })
	// A 100 MB/s tier with a 60 s horizon: 1 byte-second costs
	// 1/(100e6*60) seconds of rent; memory is 10x cheaper.
	l.SetRentRate("memory", 1.0/(1000e6*60))
	l.SetRentRate("disk", 1.0/(100e6*60))

	const mb = 1 << 20
	l.Event("ds-features", ArtifactMaterialized, "memory", 4*mb, "req-001")
	now = now.Add(10 * time.Second)
	l.ObserveReuse("ds-features", "memory", 4*mb, 0.095, "req-002")
	now = now.Add(5 * time.Second)
	l.ObserveReuse("ds-features", "memory", 4*mb, 0.097, "req-003")
	now = now.Add(5 * time.Second)
	l.ObserveReuse("ds-features", "memory", 4*mb, 0.094, "req-004")
	now = now.Add(10 * time.Second)
	l.Event("ds-features", ArtifactDemoted, "disk", 4*mb, "")
	now = now.Add(30 * time.Second)
	l.ObserveReuse("ds-features", "disk", 4*mb, 0.061, "req-005")
	l.Event("ds-features", ArtifactPromoted, "memory", 4*mb, "req-005")
	now = now.Add(10 * time.Second)
	l.Event("ds-features", ArtifactEvicted, "", 0, "")

	l.Event("model-gbt", ArtifactMaterialized, "memory", 12*mb, "req-001")
	now = now.Add(20 * time.Second)
	l.ObserveReuse("model-gbt", "", 12*mb, 0, "req-006")
	now = now.Add(10 * time.Second)
	l.Event("model-gbt", ArtifactDemoted, "disk", 12*mb, "")

	l.Event("ds-stale", ArtifactRecovered, "disk", 2*mb, "")
	now = now.Add(30 * time.Second)
	l.Event("ds-stale", ArtifactQuarantined, "disk", 0, "")
	return l
}

// TestCanonicalLedgerGolden pins the byte-stable JSON and text renderings
// of the canonical scripted lifecycle.
func TestCanonicalLedgerGolden(t *testing.T) {
	for _, tc := range []struct {
		name   string
		golden string
		render func(rep ArtifactReport, buf *bytes.Buffer) error
	}{
		{"json", "artifacts.json", func(rep ArtifactReport, buf *bytes.Buffer) error { return rep.WriteJSON(buf) }},
		{"text", "artifacts.txt", func(rep ArtifactReport, buf *bytes.Buffer) error { return rep.WriteText(buf) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Byte-stability: two renders of fresh canonical ledgers are
			// identical.
			var buf, again bytes.Buffer
			for _, b := range []*bytes.Buffer{&buf, &again} {
				if err := tc.render(canonicalLedger().Report(ArtifactQuery{}), b); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(buf.Bytes(), again.Bytes()) {
				t.Fatal("canonical ledger output is not byte-stable across renders")
			}
			golden := filepath.Join("testdata", tc.golden)
			if *update {
				if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s drifted from golden file.\ngot:\n%s\nwant:\n%s", tc.golden, buf.Bytes(), want)
			}
		})
	}
}

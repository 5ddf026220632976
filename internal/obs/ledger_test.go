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
	l.Hold("v1", true, false, 100)
	*now = now.Add(10 * time.Second)
	// Three measured memory reuses, 0.5s saved each.
	for i := 0; i < 3; i++ {
		l.ObserveReuse("v1", "memory", 100, 0.5)
	}
	// Demote: memory residency ends, disk starts. 20s on disk.
	l.Hold("v1", false, true, 100)
	*now = now.Add(20 * time.Second)
	// Disk hit + promotion back to memory; 5s in both tiers (inclusive).
	l.ObserveReuse("v1", "disk", 100, 0.2)
	l.Hold("v1", true, true, 100)
	*now = now.Add(5 * time.Second)
	// Evicted from every tier.
	l.Hold("v1", false, false, 100)
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
}

func TestLedgerQuarantineExcludedFromTotals(t *testing.T) {
	l, now := fakeClockLedger(t, 8)
	l.Hold("good", true, false, 10)
	l.ObserveReuse("good", "memory", 10, 2.0)
	l.Hold("bad", false, true, 10)
	*now = now.Add(10 * time.Second)
	l.Quarantine("bad")

	tracked, saved, rent, net := l.Totals()
	if tracked != 1 {
		t.Fatalf("tracked = %d, want 1 (quarantined excluded)", tracked)
	}
	wantRent := 10 * 10 * 0.001 // good's memory residency only
	if math.Abs(saved-2.0) > 1e-9 || math.Abs(rent-wantRent) > 1e-9 ||
		math.Abs(net-(2.0-wantRent)) > 1e-9 {
		t.Fatalf("totals = %v/%v/%v", saved, rent, net)
	}
	// The quarantined artifact still appears in the snapshot, flagged, its
	// disk residency ended by the quarantine.
	recs := l.Snapshot(ArtifactQuery{ID: "bad"})
	if len(recs) != 1 || !recs[0].Quarantined || recs[0].Tier != "none" || recs[0].DiskByteSec != 100 {
		t.Fatalf("quarantined record = %+v", recs)
	}
	// Stored again, it is loadable again and counts again.
	l.Hold("bad", true, false, 10)
	if tracked, _, _, _ := l.Totals(); tracked != 2 {
		t.Fatalf("tracked = %d after the artifact was stored again, want 2", tracked)
	}
}

// TestLedgerBoundedCountsRefusedObservations: a full table tracks no new
// artifact, and dropped counts every observation it refused — one per call,
// so an untracked artifact taken through three transitions counts three.
func TestLedgerBoundedCountsRefusedObservations(t *testing.T) {
	l, _ := fakeClockLedger(t, 2)
	l.Hold("a", true, false, 1)
	l.Hold("b", true, false, 1)
	l.Hold("c", true, false, 1) // over cap: refused
	l.Hold("c", false, true, 1)
	l.Quarantine("c")
	if l.Len() != 2 || l.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d, want 2/3", l.Len(), l.Dropped())
	}
	l.ObserveReuse("c", "memory", 1, 0.1)
	if l.Dropped() != 4 {
		t.Fatalf("dropped=%d after a reuse of the untracked artifact, want 4", l.Dropped())
	}
	// Tracked artifacts keep accumulating.
	for i := 0; i < 11; i++ {
		l.ObserveReuse("a", "memory", 1, 0.1)
	}
	if r := l.Snapshot(ArtifactQuery{ID: "a"})[0]; r.Reuse != 11 || math.Abs(r.SavedSec-1.1) > 1e-9 {
		t.Fatalf("reuse=%d saved=%v, want 11/1.1", r.Reuse, r.SavedSec)
	}
	var buf bytes.Buffer
	if err := l.Report(ArtifactQuery{}).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"dropped": 4,`)) {
		t.Fatalf("export does not carry the refused observations:\n%s", buf.Bytes())
	}
}

func TestLedgerSortFilterTop(t *testing.T) {
	l, _ := fakeClockLedger(t, 8)
	l.Hold("a", true, false, 300)
	l.ObserveReuse("a", "memory", 300, 1.0)
	l.Hold("b", true, false, 100)
	l.ObserveReuse("b", "memory", 100, 3.0)
	l.ObserveReuse("b", "memory", 100, 0.0)
	l.Hold("c", true, false, 200)

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
	l.Hold("x", true, false, 1) // must not panic
	l.Quarantine("x")
	l.ObserveReuse("x", "memory", 1, 1)
	l.SetClock(time.Now)
	l.SetRentRate("memory", 1)
	if l.Len() != 0 || l.Cap() != 0 || l.Dropped() != 0 || l.Snapshot(ArtifactQuery{}) != nil {
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
	l.Hold("", true, false, 1) // empty id ignored
	if l.Len() != 0 {
		t.Fatal("empty artifact ID must be ignored")
	}
	// NaN/Inf savings must not poison the accumulator.
	l.ObserveReuse("v", "memory", 1, math.NaN())
	l.ObserveReuse("v", "memory", 1, math.Inf(1))
	l.ObserveReuse("v", "memory", 1, 0.5)
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
					l.Hold(id, true, false, 64)
				case 1:
					l.ObserveReuse(id, "memory", 64, 0.001)
				case 2:
					l.Hold(id, false, true, 64)
				default:
					l.Hold(id, false, false, 64)
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
	l.Hold("ds-features", true, false, 4*mb)
	now = now.Add(10 * time.Second)
	l.ObserveReuse("ds-features", "memory", 4*mb, 0.095)
	now = now.Add(5 * time.Second)
	l.ObserveReuse("ds-features", "memory", 4*mb, 0.097)
	now = now.Add(5 * time.Second)
	l.ObserveReuse("ds-features", "memory", 4*mb, 0.094)
	now = now.Add(10 * time.Second)
	l.Hold("ds-features", false, true, 4*mb)
	now = now.Add(30 * time.Second)
	l.ObserveReuse("ds-features", "disk", 4*mb, 0.061)
	l.Hold("ds-features", true, true, 4*mb)
	now = now.Add(10 * time.Second)
	l.Hold("ds-features", false, false, 0)

	l.Hold("model-gbt", true, false, 12*mb)
	now = now.Add(20 * time.Second)
	l.ObserveReuse("model-gbt", "", 12*mb, 0)
	now = now.Add(10 * time.Second)
	l.Hold("model-gbt", false, true, 12*mb)

	l.Hold("ds-stale", false, true, 2*mb)
	now = now.Add(30 * time.Second)
	l.Quarantine("ds-stale")
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

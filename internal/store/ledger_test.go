package store

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tier"
)

// attachTestLedger attaches a ledger on a scripted clock; advance moves it.
func attachTestLedger(t *testing.T, m *Manager) (led *obs.ArtifactLedger, advance func(time.Duration)) {
	t.Helper()
	led = obs.NewArtifactLedger(32)
	now := time.Unix(1700000000, 0).UTC()
	led.SetClock(func() time.Time { return now })
	m.AttachLedger(led)
	return led, func(d time.Duration) { now = now.Add(d) }
}

// record returns the ledger's record of one artifact (zero when untracked).
func record(led *obs.ArtifactLedger, id string) obs.ArtifactRecord {
	if recs := led.Snapshot(obs.ArtifactQuery{ID: id}); len(recs) == 1 {
		return recs[0]
	}
	return obs.ArtifactRecord{}
}

// TestLedgerTracksStoreLifecycle walks one artifact through every store
// transition and checks the ledger held it where the store did, for as
// long as the store did.
func TestLedgerTracksStoreLifecycle(t *testing.T) {
	d := newDisk(t)
	m := NewTiered(cost.Memory(), Options{Disk: d})
	led, advance := attachTestLedger(t, m)

	if err := m.Put("v1", floatArtifact("v1", 10)); err != nil {
		t.Fatal(err)
	}
	if r := record(led, "v1"); r.Tier != "memory" || r.Bytes != 80 {
		t.Fatalf("after Put: %+v, want memory, 80 bytes", r)
	}
	advance(10 * time.Second)
	if err := m.Demote("v1"); err != nil {
		t.Fatal(err)
	}
	if r := record(led, "v1"); r.Tier != "disk" {
		t.Fatalf("after Demote: tier %s, want disk", r.Tier)
	}
	advance(10 * time.Second)
	// A disk hit promotes back to memory; the disk copy stays (inclusive).
	if a, tr := m.Get("v1"); a == nil || tr != TierDisk {
		t.Fatalf("Get = %v, %v; want disk hit", a, tr)
	}
	if r := record(led, "v1"); r.Tier != "memory" {
		t.Fatalf("after the promotion: tier %s, want memory", r.Tier)
	}
	advance(5 * time.Second)
	m.Evict("v1")
	advance(time.Hour) // nothing accrues after the eviction

	r := record(led, "v1")
	if r.Tier != "none" || r.Bytes != 80 {
		t.Fatalf("post-eviction record = %+v, want tier none, 80 bytes", r)
	}
	// Memory 10 s + 5 s, disk 10 s + 5 s (both tiers after the promotion).
	if r.MemoryByteSec != 15*80 || r.DiskByteSec != 15*80 {
		t.Fatalf("byte-seconds memory %v, disk %v; want %d each", r.MemoryByteSec, r.DiskByteSec, 15*80)
	}
}

// TestLedgerSeesBudgetPressure: demotions and hard evictions forced by
// budget enforcement reach the ledger even though no caller asked for them.
func TestLedgerSeesBudgetPressure(t *testing.T) {
	d := newDisk(t)
	m := NewTiered(cost.Memory(), Options{MemoryBudget: 160, Disk: d})
	led, _ := attachTestLedger(t, m)
	for _, id := range []string{"v1", "v2", "v3"} {
		if err := m.Put(id, floatArtifact(id, 10)); err != nil {
			t.Fatal(err)
		}
	}
	// v1 was coldest → demoted by the budget sweep.
	for id, want := range map[string]string{"v1": "disk", "v2": "memory", "v3": "memory"} {
		if got := record(led, id).Tier; got != want {
			t.Fatalf("%s tier = %s, want %s", id, got, want)
		}
	}

	// Without a disk tier the same pressure hard-evicts instead.
	m2 := NewTiered(cost.Memory(), Options{MemoryBudget: 160})
	led2, _ := attachTestLedger(t, m2)
	for _, id := range []string{"v1", "v2", "v3"} {
		if err := m2.Put(id, floatArtifact(id, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if r := record(led2, "v1"); r.Tier != "none" || r.Bytes != 80 {
		t.Fatalf("v1 = %+v, want tier none, 80 bytes", r)
	}
}

// TestLedgerRecoverySeeding: attaching a ledger to a store whose disk tier
// recovered prior content rebuilds ledger entries for the survivors where
// they live, so restart does not blind the economics.
func TestLedgerRecoverySeeding(t *testing.T) {
	dir := t.TempDir()
	d, _, err := tier.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewTiered(cost.Memory(), Options{Disk: d})
	if err := m.Put("v1", floatArtifact("v1", 10)); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}

	// Simulated restart: reopen the tier, build a fresh manager, attach.
	d2, rep, err := tier.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Frames != 1 {
		t.Fatalf("recovery report = %+v, want 1 frame", rep)
	}
	m2 := NewTiered(cost.Memory(), Options{Disk: d2})
	led, _ := attachTestLedger(t, m2)
	if r := record(led, "v1"); r.Tier != "disk" || r.Bytes != d2.LogicalSize("v1") {
		t.Fatalf("recovered record = %+v", r)
	}
	// Memory-resident content at attach time seeds in memory.
	m3 := New(cost.Memory())
	if err := m3.Put("v2", floatArtifact("v2", 10)); err != nil {
		t.Fatal(err)
	}
	led3, _ := attachTestLedger(t, m3)
	if r := record(led3, "v2"); r.Tier != "memory" || r.Bytes != 80 {
		t.Fatalf("v2 after attach = %+v, want memory, 80 bytes", r)
	}
}

// TestLedgerQuarantineOnRuntimeCorruption: a disk fetch that trips checksum
// verification quarantines the artifact, the ledger records it, and the
// quarantined entry drops out of the economics totals.
func TestLedgerQuarantineOnRuntimeCorruption(t *testing.T) {
	dir := t.TempDir()
	d, _, err := tier.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewTiered(cost.Memory(), Options{Disk: d})
	led, _ := attachTestLedger(t, m)
	if err := m.Put("m1", &graph.AggregateArtifact{Value: 7}); err != nil {
		t.Fatal(err)
	}
	if err := m.Demote("m1"); err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored blob behind the tier's back.
	blobs, err := filepath.Glob(filepath.Join(dir, "blobs", "*"))
	if err != nil || len(blobs) != 1 {
		t.Fatalf("blob files = %v (%v)", blobs, err)
	}
	b, err := os.ReadFile(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(blobs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}

	if a, tr := m.Get("m1"); a != nil || tr != TierNone {
		t.Fatalf("Get on corrupt artifact = %v, %v; want miss", a, tr)
	}
	if r := record(led, "m1"); !r.Quarantined || r.Tier != "none" {
		t.Fatalf("record = %+v, want quarantined, tier none", r)
	}
	tracked, _, _, _ := led.Totals()
	if tracked != 0 {
		t.Fatalf("totals track %d artifacts, want 0 (quarantined excluded)", tracked)
	}
}

// TestQuickLedgerResidencyIsTheStores drives a tiered store whose memory
// budget demotes through random sequences of Put, PutFrameRef, Get (which
// promotes), Evict and Sync, one second of scripted ledger clock per step.
// After every step each artifact's ledger tier is the store's — memory
// wins, "none" once evicted — and its byte-seconds per tier are the sum,
// over the steps it was resident there, of its bytes times the step.
func TestQuickLedgerResidencyIsTheStores(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := make([]*data.Column, 6)
		for j := range pool {
			pool[j] = data.NewFloatColumn(fmt.Sprintf("c%d", j), make([]float64, 8))
		}
		colSize := pool[0].SizeBytes()
		d, _, err := tier.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		m := NewTiered(cost.Memory(), Options{Disk: d, MemoryBudget: 3 * colSize})
		led, advance := attachTestLedger(t, m)
		size := map[string]int64{}          // logical bytes of each artifact's last content
		byteSec := map[string]*[2]float64{} // reference byte-seconds, memory and disk
		for step := 0; step < 50; step++ {
			id := fmt.Sprintf("v%d", rng.Intn(6))
			var cols []*data.Column
			for _, c := range pool {
				if rng.Intn(2) == 0 {
					cols = append(cols, c)
				}
			}
			if len(cols) == 0 {
				cols = pool[:1]
			}
			frame := data.MustNewFrame(cols...)
			switch op := rng.Intn(6); {
			case op <= 1 && !m.Has(id):
				if err := m.Put(id, &graph.DatasetArtifact{Frame: frame}); err != nil {
					t.Fatal(err)
				}
				size[id] = frame.SizeBytes()
			case op == 2 && !m.Has(id):
				ids := frame.ColumnIDs()
				held := map[int]bool{}
				for _, i := range m.HeldColumns(ids) {
					held[i] = true
				}
				var supplied []*data.Column
				for i, c := range frame.Columns() {
					if !held[i] {
						supplied = append(supplied, c)
					}
				}
				if err := m.PutFrameRef(id, ids, frame.ColumnNames(), supplied); err != nil {
					t.Fatal(err)
				}
				size[id] = frame.SizeBytes()
			case op == 3:
				m.Get(id)
			case op == 4:
				m.Evict(id)
			case op == 5:
				if err := m.Sync(); err != nil {
					t.Fatal(err)
				}
			}
			advance(time.Second)
			for id, sz := range size {
				bs := byteSec[id]
				if bs == nil {
					bs = &[2]float64{}
					byteSec[id] = bs
				}
				st := m.TierOf(id)
				if st == TierMemory {
					bs[0] += float64(sz)
				}
				if d.Has(id) {
					bs[1] += float64(sz)
				}
				r := record(led, id)
				if r.Tier != st.String() || r.MemoryByteSec != bs[0] || r.DiskByteSec != bs[1] {
					t.Logf("seed %d step %d: %s is %s in the store, ledger %+v, want byte-seconds %v",
						seed, step, id, st, r, *bs)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTierCountsInclusive(t *testing.T) {
	d := newDisk(t)
	m := NewTiered(cost.Memory(), Options{Disk: d})
	for _, id := range []string{"v1", "v2", "v3"} {
		if err := m.Put(id, floatArtifact(id, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Demote("v1"); err != nil {
		t.Fatal(err)
	}
	// Promote v1 back: inclusive tiers keep the disk copy, so it counts in
	// both tiers.
	if a, _ := m.Get("v1"); a == nil {
		t.Fatal("v1 lost")
	}
	mem, disk := m.TierCounts()
	if mem != 3 || disk != 1 {
		t.Fatalf("TierCounts = %d/%d, want 3 memory, 1 disk", mem, disk)
	}
}

func TestRentRate(t *testing.T) {
	p := cost.Memory()
	want := 1 / (p.BytesPerSecond * RentHorizonSeconds)
	if got := RentRate(p); got != want {
		t.Fatalf("RentRate(memory) = %v, want %v", got, want)
	}
	if RentRate(cost.Profile{}) != 0 {
		t.Fatal("RentRate of a zero profile must be 0, not Inf")
	}
	// Slower tiers charge more rent per byte-second: holding bytes you
	// could cheaply re-load is cheap; holding bytes on slow media is not.
	if RentRate(cost.Disk()) <= RentRate(cost.Memory()) {
		t.Fatal("disk rent rate should exceed memory rent rate")
	}
}

// TestLedgerDetached: a store without a ledger runs every transition with
// no tracking and no panic, and AttachLedger(nil) detaches cleanly.
func TestLedgerDetached(t *testing.T) {
	d := newDisk(t)
	m := NewTiered(cost.Memory(), Options{Disk: d})
	if m.Ledger() != nil {
		t.Fatal("fresh manager should have no ledger")
	}
	if err := m.Put("v1", floatArtifact("v1", 10)); err != nil {
		t.Fatal(err)
	}
	led, _ := attachTestLedger(t, m)
	m.AttachLedger(nil)
	if m.Ledger() != nil {
		t.Fatal("AttachLedger(nil) should detach")
	}
	m.Evict("v1")
	if got := record(led, "v1").Tier; got != "memory" {
		t.Fatalf("detached ledger moved v1 to %s: it is still being told", got)
	}
}

// ledgerArm is one arm of the ledger's cost on the store's write path; a call
// takes the named artifact through a full residency cycle — admitted, read,
// evicted — which an attached ledger is told about twice.
type ledgerArm struct {
	name  string
	cycle func(id string) error
}

// ledgerArms are a manager that never had a ledger, one whose ledger was
// detached again (the state WithArtifactLedger(nil) leaves a server's store
// in) and one with a ledger attached.
func ledgerArms() []ledgerArm {
	a := benchFrame("v", 1<<10)
	arm := func(name string, attach ...*obs.ArtifactLedger) ledgerArm {
		m := NewTiered(cost.Memory(), Options{})
		for _, led := range attach {
			m.AttachLedger(led)
		}
		return ledgerArm{name, func(id string) error {
			if err := m.Put(id, a); err != nil {
				return err
			}
			if got, tr := m.Get(id); got == nil || tr != TierMemory {
				return fmt.Errorf("want memory hit, got %v", tr)
			}
			m.Evict(id)
			return nil
		}}
	}
	return []ledgerArm{
		arm("absent"),
		arm("disabled", obs.NewArtifactLedger(64), nil),
		arm("enabled", obs.NewArtifactLedger(64)),
	}
}

// BenchmarkLedgerOverhead times ledgerArms on one artifact. The disabled arm
// must stay ≈ the absent one: its only cost is one atomic pointer load per
// transition. The enabled arm bounds the instrumented cost.
func BenchmarkLedgerOverhead(b *testing.B) {
	for _, arm := range ledgerArms() {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := arm.cycle("v"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDetachedLedgerAllocatesAsAbsent gates BenchmarkLedgerOverhead with a
// count instead of a timing: a store whose ledger was detached allocates per
// residency cycle exactly what a store that never had one does. Every cycle
// is a new artifact, so an attached ledger pays for an entry each time — a
// detach that left anything attached would show as that cost.
func TestDetachedLedgerAllocatesAsAbsent(t *testing.T) {
	const runs = 50
	ids := make([]string, runs+1) // AllocsPerRun warms up once
	for i := range ids {
		ids[i] = fmt.Sprintf("v%d", i)
	}
	allocs := map[string]float64{}
	for _, arm := range ledgerArms() {
		i := 0
		allocs[arm.name] = testing.AllocsPerRun(runs, func() {
			if err := arm.cycle(ids[i]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	t.Logf("allocations per put/get/evict cycle: %v", allocs)
	if allocs["disabled"] != allocs["absent"] {
		t.Errorf("a detached ledger costs %.0f allocations per cycle, no ledger %.0f", allocs["disabled"], allocs["absent"])
	}
	if allocs["enabled"] <= allocs["disabled"] {
		t.Errorf("an attached ledger costs %.0f allocations per new artifact, a detached one %.0f: the comparison is vacuous",
			allocs["enabled"], allocs["disabled"])
	}
}

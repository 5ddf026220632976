package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tier"
)

func attachTestLedger(t *testing.T, m *Manager) *obs.ArtifactLedger {
	t.Helper()
	led := obs.NewArtifactLedger(32)
	now := time.Unix(1700000000, 0).UTC()
	led.SetClock(func() time.Time { return now })
	m.AttachLedger(led)
	return led
}

func eventKinds(led *obs.ArtifactLedger, id string) []string {
	recs := led.Snapshot(obs.ArtifactQuery{ID: id})
	if len(recs) != 1 {
		return nil
	}
	kinds := make([]string, 0, len(recs[0].Events))
	for _, ev := range recs[0].Events {
		kinds = append(kinds, ev.Kind)
	}
	return kinds
}

// TestLedgerTracksStoreLifecycle walks one artifact through every store
// transition and checks the ledger saw each as an event, with the request
// ID carried on the transitions a request drives.
func TestLedgerTracksStoreLifecycle(t *testing.T) {
	d := newDisk(t)
	m := NewTiered(cost.Memory(), Options{Disk: d})
	led := attachTestLedger(t, m)

	if err := m.Put("v1", floatArtifact("v1", 10), "req-put"); err != nil {
		t.Fatal(err)
	}
	if err := m.Demote("v1"); err != nil {
		t.Fatal(err)
	}
	// Disk hit promotes back to memory; the promoted event names the run.
	if a, tr := m.Get("v1", "req-get"); a == nil || tr != TierDisk {
		t.Fatalf("Get = %v, %v; want disk hit", a, tr)
	}
	m.Evict("v1")

	want := fmt.Sprint([]string{
		obs.ArtifactMaterialized, obs.ArtifactDemoted,
		obs.ArtifactPromoted, obs.ArtifactEvicted,
	})
	if got := fmt.Sprint(eventKinds(led, "v1")); got != want {
		t.Fatalf("event kinds = %v, want %v", got, want)
	}
	recs := led.Snapshot(obs.ArtifactQuery{ID: "v1"})
	evs := recs[0].Events
	if evs[0].RequestID != "req-put" || evs[2].RequestID != "req-get" {
		t.Fatalf("request IDs not threaded: %+v", evs)
	}
	if evs[0].Bytes != 80 || evs[1].Bytes != 80 {
		t.Fatalf("event bytes = %d/%d, want 80", evs[0].Bytes, evs[1].Bytes)
	}
	if recs[0].Tier != "none" {
		t.Fatalf("post-eviction tier = %q, want none", recs[0].Tier)
	}
}

// TestLedgerSeesBudgetPressure: demotions and hard evictions forced by
// budget enforcement show up as ledger events even though no caller asked
// for them.
func TestLedgerSeesBudgetPressure(t *testing.T) {
	d := newDisk(t)
	m := NewTiered(cost.Memory(), Options{MemoryBudget: 160, Disk: d})
	led := attachTestLedger(t, m)
	for _, id := range []string{"v1", "v2", "v3"} {
		if err := m.Put(id, floatArtifact(id, 10), ""); err != nil {
			t.Fatal(err)
		}
	}
	// v1 was coldest → demoted by the budget sweep.
	want := fmt.Sprint([]string{obs.ArtifactMaterialized, obs.ArtifactDemoted})
	if got := fmt.Sprint(eventKinds(led, "v1")); got != want {
		t.Fatalf("v1 events = %v, want %v", got, want)
	}
	if led.EventCount(obs.ArtifactDemoted) != 1 {
		t.Fatalf("demoted events = %d, want 1", led.EventCount(obs.ArtifactDemoted))
	}

	// Without a disk tier the same pressure hard-evicts instead.
	m2 := NewTiered(cost.Memory(), Options{MemoryBudget: 160})
	led2 := attachTestLedger(t, m2)
	for _, id := range []string{"v1", "v2", "v3"} {
		if err := m2.Put(id, floatArtifact(id, 10), ""); err != nil {
			t.Fatal(err)
		}
	}
	want = fmt.Sprint([]string{obs.ArtifactMaterialized, obs.ArtifactEvicted})
	if got := fmt.Sprint(eventKinds(led2, "v1")); got != want {
		t.Fatalf("v1 events = %v, want %v", got, want)
	}
}

// TestLedgerSeesIdleDemotion: DemoteIdle's spills are recorded too.
func TestLedgerSeesIdleDemotion(t *testing.T) {
	d := newDisk(t)
	m := NewTiered(cost.Memory(), Options{Disk: d})
	led := attachTestLedger(t, m)
	if err := m.Put("v1", floatArtifact("v1", 10), ""); err != nil {
		t.Fatal(err)
	}
	if n := m.DemoteIdle(0); n != 1 {
		t.Fatalf("DemoteIdle = %d, want 1", n)
	}
	want := fmt.Sprint([]string{obs.ArtifactMaterialized, obs.ArtifactDemoted})
	if got := fmt.Sprint(eventKinds(led, "v1")); got != want {
		t.Fatalf("v1 events = %v, want %v", got, want)
	}
}

// TestLedgerRecoverySeeding: attaching a ledger to a store whose disk tier
// recovered prior content rebuilds ledger entries for the survivors as
// "recovered" events, so restart does not blind the economics.
func TestLedgerRecoverySeeding(t *testing.T) {
	dir := t.TempDir()
	d, _, err := tier.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewTiered(cost.Memory(), Options{Disk: d})
	if err := m.Put("v1", floatArtifact("v1", 10), ""); err != nil {
		t.Fatal(err)
	}
	if err := m.FlushToDisk(); err != nil {
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
	led := attachTestLedger(t, m2)
	want := fmt.Sprint([]string{obs.ArtifactRecovered})
	if got := fmt.Sprint(eventKinds(led, "v1")); got != want {
		t.Fatalf("v1 events after restart = %v, want %v", got, want)
	}
	recs := led.Snapshot(obs.ArtifactQuery{ID: "v1"})
	if recs[0].Tier != "disk" || recs[0].Bytes != d2.LogicalSize("v1") {
		t.Fatalf("recovered record = %+v", recs[0])
	}
	// Memory-resident content at attach time seeds as materialized.
	m3 := New(cost.Memory())
	if err := m3.Put("v2", floatArtifact("v2", 10), ""); err != nil {
		t.Fatal(err)
	}
	led3 := attachTestLedger(t, m3)
	want = fmt.Sprint([]string{obs.ArtifactMaterialized})
	if got := fmt.Sprint(eventKinds(led3, "v2")); got != want {
		t.Fatalf("v2 events after attach = %v, want %v", got, want)
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
	led := attachTestLedger(t, m)
	if err := m.Put("m1", &graph.AggregateArtifact{Value: 7}, ""); err != nil {
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

	if a, tr := m.Get("m1", ""); a != nil || tr != TierNone {
		t.Fatalf("Get on corrupt artifact = %v, %v; want miss", a, tr)
	}
	want := fmt.Sprint([]string{
		obs.ArtifactMaterialized, obs.ArtifactDemoted, obs.ArtifactQuarantined,
	})
	if got := fmt.Sprint(eventKinds(led, "m1")); got != want {
		t.Fatalf("m1 events = %v, want %v", got, want)
	}
	recs := led.Snapshot(obs.ArtifactQuery{ID: "m1"})
	if !recs[0].Quarantined {
		t.Fatal("record not flagged quarantined")
	}
	tracked, _, _, _ := led.Totals()
	if tracked != 0 {
		t.Fatalf("totals track %d artifacts, want 0 (quarantined excluded)", tracked)
	}
}

func TestTierCountsInclusive(t *testing.T) {
	d := newDisk(t)
	m := NewTiered(cost.Memory(), Options{Disk: d})
	for _, id := range []string{"v1", "v2", "v3"} {
		if err := m.Put(id, floatArtifact(id, 10), ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Demote("v1"); err != nil {
		t.Fatal(err)
	}
	// Promote v1 back: inclusive tiers keep the disk copy, so it counts in
	// both tiers.
	if a, _ := m.Get("v1", ""); a == nil {
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
	if err := m.Put("v1", floatArtifact("v1", 10), "r"); err != nil {
		t.Fatal(err)
	}
	led := attachTestLedger(t, m)
	m.AttachLedger(nil)
	if m.Ledger() != nil {
		t.Fatal("AttachLedger(nil) should detach")
	}
	m.Evict("v1")
	if led.EventCount(obs.ArtifactEvicted) != 0 {
		t.Fatal("detached ledger still receiving events")
	}
}

// ledgerArm is one arm of the ledger's cost on the store's write path; a call
// takes the named artifact through a full residency cycle — admitted, read,
// evicted — which an attached ledger records as two events.
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
			if err := m.Put(id, a, "req"); err != nil {
				return err
			}
			if got, tr := m.Get(id, "req"); got == nil || tr != TierMemory {
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

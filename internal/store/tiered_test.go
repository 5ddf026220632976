package store

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tier"
)

func newDisk(t *testing.T) *tier.Disk {
	t.Helper()
	d, _, err := tier.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func floatArtifact(name string, rows int) *graph.DatasetArtifact {
	return &graph.DatasetArtifact{
		Frame: data.MustNewFrame(data.NewFloatColumn(name, make([]float64, rows))),
	}
}

// TestBudgetDemotesColdestToDisk: exceeding the memory budget demotes LRU
// artifacts to disk instead of dropping them; they stay loadable and are
// promoted back on access.
func TestBudgetDemotesColdestToDisk(t *testing.T) {
	d := newDisk(t)
	// Each artifact is 10 floats = 80 bytes; budget fits two.
	m := NewTiered(cost.Memory(), Options{MemoryBudget: 160, Disk: d})
	var met struct{ dem, pro obs.Counter }
	m.Instrument(Metrics{Demotions: &met.dem, Promotions: &met.pro})

	for _, id := range []string{"v1", "v2", "v3"} {
		if err := m.Put(id, floatArtifact(id, 10)); err != nil {
			t.Fatal(err)
		}
	}
	// v1 is coldest → demoted; v2, v3 resident.
	if got := m.TierOf("v1"); got != TierDisk {
		t.Fatalf("v1 tier = %v, want disk", got)
	}
	if m.TierOf("v2") != TierMemory || m.TierOf("v3") != TierMemory {
		t.Fatal("v2/v3 should stay memory-resident")
	}
	if m.MemoryBytes() > 160 {
		t.Fatalf("memory tier over budget: %d", m.MemoryBytes())
	}
	if !m.Has("v1") {
		t.Fatal("demotion must not lose the artifact")
	}
	if met.dem.Value() != 1 {
		t.Fatalf("demotions = %d, want 1", met.dem.Value())
	}

	// Access v1: served from disk, promoted back; now v2 is coldest and
	// gets demoted in turn.
	a, tr := m.Get("v1")
	if a == nil || tr != TierDisk {
		t.Fatalf("Get(v1) = %v, %v; want disk hit", a, tr)
	}
	if m.TierOf("v1") != TierMemory {
		t.Fatal("v1 not promoted")
	}
	if m.TierOf("v2") != TierDisk {
		t.Fatalf("v2 tier = %v, want disk (displaced by promotion)", m.TierOf("v2"))
	}
	if met.pro.Value() != 1 {
		t.Fatalf("promotions = %d, want 1", met.pro.Value())
	}
	// Inclusive tiers: v1's disk copy remains, so re-demoting it writes
	// nothing new and the disk tier still dedups the shared bytes.
	if d.Has("v1") != true {
		t.Fatal("promotion dropped the disk copy")
	}
}

// TestBudgetWithoutDiskHardEvicts: a memory budget with no disk tier falls
// back to true eviction (the pre-tiering behavior).
func TestBudgetWithoutDiskHardEvicts(t *testing.T) {
	m := NewTiered(cost.Memory(), Options{MemoryBudget: 160})
	for _, id := range []string{"v1", "v2", "v3"} {
		if err := m.Put(id, floatArtifact(id, 10)); err != nil {
			t.Fatal(err)
		}
	}
	if m.Has("v1") {
		t.Fatal("v1 should be evicted (no disk tier)")
	}
	if !m.Has("v2") || !m.Has("v3") {
		t.Fatal("v2/v3 should survive")
	}
}

// TestEvictRemovesAllTiers: the materializer's deselection eviction clears
// both the memory and the disk copy.
func TestEvictRemovesAllTiers(t *testing.T) {
	d := newDisk(t)
	m := NewTiered(cost.Memory(), Options{Disk: d})
	if err := m.Put("v1", floatArtifact("v1", 10)); err != nil {
		t.Fatal(err)
	}
	if err := m.Demote("v1"); err != nil {
		t.Fatal(err)
	}
	if _, tr := m.Get("v1"); tr != TierDisk {
		t.Fatal("setup: v1 should be served from disk")
	}
	// Now in both tiers (inclusive). Evict must clear both.
	m.Evict("v1")
	if m.Has("v1") || d.Has("v1") {
		t.Fatal("Evict left a copy behind")
	}
}

// TestLoadCostForPricesActualTier: Cl(v) uses the profile of the tier the
// artifact actually occupies.
func TestLoadCostForPricesActualTier(t *testing.T) {
	d := newDisk(t)
	m := NewTiered(cost.Memory(), Options{Disk: d, DiskProfile: cost.Disk()})
	if err := m.Put("v1", floatArtifact("v1", 1000)); err != nil {
		t.Fatal(err)
	}
	sz := int64(8000)
	memCost := m.LoadCostFor("v1", sz)
	if want := cost.Memory().LoadCost(sz).Seconds(); memCost != want {
		t.Fatalf("memory-resident cost = %v, want %v", memCost, want)
	}
	if err := m.Demote("v1"); err != nil {
		t.Fatal(err)
	}
	diskCost := m.LoadCostFor("v1", sz)
	if want := cost.Disk().LoadCost(sz).Seconds(); diskCost != want {
		t.Fatalf("disk-resident cost = %v, want %v", diskCost, want)
	}
	if diskCost <= memCost {
		t.Fatal("disk tier should be priced slower than memory")
	}
}

// peek returns what PeekRecords serves of a vertex as content: a dataset
// assembled from its records (tier.Assemble over tier.DecodeColumn), anything
// else as it is.
func peek(t testing.TB, m *Manager, id string) (graph.Artifact, Tier) {
	t.Helper()
	recs, tr := m.PeekRecords(id)
	if recs == nil {
		return nil, tr
	}
	if recs.Content != nil {
		return recs.Content, tr
	}
	byID := make(map[string][]byte, len(recs.Columns))
	for _, r := range recs.Columns {
		byID[r.ID] = r.Bytes()
	}
	a, err := tier.Assemble(recs.Manifest, func(colID string) (*data.Column, error) {
		return tier.DecodeColumn(byID[colID])
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, tr
}

// TestPeekDoesNotPromote: reads for snapshotting/transfer must not disturb
// tier placement or LRU order.
func TestPeekDoesNotPromote(t *testing.T) {
	d := newDisk(t)
	m := NewTiered(cost.Memory(), Options{Disk: d})
	if err := m.Put("v1", floatArtifact("v1", 10)); err != nil {
		t.Fatal(err)
	}
	if err := m.Demote("v1"); err != nil {
		t.Fatal(err)
	}
	a, tr := peek(t, m, "v1")
	if a == nil || tr != TierDisk {
		t.Fatalf("PeekRecords = %v, %v", a, tr)
	}
	if m.TierOf("v1") != TierDisk {
		t.Fatal("PeekRecords promoted the artifact")
	}
}

// TestSyncSurvivesRestart: syncing then reopening the directory in a new
// manager serves the same artifacts from the disk tier.
func TestSyncSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	d, _, err := tier.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewTiered(cost.Memory(), Options{Disk: d})
	if err := m.Put("v1", floatArtifact("v1", 10)); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("m1", &graph.AggregateArtifact{Value: 42}); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"v1", "m1"} {
		if m.TierOf(id) != TierMemory || !d.Has(id) {
			t.Fatalf("%s: tier %v, on disk %v; want the memory copy kept and a disk copy written",
				id, m.TierOf(id), d.Has(id))
		}
	}

	d2, rep, err := tier.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 0 || rep.Frames != 1 || rep.Blobs != 1 {
		t.Fatalf("recovery report: %+v", rep)
	}
	m2 := NewTiered(cost.Memory(), Options{Disk: d2})
	a, tr := m2.Get("m1")
	if tr != TierDisk || a.(*graph.AggregateArtifact).Value != 42 {
		t.Fatalf("blob not recovered: %v %v", a, tr)
	}
	if a, tr := m2.Get("v1"); tr != TierDisk || a == nil {
		t.Fatal("frame not recovered")
	}
	if m2.Len() != 2 {
		t.Fatalf("recovered %d artifacts, want 2", m2.Len())
	}
}

// TestSyncRacesEvict runs Sync over and over beside a loop of Put, Get and
// Evict (under -race, the checkpoint beside the server's updates): afterwards
// Has agrees with the loop's model, and a reopened tier holds nothing the
// loop last evicted — Sync never writes back what was evicted while it
// walked.
func TestSyncRacesEvict(t *testing.T) {
	dir := t.TempDir()
	d, _, err := tier.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := NewTiered(cost.Memory(), Options{Disk: d})
	ids := []string{"v0", "m1", "v2", "m3"}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := m.Sync(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	held := map[string]bool{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		j := rng.Intn(len(ids))
		id := ids[j]
		switch rng.Intn(3) {
		case 0:
			var a graph.Artifact = floatArtifact(id, 10)
			if j%2 == 1 {
				a = &graph.AggregateArtifact{Value: float64(i)}
			}
			if err := m.Put(id, a); err != nil {
				t.Fatal(err)
			}
			held[id] = true
		case 1:
			m.Get(id)
		case 2:
			m.Evict(id)
			held[id] = false
		}
	}
	close(stop)
	wg.Wait()

	d2, _, err := tier.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if m.Has(id) != held[id] {
			t.Errorf("%s: Has = %v, the loop left it held = %v", id, m.Has(id), held[id])
		}
		if !held[id] && d2.Has(id) {
			t.Errorf("%s: evicted by the loop, yet the reopened tier holds it", id)
		}
	}
}

// TestDictColumnSurvivesTiers: a dictionary-encoded string column keeps its
// representation (and its contents) through demotion to disk and a restart
// recovery — the disk codec stores codes + dictionary, not expanded strings.
func TestDictColumnSurvivesTiers(t *testing.T) {
	dir := t.TempDir()
	d, _, err := tier.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	col := data.NewStringColumn("region", []string{"north", "south", "north", "", "south", "north"}).DictEncoded()
	if !col.IsDict() {
		t.Fatal("setup: column should be dictionary-encoded")
	}
	m := NewTiered(cost.Memory(), Options{Disk: d})
	if err := m.Put("v1", &graph.DatasetArtifact{Frame: data.MustNewFrame(col)}); err != nil {
		t.Fatal(err)
	}
	if err := m.Demote("v1"); err != nil {
		t.Fatal(err)
	}

	check := func(mgr *Manager, stage string) {
		t.Helper()
		a, tr := mgr.Get("v1")
		if tr != TierDisk || a == nil {
			t.Fatalf("%s: artifact not on disk: %v %v", stage, a, tr)
		}
		got := a.(*graph.DatasetArtifact).Frame.Column("region")
		if got == nil {
			t.Fatalf("%s: column missing", stage)
		}
		if !got.IsDict() {
			t.Fatalf("%s: column lost dictionary encoding", stage)
		}
		if got.Len() != col.Len() {
			t.Fatalf("%s: %d rows, want %d", stage, got.Len(), col.Len())
		}
		for i := 0; i < col.Len(); i++ {
			if got.StringAt(i) != col.StringAt(i) {
				t.Fatalf("%s row %d: %q != %q", stage, i, got.StringAt(i), col.StringAt(i))
			}
		}
	}
	check(m, "after demotion")

	d2, rep, err := tier.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined != 0 {
		t.Fatalf("recovery quarantined %d files", rep.Quarantined)
	}
	check(NewTiered(cost.Memory(), Options{Disk: d2}), "after restart")
}

// TestDropCount: the manager counts each artifact it drops from its last tier
// on its own — evicted by a memory budget with no disk tier, or quarantined by
// a read (PeekRecords', under the read lock, too) — once, and nothing it still holds
// somewhere, evicts on request or demotes.
func TestDropCount(t *testing.T) {
	put := func(m *Manager, ids ...string) {
		t.Helper()
		for _, id := range ids {
			if err := m.Put(id, floatArtifact(id, 10)); err != nil {
				t.Fatal(err)
			}
		}
	}

	memOnly := NewTiered(cost.Memory(), Options{MemoryBudget: 160})
	put(memOnly, "v1", "v2", "v3")
	memOnly.Evict("v2")
	if got := memOnly.Drops(); got != 1 || memOnly.Has("v1") {
		t.Errorf("memory budget, no disk: %d drops (v1 held %v), want v1's", got, memOnly.Has("v1"))
	}

	dir := t.TempDir()
	d, _, err := tier.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(cost.Memory(), Options{MemoryBudget: 80, Disk: d})
	put(tiered, "v1", "v2", "v3", "v4") // v1..v3 demoted, none dropped
	if got := tiered.Drops(); got != 0 || !tiered.Has("v1") {
		t.Errorf("demotions: %d drops (v1 held %v), want none", got, tiered.Has("v1"))
	}
	// Corrupt the column files behind the tier's back: a read that finds one
	// quarantines the frame, and the store no longer holds it.
	cols, err := filepath.Glob(filepath.Join(dir, "cols", "*"))
	if err != nil || len(cols) == 0 {
		t.Fatalf("column files = %v (%v)", cols, err)
	}
	for _, path := range cols {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xFF
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if a, _ := peek(t, tiered, "v2"); a != nil {
		t.Fatal("a corrupt frame was served")
	}
	if a, _ := tiered.Get("v3"); a != nil {
		t.Fatal("a corrupt frame was served")
	}
	if got := tiered.Drops(); got != 2 || tiered.Has("v2") || tiered.Has("v3") {
		t.Errorf("quarantined reads: %d drops in all, want 2 (v2, v3)", got)
	}
}

package store

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/obs"
)

func newTestManager() *Manager { return New(cost.Memory()) }

// get is an untagged Get for tests that do not care which tier answered.
func get(m *Manager, id string) graph.Artifact {
	a, _ := m.Get(id)
	return a
}

func frames() (*graph.DatasetArtifact, *graph.DatasetArtifact) {
	shared := data.NewFloatColumn("x", []float64{1, 2, 3, 4}) // 32 bytes
	own := data.NewFloatColumn("y", []float64{5, 6, 7, 8})    // 32 bytes
	f1 := data.MustNewFrame(shared, own)
	f2 := data.MustNewFrame(shared)
	return &graph.DatasetArtifact{Frame: f1}, &graph.DatasetArtifact{Frame: f2}
}

func TestPutGetDataset(t *testing.T) {
	m := newTestManager()
	a, _ := frames()
	if err := m.Put("v1", a); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := get(m, "v1").(*graph.DatasetArtifact)
	if !ok {
		t.Fatalf("Get returned %T", get(m, "v1"))
	}
	if got.Frame.NumCols() != 2 || got.Frame.Column("x").Floats[2] != 3 {
		t.Errorf("roundtrip wrong: %v", got.Frame)
	}
	if got.Frame.Column("x").ID != a.Frame.Column("x").ID {
		t.Error("column IDs must survive the store")
	}
}

func TestColumnDeduplication(t *testing.T) {
	m := newTestManager()
	a, b := frames()
	if err := m.Put("v1", a); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("v2", b); err != nil {
		t.Fatal(err)
	}
	if m.PhysicalBytes() != 64 { // x + y once
		t.Errorf("physical=%d, want 64", m.PhysicalBytes())
	}
	if m.LogicalBytes() != 96 { // 64 + 32
		t.Errorf("logical=%d, want 96", m.LogicalBytes())
	}
}

func TestEvictReleasesOnlyUnreferencedColumns(t *testing.T) {
	m := newTestManager()
	a, b := frames()
	if err := m.Put("v1", a); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("v2", b); err != nil {
		t.Fatal(err)
	}
	m.Evict("v1")
	if m.Has("v1") {
		t.Error("v1 should be gone")
	}
	if !m.Has("v2") {
		t.Error("v2 must survive")
	}
	if m.PhysicalBytes() != 32 { // only shared x remains
		t.Errorf("physical=%d, want 32", m.PhysicalBytes())
	}
	got := get(m, "v2").(*graph.DatasetArtifact)
	if got.Frame.Column("x").Floats[0] != 1 {
		t.Error("shared column content corrupted by eviction")
	}
	m.Evict("v2")
	if m.PhysicalBytes() != 0 || m.Len() != 0 {
		t.Errorf("store not empty after evicting all: %d bytes, %d artifacts", m.PhysicalBytes(), m.Len())
	}
}

func TestPutIdempotent(t *testing.T) {
	m := newTestManager()
	a, _ := frames()
	if err := m.Put("v1", a); err != nil {
		t.Fatal(err)
	}
	before := m.PhysicalBytes()
	if err := m.Put("v1", a); err != nil {
		t.Fatal(err)
	}
	if m.PhysicalBytes() != before {
		t.Error("re-putting must not change accounting")
	}
}

func TestModelBlob(t *testing.T) {
	m := newTestManager()
	lr := ml.NewLogisticRegression(1)
	if err := lr.Fit([]*data.Column{data.NewFloatColumn("x", []float64{1, 0})}, []int{0, 1}, []float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	ma := &graph.ModelArtifact{Model: lr, Quality: 0.9, Features: []string{"x"}}
	if err := m.Put("m1", ma); err != nil {
		t.Fatal(err)
	}
	got, ok := get(m, "m1").(*graph.ModelArtifact)
	if !ok || got.Quality != 0.9 {
		t.Fatalf("model roundtrip wrong: %T", get(m, "m1"))
	}
	if m.PhysicalBytes() != ma.SizeBytes() {
		t.Errorf("physical=%d, want %d", m.PhysicalBytes(), ma.SizeBytes())
	}
	m.Evict("m1")
	if m.PhysicalBytes() != 0 {
		t.Errorf("physical=%d after evict, want 0", m.PhysicalBytes())
	}
}

func TestGetAbsent(t *testing.T) {
	m := newTestManager()
	if get(m, "nope") != nil {
		t.Error("absent Get should be nil")
	}
	if m.Has("nope") {
		t.Error("absent Has should be false")
	}
	m.Evict("nope") // must not panic
}

func TestPutNil(t *testing.T) {
	m := newTestManager()
	if err := m.Put("v", nil); err == nil {
		t.Error("Put(nil) should error")
	}
}

func TestRenamedSharedColumn(t *testing.T) {
	// Two artifacts share a column ID but use different display names;
	// the store must return each with its own name.
	m := newTestManager()
	col := data.NewFloatColumn("x", []float64{1, 2})
	renamed := col.WithID(col.ID)
	renamed.Name = "z"
	f1 := data.MustNewFrame(col)
	f2 := data.MustNewFrame(renamed)
	if err := m.Put("v1", &graph.DatasetArtifact{Frame: f1}); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("v2", &graph.DatasetArtifact{Frame: f2}); err != nil {
		t.Fatal(err)
	}
	if m.PhysicalBytes() != 16 {
		t.Errorf("physical=%d, want 16 (shared)", m.PhysicalBytes())
	}
	g2 := get(m, "v2").(*graph.DatasetArtifact)
	if !g2.Frame.HasColumn("z") {
		t.Errorf("renamed column lost: %v", g2.Frame.ColumnNames())
	}
}

func TestStoreMetricsCounters(t *testing.T) {
	m := New(cost.Memory())
	reg := obs.NewRegistry()
	met := Metrics{
		GetHits:      reg.Counter("hits_total", ""),
		GetMisses:    reg.Counter("misses_total", ""),
		Puts:         reg.Counter("puts_total", ""),
		Evictions:    reg.Counter("evictions_total", ""),
		BytesFetched: reg.Counter("fetched_bytes_total", ""),
	}
	m.Instrument(met)

	blob := &graph.ModelArtifact{Model: nil, Quality: 0.5}
	if err := m.Put("v1", blob); err != nil {
		t.Fatal(err)
	}
	if err := m.Put("v1", blob); err != nil { // no-op re-put: not counted
		t.Fatal(err)
	}
	if met.Puts.Value() != 1 {
		t.Errorf("puts = %d, want 1 (re-put is a no-op)", met.Puts.Value())
	}
	if get(m, "v1") == nil {
		t.Fatal("stored blob should be retrievable")
	}
	if get(m, "absent") != nil {
		t.Fatal("unexpected artifact")
	}
	if met.GetHits.Value() != 1 || met.GetMisses.Value() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", met.GetHits.Value(), met.GetMisses.Value())
	}
	if met.BytesFetched.Value() != blob.SizeBytes() {
		t.Errorf("fetched bytes = %d, want %d", met.BytesFetched.Value(), blob.SizeBytes())
	}
	m.Evict("v1")
	m.Evict("v1") // double-evict: not counted
	if met.Evictions.Value() != 1 {
		t.Errorf("evictions = %d, want 1", met.Evictions.Value())
	}
}

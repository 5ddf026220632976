package store_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/workloads/kaggle"
)

// w3Features executes W3 at scale 1 and returns the frame of its last
// interaction feature, FE_099, and the bytes of its 48 columns that are an
// earlier feature under a second name (FE_052–FE_099 derive FE_000–FE_047
// again: the generator repeats its column pair and combiner every 52 steps).
func w3Features(t *testing.T) (*data.Frame, int64) {
	t.Helper()
	w := kaggle.Workload3(kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42}))
	if _, err := core.Execute(w, nil, nil); err != nil {
		t.Fatal(err)
	}
	for _, n := range w.Nodes() {
		if n.Name != "derive:FE_099" {
			continue
		}
		f := n.Content.(*graph.DatasetArtifact).Frame
		var second int64
		for k := 52; k < 100; k++ {
			second += f.Column(fmt.Sprintf("FE_%03d", k)).SizeBytes()
		}
		return f, second
	}
	t.Fatal("W3 has no vertex derive:FE_099")
	return nil, 0
}

// TestAFrameKeepsAColumnUnderTwoNamesOnce: W3's feature frame names 48 of
// its columns twice. The store holds each once — physical bytes are the
// logical less the second names — and frees it once: a second frame that
// names one of them keeps it through the first one's eviction, and
// evicting both leaves nothing.
func TestAFrameKeepsAColumnUnderTwoNamesOnce(t *testing.T) {
	f, second := w3Features(t)
	m := store.New(cost.Memory())
	if err := m.Put("features", &graph.DatasetArtifact{Frame: f}); err != nil {
		t.Fatal(err)
	}
	if logical, physical := m.LogicalBytes(), m.PhysicalBytes(); physical != logical-second {
		t.Errorf("%d logical and %d physical bytes, want the physical %d less", logical, physical, second)
	}
	one := f.Column("FE_099")
	if err := m.Put("one", &graph.DatasetArtifact{Frame: data.MustNewFrame(one)}); err != nil {
		t.Fatal(err)
	}
	m.Evict("features")
	if got := m.PhysicalBytes(); got != one.SizeBytes() {
		t.Errorf("after the feature frame's eviction %d bytes are held, want FE_099's %d", got, one.SizeBytes())
	}
	m.Evict("one")
	if m.PhysicalBytes() != 0 || m.Len() != 0 {
		t.Errorf("after both evictions %d bytes and %d artifacts are held, want none", m.PhysicalBytes(), m.Len())
	}
}

// TestTheDiskTierWritesAColumnUnderTwoNamesOnce: spilled to the disk tier,
// W3's feature frame is one column file per lineage ID — 48 fewer than its
// names — and a tier opened afresh on the directory serves the frame with
// every name, bit for bit.
func TestTheDiskTierWritesAColumnUnderTwoNamesOnce(t *testing.T) {
	f, _ := w3Features(t)
	dir := t.TempDir()
	d, _, err := tier.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := store.NewTiered(cost.Memory(), store.Options{Disk: d})
	if err := m.Put("features", &graph.DatasetArtifact{Frame: f}); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(filepath.Join(dir, "cols"))
	if err != nil {
		t.Fatal(err)
	}
	if want := f.NumCols() - 48; len(files) != want {
		t.Errorf("%d column files for %d columns, want %d", len(files), f.NumCols(), want)
	}

	d2, rep, err := tier.Open(dir)
	if err != nil || rep.Quarantined != 0 {
		t.Fatalf("reopening: %v, %+v", err, rep)
	}
	got, _ := store.NewTiered(cost.Memory(), store.Options{Disk: d2}).Get("features")
	ds, ok := got.(*graph.DatasetArtifact)
	if !ok {
		t.Fatalf("the reopened tier serves %T", got)
	}
	g := ds.Frame
	if g.NumCols() != f.NumCols() {
		t.Fatalf("the reopened tier serves %d columns of %d", g.NumCols(), f.NumCols())
	}
	for i, c := range f.Columns() {
		r := g.Columns()[i]
		if r.Name != c.Name || r.ID != c.ID || r.Type != c.Type || r.Len() != c.Len() {
			t.Fatalf("column %d is %s %s, want %s %s", i, r.Name, r.ID, c.Name, c.ID)
		}
		for j := 0; j < c.Len(); j++ {
			if c.Type == data.String && r.StringAt(j) != c.StringAt(j) ||
				c.Type != data.String && math.Float64bits(r.Float(j)) != math.Float64bits(c.Float(j)) {
				t.Fatalf("%s differs at row %d", c.Name, j)
			}
		}
	}
}

package tier

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
)

func testFrame(ids ...*data.Column) *graph.DatasetArtifact {
	return &graph.DatasetArtifact{Frame: data.MustNewFrame(ids...)}
}

func TestDiskPutGetEvict(t *testing.T) {
	d, rep, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Columns+rep.Frames+rep.Blobs+rep.Quarantined != 0 {
		t.Fatalf("fresh dir reported files: %+v", rep)
	}
	shared := data.NewFloatColumn("shared", []float64{1, 2, 3})
	only1 := data.NewIntColumn("a", []int64{4, 5, 6})
	only2 := data.NewStringColumn("b", []string{"x", "y", "z"})
	if err := d.PutFrame("v1", []*data.Column{shared, only1}); err != nil {
		t.Fatal(err)
	}
	if err := d.PutFrame("v2", []*data.Column{shared, only2}); err != nil {
		t.Fatal(err)
	}
	wantPhys := shared.SizeBytes() + only1.SizeBytes() + only2.SizeBytes()
	if d.PhysicalBytes() != wantPhys {
		t.Fatalf("physical = %d, want %d (column dedup)", d.PhysicalBytes(), wantPhys)
	}
	a, err := d.Get("v1")
	if err != nil {
		t.Fatal(err)
	}
	ds := a.(*graph.DatasetArtifact)
	if ds.Frame.NumCols() != 2 || ds.Frame.Columns()[0].ID != shared.ID ||
		ds.Frame.Columns()[1].Ints[2] != 6 {
		t.Fatalf("bad reassembly: %v", ds.Frame)
	}
	// Evicting v1 must keep the shared column (v2 references it).
	d.Evict("v1")
	if d.Has("v1") || !d.Has("v2") {
		t.Fatal("eviction scope wrong")
	}
	if d.PhysicalBytes() != shared.SizeBytes()+only2.SizeBytes() {
		t.Fatalf("physical after evict = %d", d.PhysicalBytes())
	}
	if _, err := d.Get("v2"); err != nil {
		t.Fatalf("shared column was deleted with v1: %v", err)
	}
	d.Evict("v2")
	if d.PhysicalBytes() != 0 || d.Len() != 0 {
		t.Fatalf("store not empty after evictions: %d bytes, %d artifacts",
			d.PhysicalBytes(), d.Len())
	}
}

func TestDiskBlobRoundTrip(t *testing.T) {
	d, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	model := &graph.ModelArtifact{
		Model:    &ml.LogisticRegression{Weights: []float64{1, 2}, Bias: 0.5},
		Quality:  0.9,
		Features: []string{"f1", "f2"},
	}
	if err := d.PutBlob("m1", model); err != nil {
		t.Fatal(err)
	}
	agg := &graph.AggregateArtifact{Value: 3.25, Text: "count"}
	if err := d.PutBlob("a1", agg); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get("m1")
	if err != nil {
		t.Fatal(err)
	}
	ma := got.(*graph.ModelArtifact)
	if ma.Quality != 0.9 || ma.Model.(*ml.LogisticRegression).Bias != 0.5 {
		t.Fatalf("model mismatch: %+v", ma)
	}
	got, err = d.Get("a1")
	if err != nil {
		t.Fatal(err)
	}
	if got.(*graph.AggregateArtifact).Value != 3.25 {
		t.Fatal("aggregate mismatch")
	}
	if a, err := d.Get("absent"); a != nil || err != nil {
		t.Fatalf("absent vertex: %v %v", a, err)
	}
}

// TestDiskRecovery verifies the boot protocol: a fresh Open over an
// existing directory rebuilds the index from verified files and serves the
// same content.
func TestDiskRecovery(t *testing.T) {
	dir := t.TempDir()
	d, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := data.NewFloatColumn("c1", []float64{1, 2})
	c2 := data.NewBoolColumn("c2", []bool{true, false})
	if err := d.PutFrame("v1", []*data.Column{c1, c2}); err != nil {
		t.Fatal(err)
	}
	if err := d.PutBlob("m1", &graph.AggregateArtifact{Value: 7}); err != nil {
		t.Fatal(err)
	}
	phys := d.PhysicalBytes()

	// Simulate a crash: no close, just reopen from the directory.
	d2, rep, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Columns != 2 || rep.Frames != 1 || rep.Blobs != 1 || rep.Quarantined != 0 {
		t.Fatalf("recovery report: %+v", rep)
	}
	if d2.PhysicalBytes() != phys {
		t.Fatalf("physical after recovery = %d, want %d", d2.PhysicalBytes(), phys)
	}
	a, err := d2.Get("v1")
	if err != nil {
		t.Fatal(err)
	}
	if a.(*graph.DatasetArtifact).Frame.Columns()[0].Floats[1] != 2 {
		t.Fatal("recovered frame content wrong")
	}
	if got, err := d2.Get("m1"); err != nil || got.(*graph.AggregateArtifact).Value != 7 {
		t.Fatalf("recovered blob wrong: %v %v", got, err)
	}
}

// TestDiskRecoveryQuarantinesCorruptFiles flips bytes in stored files and
// checks Open detects, quarantines, and refuses to serve them — and that a
// frame whose column was quarantined is quarantined too rather than served
// torn.
func TestDiskRecoveryQuarantinesCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	d, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := data.NewFloatColumn("c1", []float64{1, 2, 3})
	if err := d.PutFrame("v1", []*data.Column{c1}); err != nil {
		t.Fatal(err)
	}
	if err := d.PutBlob("m1", &graph.AggregateArtifact{Value: 7}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the column file and the blob file on disk.
	for _, path := range []string{d.colPath(c1.ID), d.blobPath("m1")} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0xFF
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d2, rep, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Column + blob quarantined, and the manifest referencing the bad
	// column quarantined as a consequence.
	if rep.Quarantined != 3 {
		t.Fatalf("quarantined = %d, want 3 (%+v)", rep.Quarantined, rep)
	}
	if d2.Has("v1") || d2.Has("m1") || d2.Len() != 0 || d2.PhysicalBytes() != 0 {
		t.Fatal("corrupt artifacts still indexed")
	}
	q, err := os.ReadDir(filepath.Join(dir, quarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 3 {
		t.Fatalf("quarantine dir holds %d files, want 3", len(q))
	}
}

// TestDiskGetQuarantinesRuntimeCorruption corrupts a file after Open and
// checks Get detects it, quarantines, and reports ErrCorrupt.
func TestDiskGetQuarantinesRuntimeCorruption(t *testing.T) {
	dir := t.TempDir()
	d, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := data.NewFloatColumn("c1", []float64{1, 2, 3})
	if err := d.PutFrame("v1", []*data.Column{c1}); err != nil {
		t.Fatal(err)
	}
	path := d.colPath(c1.ID)
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get("v1"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted read not detected: %v", err)
	}
	if d.Has("v1") {
		t.Fatal("corrupt vertex still indexed after failed Get")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt column file not moved to quarantine")
	}
}

// ctc1Columns are the columns of frame "v1" in testdata/store-ctc1, a disk
// tier written before version 2 of the column record: five CTC1 column
// files, their frame manifest, and the blob "m1" = aggregate 3.25 "count".
func ctc1Columns() []*data.Column {
	return []*data.Column{
		data.NewFloatColumn("f", []float64{1.5, math.Float64frombits(0x7ff8000000000bad), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 3}),
		data.NewIntColumn("i", []int64{-1, 0, 42, math.MaxInt64, math.MinInt64, 7}),
		data.NewStringColumn("s", []string{"", "a", "héllo", "x\x00y", "z", "a"}),
		data.NewDictColumn("d", []string{"", "north", "south"}, []uint32{1, 2, 0, 1, 1, 2}),
		data.NewBoolColumn("b", []bool{true, false, true, true, false, false}),
	}
}

// copyTree copies a directory of directories of files, so a test can open a
// committed fixture without changing it.
func copyTree(t *testing.T, from, to string) {
	t.Helper()
	subs, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		files, err := os.ReadDir(filepath.Join(from, sub.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(to, sub.Name()), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(from, sub.Name(), f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(to, sub.Name(), f.Name()), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkFrame fails the test unless the tier serves vid as exactly cols.
func checkFrame(t *testing.T, d *Disk, vid string, cols []*data.Column) {
	t.Helper()
	a, err := d.Get(vid)
	if err != nil {
		t.Fatal(err)
	}
	got := a.(*graph.DatasetArtifact).Frame.Columns()
	if len(got) != len(cols) {
		t.Fatalf("%s: %d columns, want %d", vid, len(got), len(cols))
	}
	for i := range cols {
		if !sameColumn(got[i], cols[i]) {
			t.Errorf("%s: column %s differs from the original", vid, cols[i].Name)
		}
	}
}

// TestDiskRecoversAVersion1Store opens a directory written before version 2
// of the column record: it recovers whole, serves the original columns bit
// for bit, and keeps doing so beside version-2 files written into it.
func TestDiskRecoversAVersion1Store(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "store-ctc1"), dir)
	d, rep, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Columns != 5 || rep.Frames != 1 || rep.Blobs != 1 || rep.Quarantined != 0 || rep.OrphanColumns != 0 {
		t.Fatalf("recovery report %+v, want 5 columns, 1 frame, 1 blob, nothing quarantined", rep)
	}
	v1 := ctc1Columns()
	checkFrame(t, d, "v1", v1)
	if a, err := d.Get("m1"); err != nil || *a.(*graph.AggregateArtifact) != (graph.AggregateArtifact{Value: 3.25, Text: "count"}) {
		t.Fatalf("blob m1: %v %v", a, err)
	}

	// A second frame shares two version-1 columns and adds version-2 ones.
	v2 := []*data.Column{v1[0], data.NewFloatColumn("g", []float64{0, 1, 1, 0, 1, 0}), v1[3],
		data.NewIntColumn("j", []int64{1, 2, 3, 4, 5, 6})}
	if err := d.PutFrame("v2", v2); err != nil {
		t.Fatal(err)
	}
	d, rep, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Columns != 7 || rep.Frames != 2 || rep.Quarantined != 0 {
		t.Fatalf("recovery of the mixed directory %+v, want 7 columns, 2 frames, nothing quarantined", rep)
	}
	checkFrame(t, d, "v1", v1)
	checkFrame(t, d, "v2", v2)
	if b, err := os.ReadFile(d.colPath(v2[1].ID)); err != nil || string(b[:len(colMagic)]) != colMagic {
		t.Fatalf("a new column file is not version 2 (%v)", err)
	}
}

// TestDiskRecoveryCollectsOrphanColumns: column files not referenced by any
// manifest (e.g. from a crash mid-spill, before the manifest write) are
// deleted at boot.
func TestDiskRecoveryCollectsOrphanColumns(t *testing.T) {
	dir := t.TempDir()
	d, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := data.NewFloatColumn("c1", []float64{1, 2, 3})
	if err := d.PutFrame("v1", []*data.Column{c1}); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-spill: a valid column file with no manifest.
	orphan := data.NewFloatColumn("orphan", []float64{9})
	enc, err := EncodeColumn(orphan)
	if err != nil {
		t.Fatal(err)
	}
	orphanPath := d.colPath(orphan.ID)
	if err := os.WriteFile(orphanPath, enc, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OrphanColumns != 1 {
		t.Fatalf("orphans = %d, want 1", rep.OrphanColumns)
	}
	if _, err := os.Stat(orphanPath); !os.IsNotExist(err) {
		t.Fatal("orphan column file not garbage-collected")
	}
}

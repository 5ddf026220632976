package tier

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/rec"
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
	if err := putColumns(d, "v1", []*data.Column{shared, only1}); err != nil {
		t.Fatal(err)
	}
	if err := putColumns(d, "v2", []*data.Column{shared, only2}); err != nil {
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
	if err := putColumns(d, "v1", []*data.Column{c1, c2}); err != nil {
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
	if err := putColumns(d, "v1", []*data.Column{c1}); err != nil {
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
	if err := putColumns(d, "v1", []*data.Column{c1}); err != nil {
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
	if err := putColumns(d, "v1", []*data.Column{c1}); err != nil {
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

// filesUnder returns every file under dir by its path relative to dir.
func filesUnder(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		files[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// version1Files are a sound version-1 file of each kind, by its path under
// a tier root: a column, a manifest naming it and a blob, framed as the
// version-1 writers framed them.
func version1Files(t *testing.T) map[string][]byte {
	t.Helper()
	c := data.NewFloatColumn("x", []float64{1.5, -2, 0.25})
	col := rec.Frame(colMagicV1, 64)
	col.U8(byte(data.Float64))
	col.Str16(c.ID)
	col.Str16(c.Name)
	col.U32(uint32(c.Len()))
	col.Floats(c.Floats)
	man := rec.Frame(frameMagicV1, 64)
	man.Str16("v")
	man.U32(1)
	man.Str16(c.ID)
	man.Str16(c.Name)
	blob := rec.Frame(blobMagicV1, 16)
	blob.Str16("m")
	blob.Raw([]byte("a gob payload"))
	files := make(map[string][]byte)
	for path, w := range map[string]*rec.Writer{
		filepath.Join(colsDir, fname(c.ID)+colExt):    &col,
		filepath.Join(framesDir, fname("v")+frameExt): &man,
		filepath.Join(blobsDir, fname("m")+blobExt):   &blob,
	} {
		b, err := w.Seal()
		if err != nil {
			t.Fatal(err)
		}
		files[path] = b
	}
	return files
}

// writeFiles writes files, by path relative to dir, under dir.
func writeFiles(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	for path, b := range files {
		path = filepath.Join(dir, path)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenRefusesAVersion1Store: a directory holding a sound version-1 file
// of any kind fails Open with an error that names the file and the last
// commit that converts it, and Open leaves every file as it was: a sound
// file is not corrupt. A version-1 file that fails its checksum is corrupt,
// and is quarantined as any corrupt file is.
func TestOpenRefusesAVersion1Store(t *testing.T) {
	all := version1Files(t)
	cases := map[string]map[string][]byte{"all three": all}
	for path, b := range all {
		cases[path] = map[string][]byte{path: b}
	}
	for name, files := range cases {
		dir := t.TempDir()
		writeFiles(t, dir, files)
		_, _, err := Open(dir)
		if err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "commit 15844bf") {
			t.Fatalf("%s: Open %v; want an error naming commit 15844bf", name, err)
		}
		if _, alone := all[name]; alone && !strings.Contains(err.Error(), filepath.Join(dir, name)) {
			t.Errorf("%s: %v does not name the file", name, err)
		}
		if after := filesUnder(t, dir); !reflect.DeepEqual(after, files) {
			t.Errorf("%s: Open changed the directory: %d files after, %d before", name, len(after), len(files))
		}
	}

	// The same files, each with one bit flipped, are corrupt.
	torn, want := make(map[string][]byte), make(map[string][]byte)
	for path, b := range all {
		b = bytes.Clone(b)
		b[len(b)/2] ^= 0x10
		torn[path] = b
		want[filepath.Join(quarantineDir, filepath.Base(path))] = b
	}
	dir := t.TempDir()
	writeFiles(t, dir, torn)
	_, rep, err := Open(dir)
	if err != nil || rep.Quarantined != len(torn) {
		t.Fatalf("torn version-1 files: Open %v, report %+v; want all %d quarantined", err, rep, len(torn))
	}
	if after := filesUnder(t, dir); !reflect.DeepEqual(after, want) {
		t.Errorf("torn version-1 files: the directory holds %d files, want them in quarantine alone", len(after))
	}
}

// putColumns spills a frame of cols to d.
func putColumns(d *Disk, vid string, cols []*data.Column) error {
	return d.PutFrame(vid, ManifestOf(cols), func(i int) int64 { return cols[i].SizeBytes() },
		func(i int) (Record, error) { return RecordOf(cols[i]) })
}

package tier

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/rec"
)

// decodeColumnV1 reads a version-1 column record with the upgrade's reader.
func decodeColumnV1(b []byte) (*data.Column, error) {
	_, body, err := rec.Open(b, colMagicV1)
	if err != nil {
		return nil, err
	}
	r := rec.NewReader(body)
	c := readColumnV1(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return c, nil
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

// allVersion2 fails the test unless every file under dir is a version-2
// file of the directory it is in, and returns them all.
func allVersion2(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := filesUnder(t, dir)
	for path, b := range files {
		want := map[string]string{colsDir: colMagic, framesDir: frameMagic, blobsDir: blobMagic}[filepath.Dir(path)]
		if want == "" || string(b[:min(len(b), len(want))]) != want {
			t.Errorf("%s is %q after Open, want %q", path, b[:min(len(b), 4)], want)
		}
	}
	return files
}

// TestOpenUpgradesVersion1Files opens copies of the committed version-1
// directories: every file under cols/, frames/ and blobs/ is version 2
// afterwards, the tier serves what it served before, and a second Open
// leaves the directory byte for byte as the first left it, with the same
// report.
func TestOpenUpgradesVersion1Files(t *testing.T) {
	for fixture, served := range map[string]func(*Disk){
		"store-ctc1": func(d *Disk) {
			checkFrame(t, d, "v1", ctc1Columns())
			if a, err := d.Get("m1"); err != nil || *a.(*graph.AggregateArtifact) != (graph.AggregateArtifact{Value: 3.25, Text: "count"}) {
				t.Fatalf("blob m1: %v %v", a, err)
			}
		},
		"store-ctb1": func(d *Disk) {
			for id, a := range learnerBlobs() {
				if got, err := d.Get(id); err != nil || !equalBits(got, a) {
					t.Errorf("blob %s: %+v (%v)", id, got, err)
				}
			}
		},
	} {
		dir := t.TempDir()
		copyTree(t, filepath.Join("testdata", fixture), dir)
		d, rep, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Quarantined != 0 {
			t.Fatalf("%s: %+v, want nothing quarantined", fixture, rep)
		}
		upgraded := allVersion2(t, dir)
		served(d)

		d, again, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if *again != *rep {
			t.Errorf("%s: the second Open reports %+v, the first %+v", fixture, again, rep)
		}
		after := filesUnder(t, dir)
		if len(after) != len(upgraded) {
			t.Errorf("%s: %d files after the second Open, %d after the first", fixture, len(after), len(upgraded))
		}
		for path, b := range upgraded {
			if !bytes.Equal(after[path], b) {
				t.Errorf("%s: the second Open changed %s", fixture, path)
			}
		}
		served(d)
	}
}

// TestOpenFinishesAPartialUpgrade: a directory in which one column file is
// already version 2 — as a crash partway through an upgrade leaves it —
// opens clean, upgrades the rest and serves what it held.
func TestOpenFinishesAPartialUpgrade(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "store-ctc1"), dir)
	c := ctc1Columns()[2]
	path := filepath.Join(dir, colsDir, fname(c.ID)+colExt)
	v1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old, err := decodeColumnV1(v1)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := EncodeColumn(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	d, rep, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Columns != 5 || rep.Frames != 1 || rep.Blobs != 1 || rep.Quarantined != 0 || rep.OrphanColumns != 0 {
		t.Fatalf("report %+v, want 5 columns, 1 frame, 1 blob, nothing quarantined", rep)
	}
	allVersion2(t, dir)
	checkFrame(t, d, "v1", ctc1Columns())
}

// TestOpenFailsOnAnUpgradeItCannotWrite: a version-1 blob that reads but
// whose content has no version-2 record fails Open with an error naming its
// file, and the file stays where it was: it is not corrupt.
func TestOpenFailsOnAnUpgradeItCannotWrite(t *testing.T) {
	var payload bytes.Buffer
	leaf := &graph.ModelArtifact{Model: &ml.DecisionTree{Root: &ml.TreeNode{Feature: -1, Threshold: 1}}}
	if err := gob.NewEncoder(&payload).Encode(blobEnvelope{Content: leaf}); err != nil {
		t.Fatal(err)
	}
	w := rec.Frame(blobMagicV1, 2+1+payload.Len())
	w.Str16("m")
	w.Raw(payload.Bytes())
	b, err := w.Seal()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, blobsDir), 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, blobsDir, fname("m")+blobExt)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir)
	if err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), path) {
		t.Fatalf("Open: %v; want an error naming %s", err, path)
	}
	if kept, err := os.ReadFile(path); err != nil || !bytes.Equal(kept, b) {
		t.Fatalf("the file was moved or changed (%v)", err)
	}
}

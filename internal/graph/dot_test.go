package graph

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// -update rewrites the golden files from current output.
var update = flag.Bool("update", false, "rewrite golden files")

// TestWriteDOTGolden pins the workload DAG's DOT rendering: every vertex
// kind's shape, a computed label with its measured time on a second line,
// the loaded-from-EG and computed fills, and a supernode's two parents.
func TestWriteDOTGolden(t *testing.T) {
	g := NewDAG()
	train := g.AddSource("train", nil)
	test := g.AddSource("test", nil)
	clean := g.Apply(train, stubOp{"clean", DatasetKind})
	clean.ComputeTime, clean.Computed = 1500*time.Microsecond, true
	model := g.Apply(clean, stubOp{"fit", ModelKind})
	model.LoadedFromEG = true
	joined := g.Combine(stubOp{"score", DatasetKind}, model, test)
	acc := g.Apply(joined, stubOp{"accuracy", AggregateKind})
	acc.ComputeTime = 42 * time.Millisecond

	var buf bytes.Buffer
	if err := g.WriteDOT(&buf, "workload"); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "workload.dot.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run %s -update): %v", t.Name(), err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, buf.Bytes(), want)
	}
}

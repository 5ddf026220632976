package persist

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/store"
)

func testFrame(rows int) *data.Frame {
	rng := rand.New(rand.NewSource(4))
	a := make([]float64, rows)
	y := make([]float64, rows)
	for i := range a {
		a[i] = rng.NormFloat64()
		if a[i] > 0 {
			y[i] = 1
		}
	}
	return data.MustNewFrame(data.NewFloatColumn("a", a), data.NewFloatColumn("y", y))
}

func buildWorkload(frame *data.Frame) *graph.DAG {
	w := graph.NewDAG()
	src := w.AddSource("persist.csv", &graph.DatasetArtifact{Frame: frame})
	clean := w.Apply(src, ops.FillNA{})
	model := w.Apply(clean, &ops.Train{
		Spec:  ops.ModelSpec{Kind: "logreg", Params: map[string]float64{"max_iter": 20}, Seed: 1},
		Label: "y",
	})
	w.Combine(ops.Evaluate{Label: "y", Metric: ops.AUC}, model, clean)
	return w
}

func TestSaveLoadRoundTripPreservesReuse(t *testing.T) {
	dir := t.TempDir()
	frame := testFrame(200)

	// Session 1: run a workload and save.
	srv1, _ := newTieredServer(t, dir, 0)
	if _, err := core.NewClient(srv1).Run(buildWorkload(frame)); err != nil {
		t.Fatal(err)
	}
	if err := Save(srv1, dir); err != nil {
		t.Fatalf("Save: %v", err)
	}

	// Session 2: fresh server, restore, and re-run the same workload —
	// it must be reused from the restored state.
	srv2, _ := newTieredServer(t, dir, 0)
	restored, err := Load(srv2, dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !restored {
		t.Fatal("Load reported nothing restored")
	}
	if srv2.EG.Len() != srv1.EG.Len() {
		t.Fatalf("EG size %d != %d after restore", srv2.EG.Len(), srv1.EG.Len())
	}
	res, err := core.NewClient(srv2).Run(buildWorkload(frame))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused == 0 {
		t.Error("restored server should enable reuse")
	}
	if res.Executed != 0 {
		t.Errorf("restored identical workload executed %d ops", res.Executed)
	}
}

func TestLoadMissingDirIsFirstBoot(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()))
	restored, err := Load(srv, filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatalf("missing dir should not error: %v", err)
	}
	if restored {
		t.Error("nothing should be restored")
	}
}

func TestLoadCorruptFileErrors(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "eg.gob"), []byte("not gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := core.NewServer(store.New(cost.Memory()))
	if _, err := Load(srv, dir); err == nil {
		t.Error("corrupt snapshot should error")
	}
}

func TestSaveIsAtomicOverExisting(t *testing.T) {
	dir := t.TempDir()
	frame := testFrame(100)
	srv, _ := newTieredServer(t, dir, 0)
	if _, err := core.NewClient(srv).Run(buildWorkload(frame)); err != nil {
		t.Fatal(err)
	}
	if err := Save(srv, dir); err != nil {
		t.Fatal(err)
	}
	// Save again over the existing files.
	if err := Save(srv, dir); err != nil {
		t.Fatalf("second save: %v", err)
	}
	// No temp litter; the tier's subdirectories are expected.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Type().IsRegular() && e.Name() != "eg.gob" {
			t.Errorf("unexpected file %s", e.Name())
		}
	}
}

func TestRestoredStateKeepsMaterializationConsistent(t *testing.T) {
	dir := t.TempDir()
	frame := testFrame(150)
	srv, _ := newTieredServer(t, dir, 0)
	if _, err := core.NewClient(srv).Run(buildWorkload(frame)); err != nil {
		t.Fatal(err)
	}
	if err := Save(srv, dir); err != nil {
		t.Fatal(err)
	}
	srv2, _ := newTieredServer(t, dir, 0)
	if _, err := Load(srv2, dir); err != nil {
		t.Fatal(err)
	}
	if got, want := srv2.Materialized(), srv.Materialized(); got != want || got == 0 {
		t.Errorf("%d vertices materialized after the restore, %d before", got, want)
	}
}

package repro

import (
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

func apiFrame(t *testing.T, rows int) *Frame {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, rows)
	cat := make([]string, rows)
	y := make([]float64, rows)
	for i := range a {
		a[i] = rng.NormFloat64()
		cat[i] = []string{"u", "v"}[rng.Intn(2)]
		if a[i] > 0 {
			y[i] = 1
		}
	}
	f, err := NewFrameFromColumns(
		NewFloatColumn("a", a),
		NewStringColumn("cat", cat),
		NewFloatColumn("y", y),
	)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func apiWorkload(frame *Frame) *Workload {
	w := NewWorkload()
	src := w.AddSource("api-test", frame)
	clean := w.Apply(src, FillNA{})
	enc := w.Apply(clean, OneHot{Col: "cat"})
	model := w.Apply(enc, &Train{
		Spec:  ModelSpec{Kind: "logreg", Params: map[string]float64{"max_iter": 20}, Seed: 1},
		Label: "y",
	})
	w.Combine(Evaluate{Label: "y", Metric: "auc"}, model, enc)
	return w
}

func TestPublicAPIEndToEnd(t *testing.T) {
	srv := NewMemoryServer(WithBudget(64 << 20))
	client := NewClient(srv)
	frame := apiFrame(t, 300)

	r1, err := client.Run(apiWorkload(frame).DAG)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := client.Run(apiWorkload(frame).DAG)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Reused == 0 || r2.Executed >= r1.Executed {
		t.Errorf("no reuse through the public API: r1=%+v r2=%+v", r1, r2)
	}
}

func TestPublicAPIServerOptions(t *testing.T) {
	cfg := MaterializeConfig{Alpha: 0.9, Profile: MemoryProfile()}
	srv := NewServerWithProfile(DiskProfile(),
		WithBudget(1<<20),
		WithStrategy(NewGreedyMaterializer(cfg)),
		WithPlanner(LinearReuse{}),
		WithWarmstart(true),
	)
	if srv.Budget() != 1<<20 {
		t.Errorf("budget=%d", srv.Budget())
	}
	if srv.Strategy().Name() != "HM" || srv.Planner().Name() != "LN" {
		t.Errorf("options not applied: %s/%s", srv.Strategy().Name(), srv.Planner().Name())
	}
}

func TestPublicAPIRemote(t *testing.T) {
	srv := NewMemoryServer(WithBudget(64 << 20))
	ts := httptest.NewServer(NewHTTPHandler(srv))
	defer ts.Close()
	frame := apiFrame(t, 200)
	if _, err := NewClient(NewRemoteOptimizer(ts.URL)).Run(apiWorkload(frame).DAG); err != nil {
		t.Fatal(err)
	}
	// A second collaborator: what it reuses it gets from the server.
	r2, err := NewClient(NewRemoteOptimizer(ts.URL)).Run(apiWorkload(frame).DAG)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Reused == 0 {
		t.Error("remote public API run should reuse")
	}
}

func TestPublicAPICSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	if err := os.WriteFile(path, []byte("a,b\n1,x\n2,y\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := ReadCSVFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 2 || !f.HasColumn("a") {
		t.Errorf("csv load wrong: %v", f.ColumnNames())
	}
}

func TestPublicAPIHashHelpers(t *testing.T) {
	if OpHash("op", "p") != OpHash("op", "p") {
		t.Error("OpHash must be deterministic")
	}
	if OpHash("op", "p1") == OpHash("op", "p2") {
		t.Error("OpHash must cover params")
	}
	if DeriveColumnID("h", "a") == DeriveColumnID("h", "b") {
		t.Error("DeriveColumnID must cover the input column")
	}
}

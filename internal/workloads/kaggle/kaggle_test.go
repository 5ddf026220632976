package kaggle

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/store"
)

func testSources(t *testing.T) *Sources {
	t.Helper()
	return Generate(Config{Scale: 1, Seed: 42})
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Scale: 1, Seed: 42})
	b := Generate(Config{Scale: 1, Seed: 42})
	if a.AppTrain.NumRows() != b.AppTrain.NumRows() {
		t.Fatal("row counts differ across equal seeds")
	}
	ca := a.AppTrain.Column("AMT_CREDIT").Floats
	cb := b.AppTrain.Column("AMT_CREDIT").Floats
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("row %d differs across equal seeds", i)
		}
	}
	c := Generate(Config{Scale: 1, Seed: 7})
	if c.AppTrain.Column("AMT_CREDIT").Floats[0] == ca[0] {
		t.Error("different seeds should change the data")
	}
}

func TestGenerateShapes(t *testing.T) {
	s := testSources(t)
	if s.AppTrain.NumRows() != 2000 {
		t.Errorf("train rows=%d, want 2000", s.AppTrain.NumRows())
	}
	if !s.AppTrain.HasColumn("TARGET") {
		t.Error("train must have TARGET")
	}
	if s.AppTest.HasColumn("TARGET") {
		t.Error("test must not have TARGET")
	}
	if got := len(s.Frames()); got != 9 {
		t.Errorf("9 source tables expected, got %d", got)
	}
	for i, f := range s.Frames() {
		if f.NumRows() == 0 {
			t.Errorf("table %s is empty", SourceNames[i])
		}
	}
	// Scale multiplies sizes.
	s2 := Generate(Config{Scale: 2, Seed: 42})
	if s2.AppTrain.NumRows() != 4000 {
		t.Errorf("scale 2 train rows=%d, want 4000", s2.AppTrain.NumRows())
	}
}

func TestTargetIsLearnableSignal(t *testing.T) {
	s := testSources(t)
	target := s.AppTrain.Column("TARGET").Floats
	var pos float64
	for _, v := range target {
		pos += v
	}
	rate := pos / float64(len(target))
	if rate < 0.05 || rate > 0.6 {
		t.Errorf("default rate=%.3f outside plausible range", rate)
	}
}

func newServer() *core.Server {
	return core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<31))
}

func TestAllWorkloadsExecute(t *testing.T) {
	s := testSources(t)
	srv := newServer()
	client := core.NewClient(srv)
	for _, wl := range AllWorkloads() {
		w := wl.Build(s)
		if w.Len() < 15 {
			t.Errorf("workload %d suspiciously small: %d vertices", wl.ID, w.Len())
		}
		res, err := client.Run(w)
		if err != nil {
			t.Fatalf("workload %d: %v", wl.ID, err)
		}
		if res.RunTime <= 0 {
			t.Errorf("workload %d: no measured run time", wl.ID)
		}
		// Every workload trains at least one model with real signal.
		bestQ := 0.0
		for _, n := range w.Nodes() {
			if n.Kind == graph.ModelKind && n.Quality > bestQ {
				bestQ = n.Quality
			}
		}
		if bestQ < 0.55 {
			t.Errorf("workload %d: best model AUC=%.3f, want > 0.55", wl.ID, bestQ)
		}
	}
}

func TestWorkloadsShareFeaturePrefixes(t *testing.T) {
	s := testSources(t)
	w1 := Workload1(s)
	w4 := Workload4(s)
	shared := 0
	for _, n := range w4.Nodes() {
		if w1.Node(n.ID) != nil {
			shared++
		}
	}
	// All of w4 except its GBT + eval chain appears in w1.
	if shared < w4.Len()-6 {
		t.Errorf("w1∩w4 = %d of %d vertices; prefixes not shared", shared, w4.Len())
	}
	w2 := Workload2(s)
	w6 := Workload6(s)
	shared26 := 0
	for _, n := range w6.Nodes() {
		if w2.Node(n.ID) != nil {
			shared26++
		}
	}
	if shared26 < w6.Len()-6 {
		t.Errorf("w2∩w6 = %d of %d vertices", shared26, w6.Len())
	}
}

func TestModifiedWorkloadReusesPrefixFromEG(t *testing.T) {
	s := testSources(t)
	srv := newServer()
	client := core.NewClient(srv)
	if _, err := client.Run(Workload1(s)); err != nil {
		t.Fatalf("w1: %v", err)
	}
	r4, err := client.Run(Workload4(s))
	if err != nil {
		t.Fatalf("w4: %v", err)
	}
	if r4.Reused == 0 {
		t.Error("workload 4 should reuse workload 1's feature prefix")
	}
}

func TestWorkload1HasExternalVisualization(t *testing.T) {
	s := testSources(t)
	srv := newServer()
	client := core.NewClient(srv)
	w := Workload1(s)
	if _, err := client.Run(w); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range srv.EG.Vertices() {
		if v.External {
			found = true
			if srv.Store.Has(v.ID) {
				t.Error("external artifact must never be materialized")
			}
		}
	}
	if !found {
		t.Error("workload 1 should register an external KDE artifact")
	}
}

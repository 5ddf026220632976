package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/eg"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/materialize"
	"repro/internal/ops"
	"repro/internal/reuse"
	"repro/internal/store"
)

// syntheticTrain builds a small labelled dataset frame.
func syntheticTrain(rows int, seed int64) *data.Frame {
	rng := rand.New(rand.NewSource(seed))
	price := make([]float64, rows)
	age := make([]float64, rows)
	cat := make([]string, rows)
	y := make([]float64, rows)
	cats := []string{"a", "b", "c"}
	for i := 0; i < rows; i++ {
		price[i] = rng.Float64() * 100
		age[i] = rng.Float64() * 50
		cat[i] = cats[rng.Intn(len(cats))]
		if price[i]+age[i]*2+rng.NormFloat64()*10 > 100 {
			y[i] = 1
		}
	}
	return data.MustNewFrame(
		data.NewFloatColumn("price", price),
		data.NewFloatColumn("age", age),
		data.NewStringColumn("cat", cat),
		data.NewFloatColumn("y", y),
	)
}

// buildWorkload constructs a small but realistic pipeline ending in a
// trained model and an evaluation score.
func buildWorkload(frame *data.Frame, seed int64) (*graph.DAG, *graph.Node) {
	w := graph.NewDAG()
	src := w.AddSource("train.csv", &graph.DatasetArtifact{Frame: frame})
	filled := w.Apply(src, ops.FillNA{})
	oh := w.Apply(filled, ops.OneHot{Col: "cat"})
	feat := w.Apply(oh, ops.Derive{Out: "price_age", Inputs: []string{"price", "age"}, Fn: ops.Ratio})
	model := w.Apply(feat, &ops.Train{
		Spec:  ops.ModelSpec{Kind: "logreg", Params: map[string]float64{"max_iter": 30}, Seed: seed},
		Label: "y",
	})
	eval := w.Combine(ops.Evaluate{Label: "y", Metric: ops.AUC}, model, feat)
	return w, eval
}

func newTestServer(opts ...ServerOption) *Server {
	st := store.New(cost.Memory())
	base := []ServerOption{WithBudget(1 << 30)}
	return NewServer(st, append(base, opts...)...)
}

func TestEndToEndRepeatedRunReuses(t *testing.T) {
	srv := newTestServer()
	client := NewClient(srv)
	frame := syntheticTrain(400, 1)

	w1, _ := buildWorkload(frame, 7)
	r1, err := client.Run(w1)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	if r1.Executed == 0 || r1.Reused != 0 {
		t.Fatalf("first run should execute everything: %+v", r1)
	}
	if srv.EG.Len() == 0 {
		t.Fatal("EG empty after update")
	}

	w2, eval2 := buildWorkload(frame, 7)
	r2, err := client.Run(w2)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if r2.Reused == 0 {
		t.Fatalf("second run should reuse artifacts: %+v", r2)
	}
	if r2.Executed >= r1.Executed {
		t.Errorf("second run executed %d ops, first %d; want fewer", r2.Executed, r1.Executed)
	}
	if r2.RunTime >= r1.RunTime {
		t.Errorf("second run (%v) not faster than first (%v)", r2.RunTime, r1.RunTime)
	}
	if eval2.Content == nil {
		t.Fatal("terminal artifact missing after optimized run")
	}
	score := eval2.Content.(*graph.AggregateArtifact).Value
	if score < 0.5 {
		t.Errorf("AUC=%v, model should beat chance", score)
	}
}

func TestResultsIdenticalWithAndWithoutReuse(t *testing.T) {
	frame := syntheticTrain(300, 2)

	// Baseline: no reuse at all.
	kg := newTestServer(WithPlanner(reuse.AllCompute{}))
	wBase, evalBase := buildWorkload(frame, 3)
	if _, err := NewClient(kg).Run(wBase); err != nil {
		t.Fatalf("baseline: %v", err)
	}

	// Optimized: run twice, the second time with reuse.
	srv := newTestServer()
	c := NewClient(srv)
	wa, _ := buildWorkload(frame, 3)
	if _, err := c.Run(wa); err != nil {
		t.Fatalf("opt run 1: %v", err)
	}
	wb, evalOpt := buildWorkload(frame, 3)
	r, err := c.Run(wb)
	if err != nil {
		t.Fatalf("opt run 2: %v", err)
	}
	if r.Reused == 0 {
		t.Fatal("expected reuse in second optimized run")
	}
	got := evalOpt.Content.(*graph.AggregateArtifact).Value
	want := evalBase.Content.(*graph.AggregateArtifact).Value
	if got != want {
		t.Errorf("reuse changed the result: %v vs %v", got, want)
	}
}

func TestModifiedWorkloadPartialReuse(t *testing.T) {
	srv := newTestServer()
	client := NewClient(srv)
	frame := syntheticTrain(400, 3)

	w1, _ := buildWorkload(frame, 7)
	if _, err := client.Run(w1); err != nil {
		t.Fatalf("run 1: %v", err)
	}

	// Modified workload: same preprocessing prefix, different model.
	w2 := graph.NewDAG()
	src := w2.AddSource("train.csv", &graph.DatasetArtifact{Frame: frame})
	filled := w2.Apply(src, ops.FillNA{})
	oh := w2.Apply(filled, ops.OneHot{Col: "cat"})
	feat := w2.Apply(oh, ops.Derive{Out: "price_age", Inputs: []string{"price", "age"}, Fn: ops.Ratio})
	w2.Apply(feat, &ops.Train{
		Spec:  ops.ModelSpec{Kind: "gbt", Params: map[string]float64{"n_trees": 5}, Seed: 1},
		Label: "y",
	})
	r2, err := client.Run(w2)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if r2.Reused == 0 {
		t.Error("modified workload should reuse the shared prefix")
	}
	if r2.Executed == 0 {
		t.Error("modified workload still has new work (the GBT)")
	}
}

func TestUpdaterStoresSourcesUnconditionally(t *testing.T) {
	// Even with a zero budget, sources are stored.
	srv := newTestServer(WithBudget(0))
	client := NewClient(srv)
	frame := syntheticTrain(100, 4)
	w, _ := buildWorkload(frame, 7)
	if _, err := client.Run(w); err != nil {
		t.Fatal(err)
	}
	srcID := graph.SourceID("train.csv")
	if !srv.Store.Has(srcID) {
		t.Error("source content missing from store")
	}
	// Nothing else fits in a zero budget.
	if n := len(srv.Store.StoredIDs()); n != 1 {
		t.Errorf("stored %d artifacts, want 1 (the source)", n)
	}
}

// TestReadsBetweenUpdatesAskTheStore: what is materialized is the store's to
// say, also between updates. One update stores a source and the frame derived
// from it in a memory budget with no disk tier under it; an upload of a
// larger frame then pushes both out of the store for good. The count /v1/stats
// reports, the collab_eg_materialized gauge, the Experiment Graph's DOT and
// the planner's load costs must all see it at once, not at the next update.
func TestReadsBetweenUpdatesAskTheStore(t *testing.T) {
	frame := func(col string, rows int) *data.Frame {
		return data.MustNewFrame(data.NewFloatColumn(col, make([]float64, rows)))
	}
	const rows = 1024 // 8 KiB a column
	srv := NewServer(store.NewTiered(cost.Memory(), store.Options{MemoryBudget: 64 << 10}))
	w := graph.NewDAG()
	src := w.AddSource("held.csv", &graph.DatasetArtifact{Frame: frame("s", rows)})
	derived := w.Apply(src, ops.FillNA{})
	derived.Content = &graph.DatasetArtifact{Frame: frame("d", rows)}
	large := w.Apply(src, ops.OneHot{Col: "s"})
	for _, n := range []*graph.Node{src, derived, large} {
		n.ComputeTime, n.SizeBytes = time.Second, 8<<10
	}
	large.SizeBytes = 60 << 10
	srv.Update(w, nil, 0)
	if !srv.Store.Has(src.ID) || !srv.Store.Has(derived.ID) || srv.Materialized() != 2 {
		t.Fatalf("the update stored source %v, derived %v; %d materialized, want both",
			srv.Store.Has(src.ID), srv.Store.Has(derived.ID), srv.Materialized())
	}

	if err := srv.PutArtifact(large.ID, &graph.DatasetArtifact{Frame: frame("l", 60*rows/8)}, nil); err != nil {
		t.Fatal(err)
	}
	if srv.Store.Has(src.ID) || srv.Store.Has(derived.ID) || !srv.Store.Has(large.ID) {
		t.Fatal("the upload did not push the source and the derived frame out of the store")
	}
	if n := srv.Materialized(); n != 1 {
		t.Errorf("%d vertices materialized, the store holds 1", n)
	}
	var metrics bytes.Buffer
	if err := srv.Metrics().WritePrometheus(&metrics); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics.String(), "\ncollab_eg_materialized 1\n") {
		t.Errorf("collab_eg_materialized does not read 1:\n%s", metrics.String())
	}
	var dot bytes.Buffer
	if err := explain.WriteEGDOT(srv.EG, srv.Store.Has, &dot); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(dot.String(), "\n")
	for _, n := range []*graph.Node{src, derived, large} {
		i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, `  "`+graph.ShortID(n.ID)+`" [`) })
		if i < 0 || strings.Contains(lines[i], "penwidth") != (n == large) {
			t.Errorf("the graph's DOT does not draw %s held %v:\n%s", n.Name, n == large, dot.String())
		}
	}
	costs := reuse.GatherCosts(w, srv.EG, srv.Store)
	if !math.IsInf(costs.Load[src.ID], 1) || !math.IsInf(costs.Load[derived.ID], 1) || math.IsInf(costs.Load[large.ID], 1) {
		t.Errorf("load costs %v, %v, %v: want the source's and the derived frame's infinite",
			costs.Load[src.ID], costs.Load[derived.ID], costs.Load[large.ID])
	}
}

func TestWarmstartEndToEnd(t *testing.T) {
	srv := newTestServer(WithWarmstart(true))
	client := NewClient(srv)
	frame := syntheticTrain(400, 5)

	// First user trains a logreg with one hyperparameter setting.
	w1 := graph.NewDAG()
	src1 := w1.AddSource("train.csv", &graph.DatasetArtifact{Frame: frame})
	f1 := w1.Apply(src1, ops.FillNA{})
	w1.Apply(f1, &ops.Train{
		Spec:      ops.ModelSpec{Kind: "logreg", Params: map[string]float64{"max_iter": 200, "lr": 0.5}, Seed: 1},
		Label:     "y",
		Warmstart: true,
	})
	if _, err := client.Run(w1); err != nil {
		t.Fatalf("run 1: %v", err)
	}

	// Second user trains the same kind with different hyperparameters —
	// not reusable, but warmstartable.
	w2 := graph.NewDAG()
	src2 := w2.AddSource("train.csv", &graph.DatasetArtifact{Frame: frame})
	f2 := w2.Apply(src2, ops.FillNA{})
	m2 := w2.Apply(f2, &ops.Train{
		Spec:      ops.ModelSpec{Kind: "logreg", Params: map[string]float64{"max_iter": 200, "lr": 0.3}, Seed: 2},
		Label:     "y",
		Warmstart: true,
	})
	r2, err := client.Run(w2)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if r2.WarmstartCandidates == 0 {
		t.Fatal("server proposed no warmstart donors")
	}
	if !m2.Warmstarted {
		t.Error("training op did not adopt the donor")
	}
}

func TestNoWarmstartAcrossModelKinds(t *testing.T) {
	srv := newTestServer(WithWarmstart(true))
	client := NewClient(srv)
	frame := syntheticTrain(200, 6)

	w1 := graph.NewDAG()
	src1 := w1.AddSource("train.csv", &graph.DatasetArtifact{Frame: frame})
	w1.Apply(src1, &ops.Train{
		Spec:      ops.ModelSpec{Kind: "gbt", Params: map[string]float64{"n_trees": 5}, Seed: 1},
		Label:     "y",
		Warmstart: true,
	})
	if _, err := client.Run(w1); err != nil {
		t.Fatal(err)
	}

	w2 := graph.NewDAG()
	src2 := w2.AddSource("train.csv", &graph.DatasetArtifact{Frame: frame})
	w2.Apply(src2, &ops.Train{
		Spec:      ops.ModelSpec{Kind: "logreg", Params: map[string]float64{"lr": 0.2}, Seed: 2},
		Label:     "y",
		Warmstart: true,
	})
	r2, err := client.Run(w2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.WarmstartCandidates != 0 {
		t.Error("logreg must not warmstart from a gbt donor")
	}
}

func TestHelixPlannerSamePlanDifferentCost(t *testing.T) {
	frame := syntheticTrain(300, 8)
	for _, planner := range []reuse.Planner{reuse.Linear{}, reuse.Helix{}} {
		srv := newTestServer(WithPlanner(planner))
		client := NewClient(srv)
		w1, _ := buildWorkload(frame, 7)
		if _, err := client.Run(w1); err != nil {
			t.Fatalf("%s run 1: %v", planner.Name(), err)
		}
		w2, _ := buildWorkload(frame, 7)
		r2, err := client.Run(w2)
		if err != nil {
			t.Fatalf("%s run 2: %v", planner.Name(), err)
		}
		if r2.Reused == 0 {
			t.Errorf("%s: no reuse on repeat run", planner.Name())
		}
	}
}

func TestServerPrunePolicyBoundsEG(t *testing.T) {
	srv := newTestServer(
		WithBudget(0), // nothing materialized → everything prunable
		WithPrunePolicy(eg.PrunePolicy{MaxIdleWorkloads: 3}),
	)
	client := NewClient(srv)
	// Many distinct single-shot workloads on a shared source.
	frame := syntheticTrain(100, 10)
	for i := 0; i < 20; i++ {
		w := graph.NewDAG()
		src := w.AddSource("train.csv", &graph.DatasetArtifact{Frame: frame})
		f := w.Apply(src, ops.Filter{Col: "price", Op: ops.GT, Value: float64(i)})
		w.Apply(f, ops.AggregateCol{Col: "age", Kind: data.AggMean})
		if _, err := client.Run(w); err != nil {
			t.Fatal(err)
		}
	}
	// Without pruning the EG would hold ~1 + 20*2 vertices; the policy
	// keeps only the recent window plus pinned vertices.
	if got := srv.EG.Len(); got > 12 {
		t.Errorf("EG grew to %d vertices despite pruning", got)
	}
	if !srv.EG.Has(graph.SourceID("train.csv")) {
		t.Error("source pruned")
	}
}

func TestMaterializeStrategySwap(t *testing.T) {
	frame := syntheticTrain(200, 9)
	cfg := materialize.Config{Alpha: 0.5, Profile: cost.Memory()}
	for _, strat := range []materialize.Strategy{
		materialize.NewGreedy(cfg),
		materialize.NewStorageAware(cfg),
		materialize.NewHelix(cfg),
		materialize.NewAll(),
	} {
		srv := newTestServer(WithStrategy(strat))
		client := NewClient(srv)
		w, _ := buildWorkload(frame, 7)
		if _, err := client.Run(w); err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
	}
}

// TestUpdateAllocationsDoNotGrowWithTheGraph gates what the scale benchmark
// shows, with a count instead of a timing: the updater allocates per
// workload vertex and per selected artifact, not per Experiment Graph
// vertex. While every update derived Cr and p anew (two |V|-entry maps, an
// in-degree map and two sorted ID lists, five times over) the count grew
// with the graph; a slice that doubles as it fills still adds an allocation
// per doubling, hence a ratio and not equality.
func TestUpdateAllocationsDoNotGrowWithTheGraph(t *testing.T) {
	allocs := func(vertices int) float64 {
		srv, next := scaleServer(t, vertices)
		i := 0
		return stagedAllocsPerCall(func() func() {
			w := next(i)
			i++
			return func() { srv.Update(w, nil, 0) }
		})
	}
	small, large := allocs(500), allocs(5000)
	t.Logf("allocations per 5-vertex update: %.0f on 500 vertices, %.0f on 5000", small, large)
	if large >= 1.5*small {
		t.Errorf("Update allocates %.0f times on a 5000-vertex graph, %.0f on a 500-vertex one: it grows with the graph", large, small)
	}
}

// TestUpdateBytesDoNotGrowWithTheGraph is the byte count beside the
// allocation count above, under a budget every candidate fits (the default
// 1 GiB binds on the 5 000-vertex universe) and explain off. While each
// update listed and mapped the whole selection, copied the vertex list and
// scanned every stored ID, the bytes grew with the graph (785 against 84 KB
// per update at 5 000 and 500 vertices) although the count of allocations
// did not.
func TestUpdateBytesDoNotGrowWithTheGraph(t *testing.T) {
	bytes := func(vertices int) float64 {
		srv, next := scaleServer(t, vertices, WithBudget(1<<40))
		i := 0
		return stagedBytesPerCall(func() func() {
			w := next(i)
			i++
			return func() { srv.Update(w, nil, 0) }
		})
	}
	small, large := bytes(500), bytes(5000)
	t.Logf("bytes per 5-vertex update: %.0f on 500 vertices, %.0f on 5000", small, large)
	if large >= 1.5*small {
		t.Errorf("Update allocates %.0f bytes on a 5000-vertex graph, %.0f on a 500-vertex one: it grows with the graph", large, small)
	}
}

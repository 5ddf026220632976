package reuse

import (
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/eg"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/tier"
)

// TestPlannerPricesArtifactTier: the same artifact flips the planner's
// load-vs-compute decision when it moves between tiers. With a 1 ms compute
// cost, the memory-tier load (~20 µs) wins and the vertex is reused; after
// demotion the disk-tier load (~3 ms latency floor) loses and the planner
// recomputes — Cl(v) follows the bytes.
func TestPlannerPricesArtifactTier(t *testing.T) {
	build := func() (*graph.DAG, *graph.Node) {
		w := graph.NewDAG()
		s := w.AddSource("s", &graph.AggregateArtifact{})
		a := w.Apply(s, stubOp{"a", graph.DatasetKind})
		w.Apply(a, stubOp{"t", graph.DatasetKind})
		return w, a
	}
	w, a := build()
	a.ComputeTime = time.Millisecond
	a.SizeBytes = 100
	a.Content = &graph.AggregateArtifact{Value: 1}

	g := eg.New()
	g.Merge(w)
	d, _, err := tier.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewTiered(cost.Memory(), store.Options{Disk: d})
	if err := st.Put(a.ID, a.Content); err != nil {
		t.Fatal(err)
	}
	g.SetMaterialized(a.ID, true)

	// Memory-resident: Cl ≈ 20 µs < Ci = 1 ms → load.
	w2, a2 := build()
	costs := GatherCosts(w2, g, st)
	if cl, ci := costs.Load[a2.ID], costs.Compute[a2.ID]; cl >= ci {
		t.Fatalf("memory-resident: Cl=%v should beat Ci=%v", cl, ci)
	}
	if plan := (Linear{}).Plan(w2, costs); !plan.Reuse[a2.ID] {
		t.Fatal("planner should load the memory-resident artifact")
	}

	// Demoted to disk: Cl ≈ 3 ms > Ci = 1 ms → compute.
	if err := st.Demote(a.ID); err != nil {
		t.Fatal(err)
	}
	w3, a3 := build()
	costs = GatherCosts(w3, g, st)
	if cl, ci := costs.Load[a3.ID], costs.Compute[a3.ID]; cl <= ci {
		t.Fatalf("disk-resident: Cl=%v should exceed Ci=%v", cl, ci)
	}
	if plan := (Linear{}).Plan(w3, costs); plan.Reuse[a3.ID] {
		t.Fatal("planner should recompute rather than load from disk")
	}

	// A slow vertex flips back: Ci = 1 s ≫ Cl_disk → load from disk
	// (Cl_disk(v) < Cr(v), the tentpole's planner-integration criterion).
	g.Vertex(a.ID).ComputeTime = time.Second
	w4, a4 := build()
	costs = GatherCosts(w4, g, st)
	if plan := (Linear{}).Plan(w4, costs); !plan.Reuse[a4.ID] {
		t.Fatal("planner should load the expensive vertex from disk")
	}
}

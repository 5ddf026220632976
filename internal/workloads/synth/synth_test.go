package synth

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/reuse"
)

func TestGenerateSizeBounds(t *testing.T) {
	p := DefaultProfile()
	for seed := int64(0); seed < 10; seed++ {
		w := Generate(p, seed)
		if w.Nodes < p.MinNodes || w.Nodes > p.MaxNodes+10 {
			t.Errorf("seed %d: %d nodes outside [%d,%d]", seed, w.Nodes, p.MinNodes, p.MaxNodes)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultProfile()
	a := Generate(p, 5)
	b := Generate(p, 5)
	if a.Nodes != b.Nodes {
		t.Fatal("node counts differ for equal seeds")
	}
	for id, c := range a.Costs.Compute {
		if b.Costs.Compute[id] != c {
			t.Fatal("costs differ for equal seeds")
		}
	}
}

func TestMaterializedRatioApproximate(t *testing.T) {
	p := DefaultProfile()
	w := Generate(p, 1)
	mat, tot := 0, 0
	for id, load := range w.Costs.Load {
		if w.Costs.Compute[id] == 0 {
			continue // sources and supernodes
		}
		tot++
		if !math.IsInf(load, 1) {
			mat++
		}
	}
	ratio := float64(mat) / float64(tot)
	if ratio < p.MaterializedRatio-0.1 || ratio > p.MaterializedRatio+0.1 {
		t.Errorf("materialized ratio %.3f, want ~%.2f", ratio, p.MaterializedRatio)
	}
}

func TestWideShape(t *testing.T) {
	p := WideProfile{Branches: 4, Depth: 3}
	w := Wide(p, 7)
	// 1 source + 4*3 chain ops + 1 supernode + 1 merge.
	if got, want := w.Len(), 1+4*3+2; got != want {
		t.Fatalf("Wide DAG has %d vertices, want %d", got, want)
	}
	terms := w.Terminals()
	if len(terms) != 1 {
		t.Fatalf("Wide DAG has %d terminals, want 1", len(terms))
	}
	// Determinism: same profile and seed yield identical vertex IDs.
	again := Wide(p, 7)
	a, b := w.Nodes(), again.Nodes()
	if len(a) != len(b) {
		t.Fatal("Wide is not deterministic for equal seeds")
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("Wide is not deterministic for equal seeds")
		}
	}
	// Executability: every non-source, non-supernode vertex has an op.
	for _, n := range w.Nodes() {
		if n.IsSource() || n.Kind == graph.SupernodeKind {
			continue
		}
		if n.Op == nil {
			t.Fatalf("vertex %s has no op", n.Name)
		}
		if _, err := n.Op.Run(nil); err != nil {
			t.Fatalf("op %s: %v", n.Name, err)
		}
	}
}

func TestPlannersHandleGeneratedWorkloads(t *testing.T) {
	p := DefaultProfile()
	p.MinNodes, p.MaxNodes = 100, 200 // keep the test fast
	for seed := int64(0); seed < 5; seed++ {
		w := Generate(p, seed)
		lp := reuse.Linear{}.Plan(w.DAG, w.Costs)
		hp := reuse.Helix{}.Plan(w.DAG, w.Costs)
		if len(lp.Reuse) != len(hp.Reuse) {
			t.Errorf("seed %d: plans differ LN=%d HL=%d", seed, len(lp.Reuse), len(hp.Reuse))
		}
	}
}

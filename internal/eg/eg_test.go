package eg

import (
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/graph"
)

type stubOp struct {
	name string
	kind graph.Kind
	ext  bool
}

func (o stubOp) Name() string        { return o.name }
func (o stubOp) Hash() string        { return graph.OpHash(o.name, "") }
func (o stubOp) OutKind() graph.Kind { return o.kind }
func (o stubOp) External() bool      { return o.ext }
func (o stubOp) Run([]graph.Artifact) (graph.Artifact, error) {
	return &graph.AggregateArtifact{}, nil
}

// buildChain returns a DAG src -> a -> b with annotations set as if
// executed.
func buildChain() (*graph.DAG, *graph.Node, *graph.Node, *graph.Node) {
	w := graph.NewDAG()
	src := w.AddSource("train", &graph.AggregateArtifact{Value: 1})
	a := w.Apply(src, stubOp{name: "a", kind: graph.DatasetKind})
	b := w.Apply(a, stubOp{name: "b", kind: graph.ModelKind})
	src.ComputeTime = 0
	src.SizeBytes = 100
	a.ComputeTime = 2 * time.Second
	a.SizeBytes = 1000
	b.ComputeTime = 3 * time.Second
	b.SizeBytes = 50
	b.Quality = 0.8
	return w, src, a, b
}

func TestMergeInsertsAndCounts(t *testing.T) {
	g := New()
	w, src, a, b := buildChain()
	inserted := g.Merge(w)
	if len(inserted) != 3 {
		t.Fatalf("inserted %d, want 3", len(inserted))
	}
	if g.Len() != 3 {
		t.Fatalf("Len=%d, want 3", g.Len())
	}
	for _, id := range []string{src.ID, a.ID, b.ID} {
		v := g.Vertex(id)
		if v == nil || v.Frequency != 1 {
			t.Errorf("vertex %s freq wrong: %+v", id, v)
		}
	}
	// Merge again: no inserts, frequency bumps.
	w2, _, _, _ := buildChain()
	if ins := g.Merge(w2); len(ins) != 0 {
		t.Errorf("second merge inserted %d, want 0", len(ins))
	}
	if g.Vertex(a.ID).Frequency != 2 {
		t.Errorf("freq=%d, want 2", g.Vertex(a.ID).Frequency)
	}
	if got := g.Vertex(b.ID).Quality; got != 0.8 {
		t.Errorf("quality=%v, want 0.8", got)
	}
	if len(g.Sources()) != 1 {
		t.Errorf("sources=%v", g.Sources())
	}
}

func TestRecreationCostsOnePassDP(t *testing.T) {
	g := New()
	w, src, a, b := buildChain()
	g.Merge(w)
	cr := func(id string) time.Duration { return g.Vertex(id).RecreationCost() }
	if cr(src.ID) != 0 {
		t.Errorf("source Cr=%v, want 0", cr(src.ID))
	}
	if cr(a.ID) != 2*time.Second {
		t.Errorf("Cr(a)=%v, want 2s", cr(a.ID))
	}
	if cr(b.ID) != 5*time.Second {
		t.Errorf("Cr(b)=%v, want 5s", cr(b.ID))
	}
}

func TestPotentialsPropagateUpstream(t *testing.T) {
	g := New()
	w, src, a, b := buildChain()
	g.Merge(w)
	p := func(id string) float64 { return g.Vertex(id).Potential() }
	if p(b.ID) != 0.8 {
		t.Errorf("p(model)=%v, want 0.8", p(b.ID))
	}
	if p(a.ID) != 0.8 || p(src.ID) != 0.8 {
		t.Errorf("upstream potentials %v / %v, want 0.8", p(a.ID), p(src.ID))
	}
	// A vertex with no reachable model has potential 0.
	w2 := graph.NewDAG()
	s2 := w2.AddSource("other", &graph.AggregateArtifact{})
	c := w2.Apply(s2, stubOp{name: "c", kind: graph.DatasetKind})
	g.Merge(w2)
	if got := p(c.ID); got != 0 {
		t.Errorf("p(no-model path)=%v, want 0", got)
	}
}

func TestPotentialTakesMaxOverModels(t *testing.T) {
	g := New()
	w := graph.NewDAG()
	src := w.AddSource("s", &graph.AggregateArtifact{})
	m1 := w.Apply(src, stubOp{name: "m1", kind: graph.ModelKind})
	m2 := w.Apply(src, stubOp{name: "m2", kind: graph.ModelKind})
	m1.Quality = 0.6
	m2.Quality = 0.9
	g.Merge(w)
	if got := g.Vertex(src.ID).Potential(); got != 0.9 {
		t.Errorf("p(src)=%v, want max quality 0.9", got)
	}
}

func TestExternalFlagPropagates(t *testing.T) {
	g := New()
	w := graph.NewDAG()
	src := w.AddSource("s", &graph.AggregateArtifact{})
	kde := w.Apply(src, stubOp{name: "kde", kind: graph.AggregateKind, ext: true})
	g.Merge(w)
	if !g.Vertex(kde.ID).External {
		t.Error("external op output must be flagged External")
	}
}

func TestDedupedSizeCountsSharedColumnsOnce(t *testing.T) {
	g := New()
	w := graph.NewDAG()
	shared := data.NewFloatColumn("x", []float64{1, 2, 3, 4})
	f1 := data.MustNewFrame(shared, data.NewFloatColumn("y", []float64{1, 2, 3, 4}))
	f2 := data.MustNewFrame(shared) // shares column x
	src := w.AddSource("s", &graph.DatasetArtifact{Frame: f1})
	sel := w.Apply(src, stubOp{name: "sel", kind: graph.DatasetKind})
	sel.Content = &graph.DatasetArtifact{Frame: f2}
	sel.SizeBytes = f2.SizeBytes()
	src.SizeBytes = f1.SizeBytes()
	g.Merge(w)
	logical := g.Vertex(src.ID).SizeBytes + g.Vertex(sel.ID).SizeBytes
	deduped := g.DedupedSize([]string{src.ID, sel.ID})
	if logical != 96 { // 64 + 32
		t.Errorf("logical=%d, want 96", logical)
	}
	if deduped != 64 { // x counted once
		t.Errorf("deduped=%d, want 64", deduped)
	}
}

func TestTopoOrderParentsFirst(t *testing.T) {
	g := New()
	w, _, _, _ := buildChain()
	g.Merge(w)
	order := g.TopoOrder()
	pos := make(map[string]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, v := range g.Vertices() {
		for _, p := range v.Parents {
			if pos[p] >= pos[v.ID] {
				t.Fatalf("parent %s after child %s", p, v.ID)
			}
		}
	}
}

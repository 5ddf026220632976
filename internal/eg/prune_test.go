package eg

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/graph"
)

// mergeChain merges a fresh 2-vertex chain named by tag and returns it.
func mergeChain(g *Graph, tag string) (*graph.Node, *graph.Node) {
	w := graph.NewDAG()
	src := w.AddSource("shared-src", &graph.AggregateArtifact{})
	a := w.Apply(src, stubOp{name: "a-" + tag, kind: graph.DatasetKind})
	a.ComputeTime = time.Millisecond
	a.SizeBytes = 10
	g.Merge(w)
	return src, a
}

func TestPruneDropsStaleUnmaterialized(t *testing.T) {
	g := New()
	_, old := mergeChain(g, "old")
	// 5 more workloads keep the clock ticking.
	for i := 0; i < 5; i++ {
		mergeChain(g, fmt.Sprintf("fresh-%d", i))
	}
	removed := g.Prune(PrunePolicy{MaxIdleWorkloads: 3})
	if len(removed) == 0 {
		t.Fatal("nothing pruned")
	}
	if g.Has(old.ID) {
		t.Error("stale vertex survived")
	}
	if !g.Has(graph.SourceID("shared-src")) {
		t.Error("source must never be pruned")
	}
	// Recent vertices survive.
	if got := g.Len(); got < 4 {
		t.Errorf("pruned too aggressively: %d vertices left", got)
	}
}

func TestPruneKeepsMaterializedAndFrequent(t *testing.T) {
	g := New()
	_, hot := mergeChain(g, "hot")
	_, mat := mergeChain(g, "mat")
	g.SetMaterialized(mat.ID, true)
	// Re-merge "hot" many times to raise its frequency.
	for i := 0; i < 4; i++ {
		mergeChain(g, "hot")
	}
	for i := 0; i < 10; i++ {
		mergeChain(g, fmt.Sprintf("noise-%d", i))
	}
	g.Prune(PrunePolicy{MaxIdleWorkloads: 2, MinFrequency: 3})
	if !g.Has(hot.ID) {
		t.Error("frequent vertex pruned")
	}
	if !g.Has(mat.ID) {
		t.Error("materialized vertex pruned")
	}
}

func TestPruneRemovesWholeSubtreesOnly(t *testing.T) {
	g := New()
	w := graph.NewDAG()
	src := w.AddSource("s", &graph.AggregateArtifact{})
	mid := w.Apply(src, stubOp{name: "mid", kind: graph.DatasetKind})
	leaf := w.Apply(mid, stubOp{name: "leaf", kind: graph.DatasetKind})
	g.Merge(w)
	g.SetMaterialized(leaf.ID, true) // leaf pinned

	for i := 0; i < 10; i++ {
		mergeChain(g, fmt.Sprintf("n-%d", i))
	}
	g.Prune(PrunePolicy{MaxIdleWorkloads: 2})
	// mid must survive because its child survives.
	if !g.Has(mid.ID) {
		t.Error("parent of a surviving child was pruned")
	}
	// Graph invariants: all parent references resolve.
	for _, v := range g.Vertices() {
		for _, p := range v.Parents {
			if !g.Has(p) {
				t.Errorf("dangling parent %s of %s", p, v.ID)
			}
		}
		for _, c := range v.Children {
			if !g.Has(c) {
				t.Errorf("dangling child %s of %s", c, v.ID)
			}
		}
	}
}

func TestPruneDisabledPolicy(t *testing.T) {
	g := New()
	mergeChain(g, "x")
	if removed := g.Prune(PrunePolicy{}); removed != nil {
		t.Errorf("disabled policy removed %v", removed)
	}
}

func TestPruneGarbageCollectsColumnSizes(t *testing.T) {
	g := New()
	w := graph.NewDAG()
	src := w.AddSource("s2", &graph.AggregateArtifact{})
	n := w.Apply(src, stubOp{name: "cols", kind: graph.DatasetKind})
	n.Columns, n.ColSizes = []string{"col-1"}, []int64{64}
	g.Merge(w)
	if g.ColumnSize("col-1") != 64 {
		t.Fatal("column size not recorded")
	}
	for i := 0; i < 10; i++ {
		mergeChain(g, fmt.Sprintf("m-%d", i))
	}
	g.Prune(PrunePolicy{MaxIdleWorkloads: 2})
	if g.Has(n.ID) {
		t.Fatal("vertex should be pruned")
	}
	if g.ColumnSize("col-1") != 0 {
		t.Error("column size not garbage-collected")
	}
}

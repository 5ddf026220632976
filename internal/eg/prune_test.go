package eg

import (
	"fmt"
	"slices"
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

// held is the keep predicate of a store that holds the given vertices.
func held(ids ...string) func(string) bool {
	return func(id string) bool { return slices.Contains(ids, id) }
}

func TestPruneDropsStaleUnmaterialized(t *testing.T) {
	g := New()
	_, old := mergeChain(g, "old")
	// 5 more workloads keep the clock ticking.
	for i := 0; i < 5; i++ {
		mergeChain(g, fmt.Sprintf("fresh-%d", i))
	}
	removed := g.Prune(PrunePolicy{MaxIdleWorkloads: 3}, held())
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

// TestPruneAfterRestoreKeepsTheIdleClock: a graph restored from its
// snapshot prunes what the live graph prunes, because the prune clock
// resumes where the snapshot left it rather than at zero, where every
// restored vertex would look freshly seen.
func TestPruneAfterRestoreKeepsTheIdleClock(t *testing.T) {
	live := New()
	for i := 0; i < 21; i++ {
		mergeChain(live, fmt.Sprintf("w%d", i))
	}
	restored := FromSnapshot(live.Snapshot())
	for _, g := range []*Graph{live, restored} {
		mergeChain(g, "next-0")
		mergeChain(g, "next-1")
	}
	want := live.Prune(PrunePolicy{MaxIdleWorkloads: 3}, held())
	got := restored.Prune(PrunePolicy{MaxIdleWorkloads: 3}, held())
	slices.Sort(want)
	slices.Sort(got)
	if len(want) != 19 || !slices.Equal(got, want) {
		t.Errorf("restored graph pruned %d vertices, the live one %d; want the same 19", len(got), len(want))
	}
}

func TestPruneKeepsMaterializedAndFrequent(t *testing.T) {
	g := New()
	_, hot := mergeChain(g, "hot")
	_, mat := mergeChain(g, "mat")
	// Re-merge "hot" many times to raise its frequency.
	for i := 0; i < 4; i++ {
		mergeChain(g, "hot")
	}
	for i := 0; i < 10; i++ {
		mergeChain(g, fmt.Sprintf("noise-%d", i))
	}
	g.Prune(PrunePolicy{MaxIdleWorkloads: 2, MinFrequency: 3}, held(mat.ID))
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

	for i := 0; i < 10; i++ {
		mergeChain(g, fmt.Sprintf("n-%d", i))
	}
	g.Prune(PrunePolicy{MaxIdleWorkloads: 2}, held(leaf.ID)) // leaf pinned
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
	if removed := g.Prune(PrunePolicy{}, held()); removed != nil {
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
	if g.colSizes["col-1"] != 64 {
		t.Fatal("column size not recorded")
	}
	for i := 0; i < 10; i++ {
		mergeChain(g, fmt.Sprintf("m-%d", i))
	}
	g.Prune(PrunePolicy{MaxIdleWorkloads: 2}, held())
	if g.Has(n.ID) {
		t.Fatal("vertex should be pruned")
	}
	if _, ok := g.colSizes["col-1"]; ok {
		t.Error("column size not garbage-collected")
	}
}

package eg_test

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/eg"
	"repro/internal/eg/egtest"
	"repro/internal/graph"
	"repro/internal/workloads/synth"
)

// gobRoundTrip is what persist does to a snapshot between two processes.
func gobRoundTrip(t testing.TB, s *eg.Snapshot) *eg.Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	var out eg.Snapshot
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestMaintainedStateEqualsFromScratch is the exactness property the
// updater rests on: after any sequence of merges (overlapping workloads
// with diamonds, vertices re-executed with compute times and qualities that
// move both ways), prunes and snapshot round trips, the Cr, p, ID-sorted
// view and topological order the graph maintains equal — with ==, not
// within a tolerance — what the one-pass derivation gives from scratch.
func TestMaintainedStateEqualsFromScratch(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u := synth.NewUniverse(seed, 30+rng.Intn(220))
		g := eg.New()
		for step := 0; step < 80; step++ {
			op := "merge"
			switch r := rng.Intn(12); {
			case r == 0:
				op = "prune"
				g.Prune(eg.PrunePolicy{MaxIdleWorkloads: 1 + rng.Intn(4), MinFrequency: rng.Intn(3)})
			case r == 1:
				op = "restore"
				g = eg.FromSnapshot(gobRoundTrip(t, g.Snapshot()))
			case r == 2 && g.Len() > 0:
				op = "materialize"
				vs := g.Vertices()
				g.SetMaterialized(vs[rng.Intn(len(vs))].ID, rng.Intn(3) > 0)
			default:
				targets := make([]int, 1+rng.Intn(4))
				for i := range targets {
					targets[i] = rng.Intn(u.Len())
				}
				g.Merge(u.Workload(rng, targets...))
			}
			err := egtest.Check(g)
			if err == nil {
				err = g.CheckOrder()
			}
			if err != nil {
				t.Errorf("seed %d, step %d (%s): %v", seed, step, op, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

type op struct {
	name string
	kind graph.Kind
}

func (o op) Name() string        { return o.name }
func (o op) Hash() string        { return graph.OpHash(o.name, "") }
func (o op) OutKind() graph.Kind { return o.kind }
func (o op) Run([]graph.Artifact) (graph.Artifact, error) {
	return &graph.AggregateArtifact{}, nil
}

// TestDerivedStateFollowsReexecution walks the three cases the refresh
// distinguishes on one diamond: src → a → {l, r} → super → m (model). A
// changed compute time reaches the descendants only, along every path; a
// quality that falls lowers the ancestors' potential; a new, better model
// elsewhere raises it again.
func TestDerivedStateFollowsReexecution(t *testing.T) {
	build := func(ta time.Duration, q float64) (*graph.DAG, map[string]*graph.Node) {
		w := graph.NewDAG()
		src := w.AddSource("s", &graph.AggregateArtifact{})
		a := w.Apply(src, op{"a", graph.DatasetKind})
		l := w.Apply(a, op{"l", graph.DatasetKind})
		r := w.Apply(a, op{"r", graph.DatasetKind})
		m := w.Combine(op{"m", graph.ModelKind}, l, r)
		a.ComputeTime, l.ComputeTime, r.ComputeTime, m.ComputeTime = ta, time.Second, 2*time.Second, 4*time.Second
		m.Quality = q
		return w, map[string]*graph.Node{"src": src, "a": a, "l": l, "r": r, "m": m}
	}
	g := eg.New()
	w, n := build(10*time.Second, 0.9)
	g.Merge(w)
	cr := func(k string) time.Duration { return g.Vertex(n[k].ID).RecreationCost() }
	pot := func(k string) float64 { return g.Vertex(n[k].ID).Potential() }
	// The diamond counts a once per path: 4 + (1+10) + (2+10).
	if cr("m") != 27*time.Second || pot("src") != 0.9 {
		t.Fatalf("Cr(m)=%v p(src)=%v, want 27s, 0.9", cr("m"), pot("src"))
	}
	w, _ = build(time.Second, 0.4) // a got faster, m got worse
	g.Merge(w)
	if cr("a") != time.Second || cr("l") != 2*time.Second || cr("m") != 9*time.Second {
		t.Errorf("after a sped up: Cr a=%v l=%v m=%v, want 1s 2s 9s", cr("a"), cr("l"), cr("m"))
	}
	if pot("m") != 0.4 || pot("a") != 0.4 || pot("src") != 0.4 {
		t.Errorf("after m fell to 0.4: p m=%v a=%v src=%v", pot("m"), pot("a"), pot("src"))
	}
	w2 := graph.NewDAG()
	m2 := w2.Apply(w2.AddSource("s", &graph.AggregateArtifact{}), op{"m2", graph.ModelKind})
	m2.Quality = 0.7
	g.Merge(w2)
	if pot("src") != 0.7 || pot("a") != 0.4 {
		t.Errorf("after m2=0.7 under src: p src=%v a=%v, want 0.7 0.4", pot("src"), pot("a"))
	}
	if err := egtest.Check(g); err != nil {
		t.Error(err)
	}
}

// TestMergeSkipsVerticesWithoutTheirParents pins what Merge does with a
// node whose parent the graph has no record of: nothing is inserted for it
// or for what descends from it, the rest of the workload merges, and the
// same nodes merge normally once the parent is known.
func TestMergeSkipsVerticesWithoutTheirParents(t *testing.T) {
	full := graph.NewDAG()
	src := full.AddSource("s", &graph.AggregateArtifact{})
	a := full.Apply(src, op{"a", graph.DatasetKind})
	b := full.Apply(a, op{"b", graph.DatasetKind})
	c := full.Apply(b, op{"c", graph.DatasetKind})
	b.ComputeTime, c.ComputeTime = time.Second, time.Second

	// A workload that holds b and c but not their ancestors, plus an
	// unrelated, well-formed source.
	orphan := graph.NewDAG()
	orphan.Adopt(b)
	orphan.Adopt(c)
	other := orphan.AddSource("other", &graph.AggregateArtifact{})

	g := eg.New()
	if ins := g.Merge(orphan); len(ins) != 1 || ins[0] != other.ID {
		t.Fatalf("inserted %v, want only the source %s", ins, other.ID)
	}
	if g.Has(b.ID) || g.Has(c.ID) {
		t.Error("a vertex was inserted without its parents")
	}
	if err := egtest.Check(g); err != nil {
		t.Error(err)
	}
	g.Merge(full)
	if !g.Has(b.ID) || !g.Has(c.ID) || g.Vertex(c.ID).RecreationCost() != 2*time.Second {
		t.Error("the same vertices did not merge once their ancestors were known")
	}
	// b's parent is in the graph now: the two-node workload is enough.
	if ins := g.Merge(orphan); len(ins) != 0 || g.Vertex(c.ID).Frequency != 2 {
		t.Errorf("re-merge inserted %v, frequency of c %d", ins, g.Vertex(c.ID).Frequency)
	}
}

// TestFromSnapshotDropsVerticesWithoutTheirParents: the same invariant at
// the other entrance. A snapshot that holds a vertex but not its parent
// (written by a server that merged such a vertex) restores without it and
// without its descendants.
func TestFromSnapshotDropsVerticesWithoutTheirParents(t *testing.T) {
	g := eg.New()
	w := graph.NewDAG()
	src := w.AddSource("s", &graph.AggregateArtifact{})
	a := w.Apply(src, op{"a", graph.DatasetKind})
	b := w.Apply(a, op{"b", graph.DatasetKind})
	g.Merge(w)
	snap := g.Snapshot()
	kept := snap.Vertices[:0]
	for _, v := range snap.Vertices {
		if v.ID != a.ID {
			kept = append(kept, v)
		}
	}
	snap.Vertices = kept
	g2 := eg.FromSnapshot(snap)
	if g2.Len() != 1 || !g2.Has(src.ID) || g2.Has(b.ID) {
		t.Errorf("restored %d vertices (b present: %v), want the source alone", g2.Len(), g2.Has(b.ID))
	}
	if c := g2.Vertex(src.ID).Children; len(c) != 0 {
		t.Errorf("source keeps dangling children %v", c)
	}
	if err := egtest.Check(g2); err != nil {
		t.Error(err)
	}
}

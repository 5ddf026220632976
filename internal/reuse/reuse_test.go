package reuse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/eg"
	"repro/internal/graph"
	"repro/internal/store"
)

type stubOp struct {
	name string
	kind graph.Kind
}

func (o stubOp) Name() string        { return o.name }
func (o stubOp) Hash() string        { return graph.OpHash(o.name, "") }
func (o stubOp) OutKind() graph.Kind { return o.kind }
func (o stubOp) Run([]graph.Artifact) (graph.Artifact, error) {
	return &graph.AggregateArtifact{}, nil
}

// figure3 reconstructs the worked example of Figure 3 in the paper.
// Expected: forward-pass selects {v1, v3}; backward-pass prunes to {v3}.
func figure3() (w *graph.DAG, costs Costs, v1, v2, v3, terminal *graph.Node) {
	w = graph.NewDAG()
	content := &graph.AggregateArtifact{}
	s1 := w.AddSource("s1", content)
	s2 := w.AddSource("s2", content)
	s3 := w.AddSource("s3", content)

	nA := w.Apply(s1, stubOp{"A", graph.DatasetKind})       // unmaterialized, Ci=10
	v1 = w.Apply(s2, stubOp{"v1", graph.DatasetKind})       // materialized, ⟨10,5⟩
	v2 = w.Combine(stubOp{"v2", graph.DatasetKind}, nA, v1) // materialized, ⟨1,17⟩
	nC := w.Apply(s3, stubOp{"C", graph.DatasetKind})       // computed on client, ⟨0,∞⟩
	nC.Content = content
	nC.Computed = true
	v3 = w.Combine(stubOp{"v3", graph.DatasetKind}, v2, nC) // materialized, ⟨5,20⟩
	terminal = w.Apply(v3, stubOp{"T", graph.DatasetKind})  // not in EG

	inf := math.Inf(1)
	costs = Costs{Compute: map[string]float64{}, Load: map[string]float64{}}
	for _, n := range w.Nodes() {
		costs.Compute[n.ID] = inf
		costs.Load[n.ID] = inf
	}
	costs.Compute[nA.ID] = 10
	costs.Compute[v1.ID] = 10
	costs.Load[v1.ID] = 5
	costs.Compute[v2.ID] = 1
	costs.Load[v2.ID] = 17
	costs.Compute[nC.ID] = 0
	costs.Compute[v3.ID] = 5
	costs.Load[v3.ID] = 20
	for _, n := range w.Nodes() {
		if n.Kind == graph.SupernodeKind {
			costs.Compute[n.ID] = 0
		}
	}
	return w, costs, v1, v2, v3, terminal
}

func TestLinearReproducesFigure3(t *testing.T) {
	w, costs, v1, v2, v3, _ := figure3()
	plan := Linear{}.Plan(w, costs)
	if plan.Reuse[v1.ID] {
		t.Error("v1 must be pruned by the backward pass")
	}
	if plan.Reuse[v2.ID] {
		t.Error("v2 must be computed (exec 16 < load 17)")
	}
	if !plan.Reuse[v3.ID] {
		t.Error("v3 must be loaded (exec 21 > load 20)")
	}
	if got := plan.RecreationCost[v2.ID]; got != 16 {
		t.Errorf("T(v2)=%v, want 16", got)
	}
	if got := plan.RecreationCost[v3.ID]; got != 20 {
		t.Errorf("T(v3)=%v, want 20", got)
	}
	if got := plan.RecreationCost[v1.ID]; got != 5 {
		t.Errorf("T(v1)=%v, want 5 (forward pass loads it)", got)
	}
}

func TestHelixMatchesLinearOnFigure3(t *testing.T) {
	w, costs, _, _, _, _ := figure3()
	lp := Linear{}.Plan(w, costs)
	hp := Helix{}.Plan(w, costs)
	if len(lp.Reuse) != len(hp.Reuse) {
		t.Fatalf("plan sizes differ: LN=%v HL=%v", lp.Reuse, hp.Reuse)
	}
	for id := range lp.Reuse {
		if !hp.Reuse[id] {
			t.Errorf("HL missing reuse vertex %s", id)
		}
	}
}

// randomWorkload builds a DAG with the given node count plus random costs,
// mimicking the §7.4 synthetic-workload construction.
func randomWorkload(rng *rand.Rand, nodes int) (*graph.DAG, Costs) {
	w := graph.NewDAG()
	content := &graph.AggregateArtifact{}
	var pool []*graph.Node
	nSources := 1 + rng.Intn(3)
	for i := 0; i < nSources; i++ {
		pool = append(pool, w.AddSource(fmt.Sprintf("s%d", i), content))
	}
	for i := 0; i < nodes; i++ {
		op := stubOp{fmt.Sprintf("op%d", i), graph.DatasetKind}
		if rng.Float64() < 0.2 && len(pool) >= 2 {
			a := pool[rng.Intn(len(pool))]
			b := pool[rng.Intn(len(pool))]
			if a != b {
				pool = append(pool, w.Combine(op, a, b))
				continue
			}
		}
		parent := pool[rng.Intn(len(pool))]
		pool = append(pool, w.Apply(parent, op))
	}
	inf := math.Inf(1)
	costs := Costs{Compute: map[string]float64{}, Load: map[string]float64{}}
	for _, n := range w.Nodes() {
		switch {
		case n.IsSource():
			costs.Compute[n.ID] = 0
			costs.Load[n.ID] = inf
		case n.Kind == graph.SupernodeKind:
			costs.Compute[n.ID] = 0
			costs.Load[n.ID] = inf
		default:
			costs.Compute[n.ID] = rng.Float64() * 10
			if rng.Float64() < 0.4 { // materialized
				costs.Load[n.ID] = rng.Float64() * 20
			} else {
				costs.Load[n.ID] = inf
			}
		}
	}
	return w, costs
}

func TestHelixMatchesLinearOnRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		w, costs := randomWorkload(rng, 5+rng.Intn(60))
		lp := Linear{}.Plan(w, costs)
		hp := Helix{}.Plan(w, costs)
		if len(lp.Reuse) != len(hp.Reuse) {
			t.Fatalf("trial %d: sizes differ LN=%d HL=%d", trial, len(lp.Reuse), len(hp.Reuse))
		}
		for id := range lp.Reuse {
			if !hp.Reuse[id] {
				t.Fatalf("trial %d: HL plan differs at %s", trial, id)
			}
		}
	}
}

func TestLinearNeverLoadsUnmaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		w, costs := randomWorkload(rng, 40)
		plan := Linear{}.Plan(w, costs)
		for id := range plan.Reuse {
			if math.IsInf(costs.Load[id], 1) {
				t.Fatalf("trial %d: plan loads unmaterialized vertex %s", trial, id)
			}
		}
	}
}

func TestBackwardPruneStopsAtReusedVertex(t *testing.T) {
	// chain: s -> a -> b -> t, both a and b materialized and cheap to
	// load. Forward pass picks both; backward keeps only b.
	w := graph.NewDAG()
	s := w.AddSource("s", &graph.AggregateArtifact{})
	a := w.Apply(s, stubOp{"a", graph.DatasetKind})
	b := w.Apply(a, stubOp{"b", graph.DatasetKind})
	tn := w.Apply(b, stubOp{"t", graph.DatasetKind})
	inf := math.Inf(1)
	costs := Costs{
		Compute: map[string]float64{a.ID: 10, b.ID: 10, tn.ID: 1},
		Load:    map[string]float64{a.ID: 1, b.ID: 1, tn.ID: inf},
	}
	plan := Linear{}.Plan(w, costs)
	if plan.Reuse[a.ID] || !plan.Reuse[b.ID] {
		t.Errorf("want reuse only b, got %v", plan.Reuse)
	}
}

func TestAllMaterializedAndAllCompute(t *testing.T) {
	w, costs, v1, v2, v3, _ := figure3()
	am := AllMaterialized{}.Plan(w, costs)
	// ALL_M loads every materialized vertex on the execution path; the
	// backward prune keeps the load frontier {v3}.
	if !am.Reuse[v3.ID] {
		t.Errorf("ALL_M should reuse v3: %v", am.Reuse)
	}
	if am.Reuse[v1.ID] || am.Reuse[v2.ID] {
		t.Errorf("ALL_M reuse set should be pruned to the frontier: %v", am.Reuse)
	}
	ac := AllCompute{}.Plan(w, costs)
	if len(ac.Reuse) != 0 {
		t.Errorf("ALL_C must not reuse: %v", ac.Reuse)
	}
}

func TestGatherCosts(t *testing.T) {
	w := graph.NewDAG()
	s := w.AddSource("s", &graph.AggregateArtifact{})
	a := w.Apply(s, stubOp{"a", graph.DatasetKind})
	b := w.Apply(a, stubOp{"b", graph.DatasetKind})
	a.ComputeTime = 2 * time.Second
	a.SizeBytes = 1 << 20
	a.Content = &graph.AggregateArtifact{Value: 1}
	b.ComputeTime = time.Second
	b.SizeBytes = 100

	g := eg.New()
	g.Merge(w)
	st := store.New(cost.Memory())
	if err := st.Put(a.ID, a.Content); err != nil {
		t.Fatal(err)
	}

	// Fresh incoming workload: same shape plus one unseen op.
	w2 := graph.NewDAG()
	s2 := w2.AddSource("s", &graph.AggregateArtifact{})
	a2 := w2.Apply(s2, stubOp{"a", graph.DatasetKind})
	b2 := w2.Apply(a2, stubOp{"b", graph.DatasetKind})
	c2 := w2.Apply(b2, stubOp{"new", graph.DatasetKind})
	costs := GatherCosts(w2, g, st)

	if got := costs.Compute[a2.ID]; got != 2 {
		t.Errorf("Ci(a)=%v, want 2", got)
	}
	if math.IsInf(costs.Load[a2.ID], 1) {
		t.Error("Cl(a) should be finite (materialized)")
	}
	if !math.IsInf(costs.Load[b2.ID], 1) {
		t.Error("Cl(b) should be ∞ (in EG, unmaterialized)")
	}
	if got := costs.Compute[b2.ID]; got != 1 {
		t.Errorf("Ci(b)=%v, want 1", got)
	}
	if !math.IsInf(costs.Compute[c2.ID], 1) || !math.IsInf(costs.Load[c2.ID], 1) {
		t.Error("unknown vertex must have Ci=Cl=∞")
	}
	if got := costs.Compute[s2.ID]; got != 0 {
		t.Errorf("Ci(source)=%v, want 0 (computed on client)", got)
	}
}

func TestPlanExposesPredictedCosts(t *testing.T) {
	// s(source) -> b -> c; b materialized and cheap to load, c must compute.
	w := graph.NewDAG()
	s := w.AddSource("s", &graph.AggregateArtifact{})
	b := w.Apply(s, stubOp{"b", graph.DatasetKind})
	c := w.Apply(b, stubOp{"c", graph.DatasetKind})
	inf := math.Inf(1)
	costs := Costs{
		Compute: map[string]float64{b.ID: 5, c.ID: 2},
		Load:    map[string]float64{b.ID: 0.5, c.ID: inf},
	}
	plan := Linear{}.Plan(w, costs)
	if !plan.Reuse[b.ID] {
		t.Fatalf("expected b reused, got %v", plan.Reuse)
	}
	if got := plan.PredictedLoad[b.ID]; got != 0.5 {
		t.Errorf("PredictedLoad[b] = %v, want 0.5", got)
	}
	if _, ok := plan.PredictedLoad[c.ID]; ok {
		t.Error("PredictedLoad should only cover reused vertices")
	}
	if got := plan.PredictedCompute[c.ID]; got != 2 {
		t.Errorf("PredictedCompute[c] = %v, want 2", got)
	}
	if _, ok := plan.PredictedCompute[b.ID]; ok {
		t.Error("PredictedCompute must not cover reused vertices")
	}
}

func TestAllComputePlanPredictions(t *testing.T) {
	w := graph.NewDAG()
	s := w.AddSource("s", &graph.AggregateArtifact{})
	b := w.Apply(s, stubOp{"b", graph.DatasetKind})
	costs := Costs{
		Compute: map[string]float64{b.ID: 3},
		Load:    map[string]float64{b.ID: 0.1},
	}
	plan := AllCompute{}.Plan(w, costs)
	if len(plan.PredictedLoad) != 0 {
		t.Errorf("ALL_C PredictedLoad = %v, want empty", plan.PredictedLoad)
	}
	if got := plan.PredictedCompute[b.ID]; got != 3 {
		t.Errorf("PredictedCompute[b] = %v, want 3", got)
	}
}

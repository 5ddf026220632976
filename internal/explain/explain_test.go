package explain

import (
	"bytes"
	"flag"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/calib"
	"repro/internal/cost"
	"repro/internal/eg"
	"repro/internal/graph"
	"repro/internal/materialize"
	"repro/internal/reuse"
	"repro/internal/workloads/synth"
)

// -update rewrites the golden files from current output.
var update = flag.Bool("update", false, "rewrite golden files")

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

// figure3 rebuilds the paper's Figure 3 worked example (same shape as the
// reuse package's fixture): Linear picks {v1, v3} forward, prunes to {v3}.
func figure3() (*graph.DAG, reuse.Costs) {
	w := graph.NewDAG()
	content := &graph.AggregateArtifact{}
	s1 := w.AddSource("s1", content)
	s2 := w.AddSource("s2", content)
	s3 := w.AddSource("s3", content)

	nA := w.Apply(s1, stubOp{"A", graph.DatasetKind})
	v1 := w.Apply(s2, stubOp{"v1", graph.DatasetKind})
	v2 := w.Combine(stubOp{"v2", graph.DatasetKind}, nA, v1)
	nC := w.Apply(s3, stubOp{"C", graph.DatasetKind})
	nC.Content = content
	nC.Computed = true
	v3 := w.Combine(stubOp{"v3", graph.DatasetKind}, v2, nC)
	w.Apply(v3, stubOp{"T", graph.DatasetKind})

	inf := math.Inf(1)
	costs := reuse.Costs{Compute: map[string]float64{}, Load: map[string]float64{}}
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
	return w, costs
}

// optimizeRecord builds the canonical optimize fixture, numbered as a
// server's first call.
func optimizeRecord() *Record {
	w, costs := figure3()
	plan := reuse.Linear{}.Plan(w, costs)
	ws := []reuse.WarmstartCandidate{
		{VertexID: "vertex-model-1", DonorID: "donor-model-7", Quality: 0.75},
	}
	rec := BuildOptimize(w, costs, plan, "ln", "req-fixture-01", ws)
	rec.Seq = 1
	return rec
}

// egFixture builds a tiny Experiment Graph: train -> a -> b, and the held
// predicate of a store that holds a.
func egFixture() (*eg.Graph, func(string) bool) {
	w := graph.NewDAG()
	src := w.AddSource("train", &graph.AggregateArtifact{Value: 1})
	a := w.Apply(src, stubOp{"a", graph.DatasetKind})
	b := w.Apply(a, stubOp{"b", graph.ModelKind})
	src.SizeBytes = 100
	a.ComputeTime = 2 * time.Second
	a.SizeBytes = 1 << 20
	b.ComputeTime = 3 * time.Second
	b.SizeBytes = 50
	b.Quality = 0.8
	g := eg.New()
	g.Merge(w)
	return g, func(id string) bool { return id == a.ID }
}

// updateRecord builds the canonical update fixture, numbered as a server's
// second call: a run that keeps what is stored (a, first by ID) and finds no
// room for the rest — the first of ALL's selection, so that no rule of
// Equation 2 decides it.
func updateRecord() *Record {
	g, held := egFixture()
	run := materialize.LimitCount{Inner: materialize.NewAll(), K: 1}.Select(g, held, 2048, nil)
	rec := BuildUpdate(g, run, cost.Remote(), "sa", 2048, "req-fixture-02")
	rec.Seq = 2
	return rec
}

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -run %s -update): %v", t.Name(), err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func render(t *testing.T, f func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestOptimizeGoldens(t *testing.T) {
	rec := optimizeRecord()
	golden(t, "optimize.json.golden", render(t, rec.WriteJSON))
	golden(t, "optimize.text.golden", render(t, rec.WriteText))
	golden(t, "optimize.dot.golden", render(t, rec.WriteDOT))
}

func TestUpdateGoldens(t *testing.T) {
	rec := updateRecord()
	golden(t, "update.json.golden", render(t, rec.WriteJSON))
	golden(t, "update.text.golden", render(t, rec.WriteText))
	golden(t, "update.dot.golden", render(t, rec.WriteDOT))
}

func TestEGDOTGolden(t *testing.T) {
	g, held := egFixture()
	golden(t, "eg.dot.golden", render(t, func(w io.Writer) error {
		return WriteEGDOT(g, held, w)
	}))
}

// TestRenderingByteStable rebuilds and re-renders the fixtures and demands
// identical bytes — the explain contract: same inputs, same output, no map
// iteration order leaking through.
func TestRenderingByteStable(t *testing.T) {
	for i := 0; i < 3; i++ {
		a, b := optimizeRecord(), optimizeRecord()
		for _, f := range []struct {
			name string
			fn   func(*Record, *bytes.Buffer) error
		}{
			{"json", func(r *Record, buf *bytes.Buffer) error { return r.WriteJSON(buf) }},
			{"text", func(r *Record, buf *bytes.Buffer) error { return r.WriteText(buf) }},
			{"dot", func(r *Record, buf *bytes.Buffer) error { return r.WriteDOT(buf) }},
		} {
			var ba, bb bytes.Buffer
			if err := f.fn(a, &ba); err != nil {
				t.Fatal(err)
			}
			if err := f.fn(b, &bb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
				t.Fatalf("%s rendering not byte-stable across rebuilds", f.name)
			}
		}
	}
}

func TestOptimizeDecisions(t *testing.T) {
	rec := optimizeRecord()
	byName := map[string]string{}
	for _, v := range rec.Vertices {
		byName[v.Name] = v.Decision
	}
	want := map[string]string{
		"s1": DecisionSource,
		"s2": DecisionSource,
		"s3": DecisionSource,
		"A":  DecisionComputeNotMaterialized,
		"v1": DecisionPrunedOffPath,
		"v2": DecisionComputeByCost,
		"C":  DecisionClientComputed,
		"v3": DecisionReuse,
		"T":  DecisionComputeNotMaterialized,
	}
	for name, decision := range want {
		if byName[name] != decision {
			t.Errorf("%s: decision %q, want %q", name, byName[name], decision)
		}
	}
	if rec.Plan.Reuse != 1 || rec.Plan.CandidateLoads != 2 || rec.Plan.PrunedOffPath != 1 {
		t.Errorf("plan summary wrong: %+v", rec.Plan)
	}
}

// TestOptimizeDecisionsTallyPlanStats runs every planner over synthetic
// workloads with a random stored set and random client-computed vertices:
// the per-vertex decisions of each record must count to every field of the
// plan's own summary and to its reuse set, so a record never disagrees with
// the counters the server takes from the same plan. Every source is
// Computed, as MarkComputed leaves any source that carries content.
func TestOptimizeDecisionsTallyPlanStats(t *testing.T) {
	p := synth.DefaultProfile()
	p.MinNodes, p.MaxNodes = 50, 150
	planners := []reuse.Planner{reuse.Linear{}, reuse.Helix{}, reuse.AllMaterialized{}, reuse.AllCompute{}}
	for seed := int64(0); seed < 20; seed++ {
		wl := synth.Generate(p, seed)
		w, costs := wl.DAG, wl.Costs
		rng := rand.New(rand.NewSource(seed))
		storedRatio, computedRatio := rng.Float64(), 0.3*rng.Float64()
		for _, n := range w.Nodes() {
			if n.IsSource() {
				if !n.Computed {
					t.Fatalf("seed %d: source %s is not Computed", seed, n.Name)
				}
				continue
			}
			if n.Kind == graph.SupernodeKind {
				continue
			}
			costs.Load[n.ID] = math.Inf(1)
			if rng.Float64() < storedRatio {
				costs.Load[n.ID] = rng.ExpFloat64() * p.MeanLoadSec
			}
			if rng.Float64() < computedRatio {
				n.Computed = true
				costs.Compute[n.ID] = 0
			}
		}
		for _, pl := range planners {
			plan := pl.Plan(w, costs)
			rec := BuildOptimize(w, costs, plan, pl.Name(), "", nil)
			n := map[string]int{}
			for _, v := range rec.Vertices {
				n[v.Decision]++
			}
			got := reuse.PlanStats{
				CandidateLoads:        n[DecisionReuse] + n[DecisionPrunedOffPath],
				PrunedOffPath:         n[DecisionPrunedOffPath],
				PrunedByCost:          n[DecisionComputeByCost],
				PrunedNotMaterialized: n[DecisionComputeNotMaterialized],
				Computes:              n[DecisionPrunedOffPath] + n[DecisionComputeByCost] + n[DecisionComputeNotMaterialized],
			}
			if got != plan.Stats || n[DecisionReuse] != len(plan.Reuse) || len(rec.Vertices) != w.Len() {
				t.Errorf("seed %d %s: decisions %v over %d of %d vertices tally to %+v, %d loads; plan says %+v, %d loads",
					seed, pl.Name(), n, len(rec.Vertices), w.Len(), got, n[DecisionReuse], plan.Stats, len(plan.Reuse))
			}
		}
	}
}

func TestUpdateDecisions(t *testing.T) {
	rec := updateRecord()
	if rec.Mat.Eligible != 2 || rec.Mat.Selected != 1 {
		t.Fatalf("mat summary wrong: %+v", rec.Mat)
	}
	byName := map[string]string{}
	for _, m := range rec.Materialize {
		byName[m.Name] = m.Decision
	}
	if byName["a"] != MatSelected {
		t.Errorf("a: decision %q, want selected", byName["a"])
	}
	// b is tiny (50B): loading beats its 3s recreation cost, so the only
	// non-selected classification left is budget exhaustion.
	if byName["b"] != MatBudgetExhausted {
		t.Errorf("b: decision %q, want budget-exhausted", byName["b"])
	}
}

func TestCostRendering(t *testing.T) {
	cases := []struct {
		in   Cost
		want string
	}{
		{Cost(math.Inf(1)), `"inf"`},
		{Cost(0), `0`},
		{Cost(0.25), `0.25`},
		{Cost(1e-9), `1e-09`},
	}
	for _, c := range cases {
		b, err := c.in.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != c.want {
			t.Errorf("Cost(%v).MarshalJSON() = %s, want %s", float64(c.in), b, c.want)
		}
	}
}

func TestUpdateScorecardGoldens(t *testing.T) {
	rec := updateRecord()
	sc := calib.NewScorecard("req-fixture-02", 3, 2,
		600*time.Millisecond, 40*time.Millisecond, 200*time.Millisecond)
	sc.WallSec = 0.25
	rec.Calibration = &sc
	golden(t, "update-scorecard.json.golden", render(t, rec.WriteJSON))
	golden(t, "update-scorecard.text.golden", render(t, rec.WriteText))
}

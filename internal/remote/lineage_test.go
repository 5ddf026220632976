package remote

import (
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/reuse"
	"repro/internal/store"
)

// lineageRows is the row count of the sources the lineage sequences read.
const lineageRows = 20000

// lineageSource is one source dataset: v = 0…n−1, a drawn from a few
// integers, b a permutation of a (so a row selection or a grouping by either
// keeps as many rows or groups), a label y and, for a join's left side, the
// keys 0…n−1 in k. Its columns carry source IDs, as a loaded CSV's do.
func lineageSource() *data.Frame {
	rng := rand.New(rand.NewSource(7))
	n := lineageRows
	v, a, y, k := make([]float64, n), make([]float64, n), make([]float64, n), make([]int64, n)
	for i := range v {
		v[i], k[i] = float64(i), int64(i)
		a[i] = float64(rng.Intn(9) - 4)
		if a[i]+rng.NormFloat64() > 0 {
			y[i] = 1
		}
	}
	b := make([]float64, n)
	for i, j := range rng.Perm(n) {
		b[i] = a[j]
	}
	src := func(c *data.Column) *data.Column { return c.WithID(data.SourceID("lineage.csv", c.Name)) }
	return data.MustNewFrame(src(data.NewFloatColumn("v", v)), src(data.NewFloatColumn("a", a)),
		src(data.NewFloatColumn("b", b)), src(data.NewFloatColumn("y", y)), src(data.NewIntColumn("k", k)))
}

// lineageRight is a join's right side: the keys 2i+odd of lineageSource's k
// for i < n/2, each once and in order, and a value column. The two sides
// (odd 0 and 1) keep as many left rows, and different ones.
func lineageRight(odd int64) *data.Frame {
	n := lineageRows / 2
	k, w := make([]int64, n), make([]float64, n)
	for i := range k {
		k[i], w[i] = 2*int64(i)+odd, float64(i%7)
	}
	name := "right.csv"
	if odd == 1 {
		name = "right-odd.csv"
	}
	src := func(c *data.Column) *data.Column { return c.WithID(data.SourceID(name, c.Name)) }
	return data.MustNewFrame(src(data.NewIntColumn("k", k)), src(data.NewFloatColumn("w", w)))
}

// lineageSequence is three runs whose last reads, from the store, a vertex
// of the second whose columns an under-specified lineage ID would name as
// the first's: build(variant, kind) ends in AggregateCol{col, kind} of the
// variant's frame, and the runs are (0, sum), (1, sum), (1, mean).
type lineageSequence struct {
	name  string
	build func(variant int, kind data.AggKind) (*graph.DAG, *graph.Node)
}

// lineageSequences lists one sequence per kind of minting site: a row
// selection (the recipe of the roadmap's lineage item), a join, a group-by
// and a prediction.
func lineageSequences() []lineageSequence {
	source := lineageSource()
	keyCol := []string{"a", "b"}
	agg := func(w *graph.DAG, n *graph.Node, col string, kind data.AggKind) (*graph.DAG, *graph.Node) {
		return w, w.Apply(n, ops.AggregateCol{Col: col, Kind: kind})
	}
	return []lineageSequence{
		{"filter on a derived column", func(variant int, kind data.AggKind) (*graph.DAG, *graph.Node) {
			w := graph.NewDAG()
			x := w.Apply(w.AddSource("lineage.csv", &graph.DatasetArtifact{Frame: source}),
				ops.Derive{Out: "x", Inputs: keyCol[variant : variant+1], Fn: ops.Sum})
			return agg(w, w.Apply(x, ops.Filter{Col: "x", Op: ops.GT, Value: 0}), "v", kind)
		}},
		{"inner join onto right sides keyed differently", func(variant int, kind data.AggKind) (*graph.DAG, *graph.Node) {
			w := graph.NewDAG()
			left := w.AddSource("lineage.csv", &graph.DatasetArtifact{Frame: source})
			right := w.AddSource([]string{"right.csv", "right-odd.csv"}[variant],
				&graph.DatasetArtifact{Frame: lineageRight(int64(variant))})
			return agg(w, w.Combine(ops.Join{Key: "k", Kind: data.Inner}, left, right), "v", kind)
		}},
		{"mean group-by under two key columns", func(variant int, kind data.AggKind) (*graph.DAG, *graph.Node) {
			w := graph.NewDAG()
			g := w.Apply(w.AddSource("lineage.csv", &graph.DatasetArtifact{Frame: source}),
				ops.Derive{Out: "g", Inputs: keyCol[variant : variant+1], Fn: ops.Sum})
			return agg(w, w.Apply(g, ops.GroupByAgg{Key: "g", Aggs: []data.Agg{{Col: "v", Kind: data.AggMean}}}), "v_mean", kind)
		}},
		{"two models predicting on one frame", func(variant int, kind data.AggKind) (*graph.DAG, *graph.Node) {
			w := graph.NewDAG()
			frame := w.Apply(w.AddSource("lineage.csv", &graph.DatasetArtifact{Frame: source}),
				ops.Select{Cols: []string{"a", "b", "y"}})
			spec := []ops.ModelSpec{
				{Kind: "logreg", Params: map[string]float64{"max_iter": 20}, Seed: 1},
				{Kind: "tree", Params: map[string]float64{"depth": 1}, Seed: 1},
			}[variant]
			model := w.Apply(frame, &ops.Train{Spec: spec, Label: "y"})
			return agg(w, w.Combine(ops.Predict{}, model, frame), "prediction", kind)
		}},
	}
}

// TestALineageIDNamesOneContent runs each lineage sequence against one server
// under LN and under ALL_M — in process, over HTTP with one client (whose
// session store keeps what it fetched and computed) and over HTTP with a
// fresh client for the last run — and requires every run's terminal to be
// bit for bit the naive run's (AllCompute, budget 0). Two different contents
// under one column ID are stored once, so the last run would read the first
// run's values in place of the second's.
func TestALineageIDNamesOneContent(t *testing.T) {
	runs := []struct {
		variant int
		kind    data.AggKind
	}{{0, data.AggSum}, {1, data.AggSum}, {1, data.AggMean}}
	for _, seq := range lineageSequences() {
		want := make([]float64, len(runs))
		naive := core.NewClient(core.NewServer(store.New(cost.Memory()),
			core.WithPlanner(reuse.AllCompute{}), core.WithBudget(0)))
		for i, r := range runs {
			dag, term := seq.build(r.variant, r.kind)
			if _, err := naive.Run(dag); err != nil {
				t.Fatalf("%s: naive run %d: %v", seq.name, i, err)
			}
			want[i] = term.Content.(*graph.AggregateArtifact).Value
		}
		if want[1] == want[0] {
			t.Fatalf("%s: the two variants sum to one value, %v", seq.name, want[0])
		}
		for _, planner := range []reuse.Planner{reuse.Linear{}, reuse.AllMaterialized{}} {
			for _, transport := range []string{"in process", "over HTTP", "over HTTP, last run a fresh client"} {
				srv := core.NewServer(store.New(cost.Memory()), core.WithPlanner(planner), core.WithBudget(1<<30))
				clients := []core.Optimizer{srv, srv, srv}
				if transport != "in process" {
					ts := httptest.NewServer(NewHandler(srv))
					rc := NewClient(ts.URL, cost.Memory())
					clients = []core.Optimizer{rc, rc, rc}
					if transport != "over HTTP" {
						clients[2] = anotherClient(rc)
					}
					defer ts.Close()
				}
				for i, r := range runs {
					dag, term := seq.build(r.variant, r.kind)
					if _, err := core.NewClient(clients[i]).Run(dag); err != nil {
						t.Fatalf("%s, %s, %s: run %d: %v", seq.name, planner.Name(), transport, i, err)
					}
					if rc, ok := clients[i].(*Client); ok {
						if err := rc.Err(); err != nil {
							t.Fatalf("%s, %s, %s: run %d transport: %v", seq.name, planner.Name(), transport, i, err)
						}
					}
					got := term.Content.(*graph.AggregateArtifact).Value
					if math.Float64bits(got) != math.Float64bits(want[i]) {
						t.Errorf("%s, %s, %s: run %d returns %v, the naive run %v", seq.name, planner.Name(), transport, i, got, want[i])
					}
				}
			}
		}
	}
}

package materialize

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/eg"
	"repro/internal/graph"
)

// largeEG builds an Experiment Graph with chains hanging off one source —
// the shape the materializer sees after many collaborative workloads.
func largeEG(vertices int) *eg.Graph {
	w := graph.NewDAG()
	src := w.AddSource("s", &graph.AggregateArtifact{})
	src.SizeBytes = 1 << 20
	cur := src
	for i := 0; i < vertices; i++ {
		op := stubOp{name: fmt.Sprintf("op%d", i), kind: graph.DatasetKind}
		n := w.Apply(cur, op)
		annotate(n, time.Duration(i%7+1)*time.Millisecond, int64(i%13+1)<<14, float64(i%10)/10)
		if i%10 == 0 {
			cur = src // start a new chain
		} else {
			cur = n
		}
	}
	g := eg.New()
	g.Merge(w)
	return g
}

// BenchmarkStrategySelect runs each strategy under a budget that binds and
// under collabd's default (1 GiB), where every candidate fits, on a graph as
// the updater leaves it — what the strategy selects is materialized — and in
// one Scratch, as the updater runs them.
func BenchmarkStrategySelect(b *testing.B) {
	c := Config{Alpha: 0.5, Profile: cost.Memory()}
	for _, s := range []Strategy{NewGreedy(c), NewStorageAware(c), NewHelix(c), NewAll()} {
		for _, budget := range []int64{8 << 20, 1 << 30} {
			g := largeEG(2000)
			stored := make(map[string]bool)
			for _, id := range s.Select(g, none, budget, nil).Admitted {
				stored[id] = true
			}
			held := func(id string) bool { return stored[id] }
			b.Run(fmt.Sprintf("%s/budget=%dMiB", s.Name(), budget>>20), func(b *testing.B) {
				sc := new(Scratch)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s.Select(g, held, budget, sc)
				}
			})
		}
	}
}

// BenchmarkGreedyAlphaSweep measures how α shifts the selection (the
// Figure 8b design knob) on a static graph.
func BenchmarkGreedyAlphaSweep(b *testing.B) {
	g := largeEG(2000)
	budget := int64(4 << 20)
	for _, alpha := range []float64{0.001, 0.5, 1} {
		c := Config{Alpha: alpha, Profile: cost.Memory()}
		b.Run(fmt.Sprintf("alpha=%v", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				NewGreedy(c).Select(g, none, budget, nil)
			}
		})
	}
}

// BenchmarkRecreationCostsAndPotentials measures what it costs to have Cr
// and p of every vertex current after an update and to read them: a chain
// head of a 5000-vertex graph is re-executed with a new compute time and a
// new quality (its nine descendants and the source re-derive), then every
// vertex's two values are read. Until the graph maintained them this was
// two whole-graph derivations per reader.
func BenchmarkRecreationCostsAndPotentials(b *testing.B) {
	g := largeEG(5000)
	w := graph.NewDAG()
	head := w.Apply(w.AddSource("s", &graph.AggregateArtifact{}), stubOp{name: "op1", kind: graph.DatasetKind})
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		annotate(head, time.Duration(i%5+1)*time.Millisecond, 1<<14, float64(i%7)/10)
		g.Merge(w)
		for _, v := range g.Vertices() {
			sink += v.RecreationCost().Seconds() + v.Potential()
		}
	}
	_ = sink
}

package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workloads/synth"
)

// BenchmarkExecuteSequentialVsParallel measures wall-clock of the executor
// on wide synthetic DAGs (8 independent branches) in sequential and
// parallel mode. The latency profile stands in for I/O-bound operators and
// shows branch overlap even on one core; the spin profile is CPU-bound and
// scales with physical cores.
func BenchmarkExecuteSequentialVsParallel(b *testing.B) {
	profiles := []struct {
		name string
		p    synth.WideProfile
	}{
		{"latency", synth.WideProfile{Branches: 8, Depth: 3, Sleep: 2 * time.Millisecond}},
		{"cpu", synth.WideProfile{Branches: 8, Depth: 3, SpinIters: 2_000_000}},
	}
	for _, prof := range profiles {
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", prof.name, workers), func(b *testing.B) {
				srv := NewServer(store.New(cost.Memory()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					w := synth.Wide(prof.p, 1)
					if _, err := Execute(w, nil, srv, WithParallelism(workers)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkExecuteTraceOverhead compares Execute on the synth.Wide DAG
// with tracing absent (no option), disabled (nil recorder — the WithTrace
// fast path), and enabled. Absent and disabled must match within noise:
// the disabled path takes no timestamps and allocates nothing for tracing
// (allocations are reported; compare disabled against absent).
func BenchmarkExecuteTraceOverhead(b *testing.B) {
	prof := synth.WideProfile{Branches: 8, Depth: 3, SpinIters: 50_000}
	run := func(b *testing.B, mkOpts func() []ExecOption) {
		b.Helper()
		srv := NewServer(store.New(cost.Memory()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := synth.Wide(prof, 1)
			if _, err := Execute(w, nil, srv, mkOpts()...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("absent", func(b *testing.B) {
		run(b, func() []ExecOption { return []ExecOption{WithParallelism(4)} })
	})
	b.Run("disabled", func(b *testing.B) {
		run(b, func() []ExecOption { return []ExecOption{WithParallelism(4), WithTrace(nil)} })
	})
	b.Run("enabled", func(b *testing.B) {
		run(b, func() []ExecOption {
			return []ExecOption{WithParallelism(4), WithTrace(obs.NewTrace())}
		})
	})
}

// BenchmarkExecuteCalibOverhead compares Execute on a reuse-heavy plan
// with calibration measurement absent (no option), disabled
// (WithCalibration(false)), and enabled. The server is pre-seeded so each
// iteration exercises the EG fetch path that calibration instruments.
// Absent and disabled must match within noise: the disabled path takes no
// fetch timestamps and allocates nothing for calibration (allocations are
// reported; compare disabled against absent).
func BenchmarkExecuteCalibOverhead(b *testing.B) {
	prof := synth.WideProfile{Branches: 8, Depth: 3, SpinIters: 50_000}
	run := func(b *testing.B, mkOpts func() []ExecOption) {
		b.Helper()
		srv := NewServer(store.New(cost.Memory()))
		if _, err := NewClient(srv).Run(synth.Wide(prof, 1)); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w := synth.Wide(prof, 1)
			w.MarkComputed()
			opt := srv.Optimize(w, nil)
			if _, err := Execute(w, opt.Plan, srv, mkOpts()...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("absent", func(b *testing.B) {
		run(b, func() []ExecOption { return []ExecOption{WithParallelism(4)} })
	})
	b.Run("disabled", func(b *testing.B) {
		run(b, func() []ExecOption {
			return []ExecOption{WithParallelism(4), WithCalibration(false)}
		})
	})
	b.Run("enabled", func(b *testing.B) {
		run(b, func() []ExecOption {
			return []ExecOption{WithParallelism(4), WithCalibration(true)}
		})
	})
}

// BenchmarkOptimizeExplainOverhead compares Server.Optimize with explain
// capture absent (no option), disabled (nil recorder — the WithExplain fast
// path), and enabled. Absent and disabled must match within noise: the
// disabled path never builds a record and allocates nothing for explain
// (allocations are reported; compare disabled against absent).
func BenchmarkOptimizeExplainOverhead(b *testing.B) {
	prof := synth.WideProfile{Branches: 8, Depth: 3}
	run := func(b *testing.B, opts ...ServerOption) {
		b.Helper()
		srv := NewServer(store.New(cost.Memory()), opts...)
		// Seed the EG so the planner has stored artifacts to reason about.
		if _, err := NewClient(srv).Run(synth.Wide(prof, 1)); err != nil {
			b.Fatal(err)
		}
		w := synth.Wide(prof, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.Optimize(w, nil)
		}
	}
	b.Run("absent", func(b *testing.B) { run(b) })
	b.Run("disabled", func(b *testing.B) { run(b, WithExplain(nil)) })
	b.Run("enabled", func(b *testing.B) { run(b, WithExplain(explain.NewRecorder(8))) })
}

// scaleServer returns a server whose Experiment Graph holds a synthetic
// universe of n vertices (merged and materialized through one Update), and a
// generator of the 5-vertex workloads the scale benchmark and the
// allocation-flatness test submit: the source and a fresh four-operation
// chain, as executed.
func scaleServer(tb testing.TB, n int, opts ...ServerOption) (*Server, func(i int) *graph.DAG) {
	tb.Helper()
	srv := NewServer(store.New(cost.Memory()), opts...)
	u := synth.NewUniverse(int64(n), n)
	srv.Update(u.Workload(rand.New(rand.NewSource(1))), nil, nil)
	if srv.EG.Len() < n {
		tb.Fatalf("EG holds %d vertices, want at least %d", srv.EG.Len(), n)
	}
	next := func(i int) *graph.DAG {
		w := graph.NewDAG()
		cur := w.AddSource(fmt.Sprintf("u%d-src0", n), &graph.AggregateArtifact{})
		for d := 0; d < 4; d++ {
			cur = w.Apply(cur, scaleOp(fmt.Sprintf("scale-%d-%d", i, d)))
			cur.ComputeTime = time.Duration(d+1) * 100 * time.Millisecond
			cur.SizeBytes = 4 << 10
			cur.Content = &graph.AggregateArtifact{Value: float64(i)}
		}
		return w
	}
	return srv, next
}

type scaleOp string

func (o scaleOp) Name() string        { return string(o) }
func (o scaleOp) Hash() string        { return graph.OpHash(string(o), "") }
func (o scaleOp) OutKind() graph.Kind { return graph.AggregateKind }
func (o scaleOp) Run([]graph.Artifact) (graph.Artifact, error) {
	return &graph.AggregateArtifact{}, nil
}

// BenchmarkServerUpdateAtScale shows the curve of the updater (Figure 2,
// step 5) against the size of the Experiment Graph: one 5-vertex update per
// iteration on a graph of 1 k, 10 k and 100 k vertices, with the default
// strategy (storage-aware) and explain capture on (collabd's default) and
// off. What grows with the graph is the candidate scoring pass and, with
// explain on, the per-vertex decision rows; the derivation of Cr and p does
// not (the graph maintains them).
func BenchmarkServerUpdateAtScale(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		for _, explainOn := range []bool{true, false} {
			b.Run(fmt.Sprintf("vertices=%d/explain=%t", n, explainOn), func(b *testing.B) {
				var opts []ServerOption
				if explainOn {
					opts = append(opts, WithExplain(explain.NewRecorder(explain.DefaultCapacity)))
				}
				srv, next := scaleServer(b, n, opts...)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					srv.Update(next(i), nil, nil)
				}
			})
		}
	}
}

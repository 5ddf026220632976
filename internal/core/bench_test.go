package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/reuse"
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

// overheadArm is one arm — instrument absent (no option), disabled (the
// option's off value) or enabled — of an instrumentation-overhead comparison.
// stage builds the input of one call and returns the call. The *Overhead
// benchmarks time both; TestDisabledInstrumentsAllocateAsAbsent stages its
// calls beforehand and gates the arms on the allocations of the calls alone.
type overheadArm struct {
	name  string
	stage func() (call func())
}

// stagedAllocsPerCall is testing.AllocsPerRun over 20 calls whose inputs
// stage built beforehand, so that only the calls are counted.
func stagedAllocsPerCall(stage func() (call func())) float64 {
	const runs = 20
	calls := make([]func(), runs+1) // AllocsPerRun warms up once
	for i := range calls {
		calls[i] = stage()
	}
	i := 0
	return testing.AllocsPerRun(runs, func() {
		calls[i]()
		i++
	})
}

// stagedBytesPerCall is stagedAllocsPerCall for bytes: the heap bytes each of
// 20 calls whose inputs stage built beforehand allocates, on average.
func stagedBytesPerCall(stage func() (call func())) float64 {
	const runs = 20
	calls := make([]func(), runs+1)
	for i := range calls {
		calls[i] = stage()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	calls[0]() // warm up, as AllocsPerRun does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, call := range calls[1:] {
		call()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// runArms is the body of an *Overhead benchmark: one sub-benchmark per arm.
func runArms(b *testing.B, arms []overheadArm) {
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arm.stage()()
			}
		})
	}
}

// overheadProfile is the DAG the arms run: wide enough that every worker has
// a branch, with operations short enough that per-vertex instrumentation
// would show.
var overheadProfile = synth.WideProfile{Branches: 8, Depth: 3, SpinIters: 50_000}

// primedServer returns a server that has run the overhead workload once.
func primedServer(tb testing.TB) *Server {
	tb.Helper()
	srv := NewServer(store.New(cost.Memory()))
	if _, err := NewClient(srv).Run(synth.Wide(overheadProfile, 1)); err != nil {
		tb.Fatal(err)
	}
	return srv
}

// stageExecute stages Execute calls against srv, each on a freshly built
// copy of the DAG — planned against srv when planned is set, so that the
// call runs the fetch path, which times and annotates every reused vertex —
// with opts. Options are built once: constructing one allocates its
// closure, which is not the cost being compared.
func stageExecute(tb testing.TB, srv *Server, planned bool, opts ...ExecOption) func() func() {
	return func() func() {
		w := synth.Wide(overheadProfile, 1)
		var plan *reuse.Plan
		if planned {
			w.MarkComputed()
			plan = srv.Optimize(w, nil).Plan
		}
		return func() {
			if _, err := Execute(w, plan, srv, opts...); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// traceArms compares Execute with tracing absent, disabled (nil recorder —
// the WithTrace fast path, which builds no span arguments) and enabled (a
// recorder, as collab -trace runs it).
func traceArms(tb testing.TB, workers int) []overheadArm {
	srv, width := primedServer(tb), WithParallelism(workers)
	return []overheadArm{
		{"absent", stageExecute(tb, srv, false, width)},
		{"disabled", stageExecute(tb, srv, false, width, WithTrace(nil))},
		{"enabled", stageExecute(tb, srv, false, width, WithTrace(obs.NewTrace()))},
	}
}

// keptRecord is where the record-alone arm keeps what it builds, as the
// server keeps its optimize record.
var keptRecord *explain.Record

// explainArms compares Server.Optimize with explain capture absent, disabled
// (WithExplain(false), which never builds a record) and enabled. Every arm's
// server learns the same executed DAG, measured compute times included, so
// the three plan against identical Experiment Graphs. The fourth arm is what
// capture is supposed to add and nothing else: building and keeping the
// record of that plan, outside the server.
func explainArms(tb testing.TB) []overheadArm {
	tb.Helper()
	executed := synth.Wide(overheadProfile, 1)
	if _, err := Execute(executed, nil, nil); err != nil {
		tb.Fatal(err)
	}
	w := synth.Wide(overheadProfile, 1)
	seeded := func(opts ...ServerOption) *Server {
		srv := NewServer(store.New(cost.Memory()), opts...)
		srv.Update(executed, nil, 0)
		return srv
	}
	arm := func(name string, call func()) overheadArm {
		return overheadArm{name, func() func() { return call }}
	}
	optimize := func(srv *Server) func() { return func() { srv.Optimize(w, nil) } }

	srv := seeded()
	costs := reuse.GatherCosts(w, srv.EG, srv.Store)
	plan := srv.planner.Plan(w, costs)
	return []overheadArm{
		arm("absent", optimize(srv)),
		arm("disabled", optimize(seeded(WithExplain(false)))),
		arm("enabled", optimize(seeded(WithExplain(true)))),
		arm("record-alone", func() { keptRecord = explain.BuildOptimize(w, costs, plan, srv.planner.Name(), "", nil) }),
	}
}

// explainUpdateArms compares Server.Update with explain absent, disabled and
// enabled, on servers that hold the same 1 000-vertex graph and take the same
// sequence of 5-vertex updates: the update's record is rendered when it is
// read, so enabled does what the other two do.
func explainUpdateArms(tb testing.TB) []overheadArm {
	tb.Helper()
	arm := func(name string, opts ...ServerOption) overheadArm {
		srv, next := scaleServer(tb, 1_000, opts...)
		i := 0
		return overheadArm{name, func() func() {
			w := next(i)
			i++
			return func() { srv.Update(w, nil, 0) }
		}}
	}
	return []overheadArm{arm("absent"), arm("disabled", WithExplain(false)), arm("enabled", WithExplain(true))}
}

func BenchmarkExecuteTraceOverhead(b *testing.B) { runArms(b, traceArms(b, 4)) }

// BenchmarkOptimizeExplainOverhead runs the Optimize arms, then the Update
// arms under "update/".
func BenchmarkOptimizeExplainOverhead(b *testing.B) {
	runArms(b, explainArms(b))
	b.Run("update", func(b *testing.B) { runArms(b, explainUpdateArms(b)) })
}

// scaleServer returns a server whose Experiment Graph holds a synthetic
// universe of n vertices (merged and materialized through one Update that
// carries every vertex's content, so the store holds what the strategy
// selects, as between the runs of a real sequence), and a generator of the
// 5-vertex workloads the scale benchmark and the flatness tests submit: the
// source and a fresh four-operation chain, as executed.
func scaleServer(tb testing.TB, n int, opts ...ServerOption) (*Server, func(i int) *graph.DAG) {
	tb.Helper()
	srv := NewServer(store.New(cost.Memory()), opts...)
	u := synth.NewUniverse(int64(n), n)
	universe := u.Workload(rand.New(rand.NewSource(1)))
	for _, node := range universe.Nodes() {
		if node.Content == nil {
			node.Content = &graph.AggregateArtifact{}
		}
	}
	srv.Update(universe, nil, 0)
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
// strategy (storage-aware) and explain on (collabd's default) and off, which
// do the same work: the update's explain record is rendered when it is read.
// What grows with the graph is the candidate scoring pass; the derivation of
// Cr and p does not (the graph maintains them).
func BenchmarkServerUpdateAtScale(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		for _, explainOn := range []bool{true, false} {
			b.Run(fmt.Sprintf("vertices=%d/explain=%t", n, explainOn), func(b *testing.B) {
				var opts []ServerOption
				if explainOn {
					opts = append(opts, WithExplain(true))
				}
				srv, next := scaleServer(b, n, opts...)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					srv.Update(next(i), nil, 0)
				}
			})
		}
	}
}

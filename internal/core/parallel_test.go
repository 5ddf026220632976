package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/store"
	"repro/internal/workloads/synth"
)

// setWorkers sets the pool width, which the executor reads for its own
// width too, for the rest of the test.
func setWorkers(tb testing.TB, n int) {
	prev := parallel.SetWorkers(n)
	tb.Cleanup(func() { parallel.SetWorkers(prev) })
}

// sleepOp sleeps for a fixed duration, records that it ran, and folds its
// inputs into the output value.
type sleepOp struct {
	name string
	d    time.Duration
	ran  *atomic.Bool
}

func (o sleepOp) Name() string        { return o.name }
func (o sleepOp) Hash() string        { return graph.OpHash(o.name, o.d.String()) }
func (o sleepOp) OutKind() graph.Kind { return graph.AggregateKind }
func (o sleepOp) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	time.Sleep(o.d)
	if o.ran != nil {
		o.ran.Store(true)
	}
	v := 1.0
	for _, a := range inputs {
		if ag, ok := a.(*graph.AggregateArtifact); ok {
			v += ag.Value
		}
	}
	return &graph.AggregateArtifact{Value: v}, nil
}

// addOp is a deterministic arithmetic op: sum of inputs plus a constant.
// It spins long enough that its measured compute cost dwarfs the modeled
// load cost of its tiny output, keeping the reuse planner's decisions
// stable against timer noise across repeated runs.
type addOp struct {
	name  string
	delta float64
}

func (o addOp) Name() string        { return o.name }
func (o addOp) Hash() string        { return graph.OpHash(o.name, fmt.Sprint(o.delta)) }
func (o addOp) OutKind() graph.Kind { return graph.AggregateKind }
func (o addOp) Run(inputs []graph.Artifact) (graph.Artifact, error) {
	v := o.delta
	for _, a := range inputs {
		if ag, ok := a.(*graph.AggregateArtifact); ok {
			v += ag.Value
		}
	}
	spin := 0.0
	for i := 0; i < 50000; i++ {
		spin += float64(i&7) * 1e-12
	}
	return &graph.AggregateArtifact{Value: v + spin*0}, nil
}

// slowFailOp sleeps, then fails.
type slowFailOp struct {
	name string
	d    time.Duration
}

func (o slowFailOp) Name() string        { return o.name }
func (o slowFailOp) Hash() string        { return graph.OpHash(o.name, "") }
func (o slowFailOp) OutKind() graph.Kind { return graph.AggregateKind }
func (o slowFailOp) Run([]graph.Artifact) (graph.Artifact, error) {
	time.Sleep(o.d)
	return nil, fmt.Errorf("failure in %s", o.name)
}

// TestExecuteDiamondParallelOverlap runs a diamond DAG whose two branches
// each sleep; under parallel execution both must run and their latencies
// must overlap, making measured wall time smaller than summed compute time.
func TestExecuteDiamondParallelOverlap(t *testing.T) {
	var ranA, ranB atomic.Bool
	w := graph.NewDAG()
	src := w.AddSource("s", &graph.AggregateArtifact{Value: 1})
	a := w.Apply(src, sleepOp{name: "branch-a", d: 50 * time.Millisecond, ran: &ranA})
	b := w.Apply(src, sleepOp{name: "branch-b", d: 50 * time.Millisecond, ran: &ranB})
	w.Combine(addOp{name: "merge"}, a, b)

	setWorkers(t, 4)
	srv := NewServer(store.New(cost.Memory()))
	res, err := Execute(w, nil, srv)
	if err != nil {
		t.Fatal(err)
	}
	if !ranA.Load() || !ranB.Load() {
		t.Fatalf("both branches must run: a=%v b=%v", ranA.Load(), ranB.Load())
	}
	if res.Executed != 3 {
		t.Fatalf("Executed = %d, want 3", res.Executed)
	}
	if res.WallTime <= 0 {
		t.Fatalf("WallTime not measured: %v", res.WallTime)
	}
	if res.WallTime > res.ComputeTime {
		t.Errorf("WallTime %v exceeds ComputeTime %v: branches did not overlap", res.WallTime, res.ComputeTime)
	}
}

// buildBranchy constructs a deterministic multi-branch workload with a
// shared prefix, several independent branches, and two terminals.
func buildBranchy() *graph.DAG {
	w := graph.NewDAG()
	src := w.AddSource("branchy-src", &graph.AggregateArtifact{Value: 2})
	pre := w.Apply(src, addOp{name: "prep", delta: 1})
	ends := make([]*graph.Node, 0, 4)
	for b := 0; b < 4; b++ {
		cur := pre
		for d := 0; d < 3; d++ {
			cur = w.Apply(cur, addOp{name: fmt.Sprintf("b%d-op%d", b, d), delta: float64(b*10 + d)})
		}
		ends = append(ends, cur)
	}
	w.Combine(addOp{name: "merge-all"}, ends...)
	w.Apply(ends[0], addOp{name: "extra-terminal", delta: 0.5})
	return w
}

// TestExecuteParallelMatchesSequential drives the same workload sequence
// through a sequential and a parallel client against separate servers and
// requires identical artifacts, counts, and reuse decisions — including the
// second run, where the plan reuses stored artifacts.
func TestExecuteParallelMatchesSequential(t *testing.T) {
	setWorkers(t, 1)
	seqClient := NewClient(NewServer(store.New(cost.Memory())))
	parClient := NewClient(NewServer(store.New(cost.Memory())))

	for run := 0; run < 3; run++ {
		ws, wp := buildBranchy(), buildBranchy()
		parallel.SetWorkers(1)
		rs, err := seqClient.Run(ws)
		if err != nil {
			t.Fatalf("run %d sequential: %v", run, err)
		}
		parallel.SetWorkers(8)
		rp, err := parClient.Run(wp)
		if err != nil {
			t.Fatalf("run %d parallel: %v", run, err)
		}
		if rs.Executed != rp.Executed || rs.Reused != rp.Reused || rs.Skipped != rp.Skipped {
			t.Fatalf("run %d: counts differ: seq {E:%d R:%d S:%d} par {E:%d R:%d S:%d}",
				run, rs.Executed, rs.Reused, rs.Skipped, rp.Executed, rp.Reused, rp.Skipped)
		}
		st, pt := ws.Terminals(), wp.Terminals()
		if len(st) != len(pt) {
			t.Fatalf("run %d: terminal counts differ", run)
		}
		for i := range st {
			sv := st[i].Content.(*graph.AggregateArtifact).Value
			pv := pt[i].Content.(*graph.AggregateArtifact).Value
			if sv != pv {
				t.Fatalf("run %d terminal %d (%s): sequential %v != parallel %v", run, i, st[i].Name, sv, pv)
			}
		}
	}
}

// TestExecuteDeterministicErrorSelection injects two failures: the vertex
// earlier in topological order fails slowly, the later one instantly. The
// parallel executor must still report the topologically first error — the
// one a sequential run would hit — on every run.
func TestExecuteDeterministicErrorSelection(t *testing.T) {
	setWorkers(t, 8)
	for trial := 0; trial < 10; trial++ {
		w := graph.NewDAG()
		src := w.AddSource("s", &graph.AggregateArtifact{Value: 1})
		w.Apply(src, slowFailOp{name: "alpha-first-slow", d: 20 * time.Millisecond})
		w.Apply(src, slowFailOp{name: "beta-second-fast", d: 0})
		srv := NewServer(store.New(cost.Memory()))
		_, err := Execute(w, nil, srv)
		if err == nil {
			t.Fatal("want error")
		}
		if !strings.Contains(err.Error(), "alpha-first-slow") {
			t.Fatalf("trial %d: got error %q, want the topologically first failure (alpha-first-slow)", trial, err)
		}
	}
}

// TestGatherInputsMixedSupernode verifies that a supernode mixed among
// ordinary parents is flattened in place, in parent order.
func TestGatherInputsMixedSupernode(t *testing.T) {
	mk := func(id string, v float64) *graph.Node {
		return &graph.Node{
			ID: id, Kind: graph.AggregateKind, Name: id,
			Computed: true, Content: &graph.AggregateArtifact{Value: v},
		}
	}
	p1 := mk("p1", 1)
	g1, g2 := mk("g1", 10), mk("g2", 100)
	super := &graph.Node{ID: "super", Kind: graph.SupernodeKind, Name: "super", Parents: []*graph.Node{g1, g2}}
	child := &graph.Node{ID: "child", Kind: graph.AggregateKind, Name: "child", Parents: []*graph.Node{p1, super}}
	inputs, err := gatherInputs(child)
	if err != nil {
		t.Fatal(err)
	}
	if len(inputs) != 3 {
		t.Fatalf("got %d inputs, want 3 (supernode flattened)", len(inputs))
	}
	want := []float64{1, 10, 100}
	for i, in := range inputs {
		if v := in.(*graph.AggregateArtifact).Value; v != want[i] {
			t.Errorf("input %d = %v, want %v", i, v, want[i])
		}
	}
}

// TestConcurrentClientsSharedServer exercises concurrent EG merges, store
// puts, and store fetches from several parallel clients sharing one server.
// Run under -race this is the executor/store/EG concurrency audit.
func TestConcurrentClientsSharedServer(t *testing.T) {
	setWorkers(t, 4)
	srv := NewServer(store.New(cost.Memory()))
	const clients = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := NewClient(srv)
			for run := 0; run < 3; run++ {
				// Identical DAGs across clients force overlapping
				// vertex IDs: concurrent updates and fetches hit
				// the same EG vertices and store entries.
				if _, err := client.Run(buildBranchy()); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
}

// TestServerBuiltBesideRunningKernels builds servers while a join runs in
// another goroutine, as a process that hosts a server beside a client does
// (examples/remoteserver, the bench's in-process references): every NewServer
// re-registers the kernel counters the join is updating. Under -race this
// fails unless the counters are published atomically.
func TestServerBuiltBesideRunningKernels(t *testing.T) {
	key := make([]float64, 512)
	for i := range key {
		key[i] = float64(i % 64)
	}
	frame := data.MustNewFrame(data.NewFloatColumn("k", key), data.NewFloatColumn("v", key))
	other := data.MustNewFrame(data.NewFloatColumn("k", key[:64]), data.NewFloatColumn("w", key[:64]))
	stop, joined := make(chan struct{}), make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				joined <- nil
				return
			default:
			}
			if _, err := frame.Join(other, "k", data.Inner, "join"); err != nil {
				joined <- err
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		NewServer(store.New(cost.Memory()))
	}
	close(stop)
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
}

// TestExecuteWideSynthDAG runs the synthetic wide workload end to end and
// checks branch overlap on a latency-bound profile.
func TestExecuteWideSynthDAG(t *testing.T) {
	w := synth.Wide(synth.WideProfile{Branches: 6, Depth: 2, Sleep: 10 * time.Millisecond}, 42)
	setWorkers(t, 6)
	srv := NewServer(store.New(cost.Memory()))
	res, err := Execute(w, nil, srv)
	if err != nil {
		t.Fatal(err)
	}
	if res.Executed != 6*2+1 {
		t.Fatalf("Executed = %d, want %d", res.Executed, 6*2+1)
	}
	if res.WallTime > res.ComputeTime {
		t.Errorf("WallTime %v exceeds ComputeTime %v on a 6-branch latency-bound DAG", res.WallTime, res.ComputeTime)
	}
}

// TestExecuteRunsBranchesOnSeveralWorkers replaces a speed-up ratio between
// two timings with the count that causes it: at width 8 the compute spans of
// a latency-bound 8-branch DAG land on more than one worker lane of the trace
// (an executor that fell back to one sequential pass would still compute
// every vertex, on lane 0); at width 1 there is only lane 0.
func TestExecuteRunsBranchesOnSeveralWorkers(t *testing.T) {
	prof := synth.WideProfile{Branches: 8, Depth: 3, Sleep: 2 * time.Millisecond}
	setWorkers(t, 1)
	for _, width := range []int{1, 8} {
		parallel.SetWorkers(width)
		tr := obs.NewTrace()
		srv := NewServer(store.New(cost.Memory()))
		res, err := Execute(synth.Wide(prof, 1), nil, srv, WithTrace(tr))
		if err != nil {
			t.Fatal(err)
		}
		lanes := map[int]bool{}
		for _, ev := range tr.Events() {
			if ev.Cat == "compute" {
				lanes[ev.TID] = true
			}
		}
		if res.Executed != 8*3+1 {
			t.Errorf("width %d executed %d operations, want %d", width, res.Executed, 8*3+1)
		}
		if (len(lanes) > 1) != (width > 1) {
			t.Errorf("width %d computed on %d worker lane(s)", width, len(lanes))
		}
	}
}

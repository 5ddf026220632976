package core

import (
	"container/heap"
	"fmt"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/reuse"
)

// ExecResult reports what one workload execution did and cost. Run time is
// real measured wall-clock for operator execution plus the modeled load
// cost for artifacts retrieved from EG (see DESIGN.md "Costs").
type ExecResult struct {
	// RunTime = ComputeTime + LoadTime.
	RunTime time.Duration
	// ComputeTime is the measured time spent running operations, summed
	// over operations. It is scheduling-independent: the parallel
	// executor reports the same value as a sequential run (modulo timer
	// noise), which keeps the cost model and the EG updater unchanged.
	ComputeTime time.Duration
	// LoadTime is the modeled Cl total of artifacts loaded from EG.
	LoadTime time.Duration
	// FetchTime is the measured wall-clock total of EG artifact fetches,
	// summed over reused vertices.
	FetchTime time.Duration
	// WallTime is the measured end-to-end duration of Execute. Under
	// parallel execution WallTime < ComputeTime when independent
	// branches overlap; under sequential execution it is approximately
	// ComputeTime plus real fetch time.
	WallTime time.Duration
	// Executed counts operations actually run.
	Executed int
	// Reused counts artifacts loaded from EG.
	Reused int
	// Skipped counts vertices outside the execution path (pruned by the
	// reuse plan).
	Skipped int
	// Warmstarted counts training operations that adopted a donor.
	Warmstarted int
}

// trainOpReporter lets the executor observe whether a Train op actually
// warmstarted on its last run.
type trainOpReporter interface{ LastWarmstarted() bool }

// ExecOption configures Execute.
type ExecOption func(*execConfig)

type execConfig struct {
	trace *obs.Trace
	// req is the record of the run this execution belongs to, set by
	// Client.Run: its ID tags the top-level trace span and travels with
	// every fetch. nil for a bare Execute call.
	req *obs.Request
	// resume marks an attempt of Client.Run after one whose planned loads
	// missed: what earlier attempts loaded or computed is held.
	resume bool
}

// WithTrace attaches a trace recorder to the execution: every vertex emits
// scheduling instants and fetch/compute spans keyed by worker lane, plus
// one top-level span per Execute. A nil recorder (the default) keeps the
// hot path free of tracing work — no timestamps taken, nothing allocated.
// Tracing never alters scheduling, so determinism guarantees are unchanged.
func WithTrace(t *obs.Trace) ExecOption {
	return func(c *execConfig) { c.trace = t }
}

// vexec is the per-vertex scheduling state of one Execute call. Each vertex
// is run by exactly one worker, which is the only goroutine that mutates
// the node or this record until completion is published under the
// scheduler lock.
type vexec struct {
	node *graph.Node
	// topo is the vertex position in w.TopoOrder(), the deterministic
	// tie-break for dispatch and error selection.
	topo int
	// pending counts incomplete active parent edges; the vertex becomes
	// ready at zero. Guarded by the scheduler mutex.
	pending int
	// children are the active vertices waiting on this one.
	children []*vexec
	// held marks a vertex whose content is on the client before this
	// execution: a source or a prior cell's vertex (Computed), or, when
	// resuming, one an earlier attempt loaded or computed.
	held bool
	// stop marks plan-reuse or held vertices, which act as schedule
	// sources: they never wait on parents.
	stop bool

	// predLoad is the planner's Cl prediction for plan-reuse vertices.
	predLoad time.Duration

	// Completion record, written by the owning worker, read after join.
	reused    bool
	executed  bool
	missed    bool // a planned load the source had no content for
	loadCost  time.Duration
	fetchTime time.Duration
	elapsed   time.Duration
	err       error
}

// vexecHeap is a min-heap of ready vertices ordered by topo index, so
// dispatch order is deterministic for a given DAG: with one worker the
// schedule is exactly the lowest-index-first topological order, and with
// many workers ties are broken identically across runs.
type vexecHeap []*vexec

func (h vexecHeap) Len() int           { return len(h) }
func (h vexecHeap) Less(i, j int) bool { return h[i].topo < h[j].topo }
func (h vexecHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *vexecHeap) Push(x any)        { *h = append(*h, x.(*vexec)) }
func (h *vexecHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return v
}

// Execute runs the optimized DAG (Figure 2, step 4): it loads the plan's
// reuse vertices from the store and computes everything else needed to
// produce every terminal vertex, annotating each vertex with measured
// compute time and size for the updater. A planned load the store has no
// content for is an error; Client.Run computes it instead.
//
// Scheduling is a dependency-counting parallel scheduler: every active
// vertex whose active parents have all completed is dispatched to a
// bounded worker pool, so independent DAG branches overlap and store
// fetches (plan reuse) overlap with compute. Results are deterministic:
// operators are pure, each node is mutated only by its owning worker,
// aggregate metrics are summed in topological order after the join, and on
// failure the reported error is the one whose vertex comes first in
// topological order — exactly the error a sequential run would hit.
func Execute(w *graph.DAG, plan *reuse.Plan, src ArtifactSource, opts ...ExecOption) (*ExecResult, error) {
	cfg := execConfig{}
	for _, o := range opts {
		o(&cfg)
	}
	res := &ExecResult{}
	missed, err := execute(w, plan, src, cfg, res)
	if err == nil && len(missed) > 0 {
		n := w.Node(missed[0])
		err = fmt.Errorf("core: plan reuses %s (%s) but store has no content", n.ID, n.Name)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// execute is Execute with its options resolved, adding what it does to res;
// Client.Run enters here with the run's request record attached. A planned
// load that finds no content is not an error: it is returned in missed, in
// topological order, and nothing that needs it runs. Everything else is
// executed.
func execute(w *graph.DAG, plan *reuse.Plan, src ArtifactSource, cfg execConfig, res *ExecResult) (missed []string, err error) {
	workers := parallel.Workers()
	tr := cfg.trace
	sw := obs.StartTimer()
	if plan == nil {
		plan = &reuse.Plan{Reuse: map[string]bool{}}
	}
	held := func(n *graph.Node) bool { return n.Content != nil && (n.Computed || cfg.resume) }
	// Active set: vertices needed to produce the terminals, stopping the
	// upward traversal at loaded or held vertices.
	active := make(map[string]bool)
	graph.Walk(w.Terminals(), active, func(n *graph.Node) bool { return !plan.Reuse[n.ID] && !held(n) })

	order := w.TopoOrder()
	states := make(map[string]*vexec, len(active))
	var topoStates []*vexec // active vertices in topo order
	for i, n := range order {
		if !active[n.ID] {
			continue
		}
		s := &vexec{node: n, topo: i, held: held(n)}
		s.stop = plan.Reuse[n.ID] || s.held
		if plan.Reuse[n.ID] {
			if sec, ok := plan.PredictedLoad[n.ID]; ok {
				s.predLoad = time.Duration(sec * float64(time.Second))
			}
		}
		states[n.ID] = s
		topoStates = append(topoStates, s)
	}
	// Dependency edges among active vertices. Stop vertices are schedule
	// sources — their parents (when active via another path) are not
	// awaited, which lets a store fetch start immediately and overlap
	// with upstream compute.
	for _, s := range topoStates {
		if s.stop {
			continue
		}
		for _, p := range s.node.Parents {
			ps := states[p.ID]
			if ps == nil {
				continue
			}
			s.pending++
			ps.children = append(ps.children, s)
		}
	}

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		ready    vexecHeap
		inflight int
		errTopo  = -1 // lowest topo index of a failed vertex, -1 if none
	)
	for _, s := range topoStates {
		if s.pending == 0 {
			ready = append(ready, s)
		}
	}
	heap.Init(&ready)

	worker := func(wid int) {
		for {
			mu.Lock()
			// Once a vertex at topo index k failed, only vertices
			// with smaller indices still matter: they are the only
			// ones that could carry the deterministic "first in
			// topo order" error (ancestors always precede their
			// descendants). Drop the rest unrun.
			for errTopo >= 0 && len(ready) > 0 && ready[0].topo > errTopo {
				heap.Pop(&ready)
			}
			for len(ready) == 0 && inflight > 0 {
				cond.Wait()
				for errTopo >= 0 && len(ready) > 0 && ready[0].topo > errTopo {
					heap.Pop(&ready)
				}
			}
			if len(ready) == 0 {
				mu.Unlock()
				return
			}
			s := heap.Pop(&ready).(*vexec)
			inflight++
			mu.Unlock()

			if tr != nil {
				tr.Instant(s.node.Name, "sched", wid, map[string]any{"vertex": s.node.ID})
			}
			err := runVertex(s, src, cfg, wid)

			mu.Lock()
			inflight--
			if err != nil {
				s.err = err
				if errTopo < 0 || s.topo < errTopo {
					errTopo = s.topo
				}
			} else if !s.missed {
				for _, c := range s.children {
					c.pending--
					if c.pending == 0 {
						heap.Push(&ready, c)
					}
				}
			}
			cond.Broadcast()
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			worker(wid)
		}(i)
	}
	worker(0)
	wg.Wait()

	if errTopo >= 0 {
		for _, s := range topoStates {
			if s.err != nil {
				return nil, s.err
			}
		}
	}

	// Aggregate metrics in topological order so sums of durations are
	// accumulated deterministically regardless of completion order.
	res.Skipped = len(order) - len(topoStates)
	for _, s := range topoStates {
		switch {
		case s.missed:
			missed = append(missed, s.node.ID)
		case s.reused:
			res.Reused++
			res.LoadTime += s.loadCost
			res.FetchTime += s.fetchTime
		case s.executed:
			res.Executed++
			res.ComputeTime += s.elapsed
			if s.node.Warmstarted {
				res.Warmstarted++
			}
		}
	}
	res.RunTime = res.ComputeTime + res.LoadTime
	wall := sw.Elapsed()
	res.WallTime += wall
	if tr != nil {
		args := map[string]any{
			"executed": res.Executed, "reused": res.Reused,
			"skipped": res.Skipped, "warmstarted": res.Warmstarted,
			"workers": workers,
		}
		if id := cfg.req.ID(); id != "" {
			args[obs.RequestIDKey] = id
		}
		tr.Span("execute", "execute", 0, sw.StartedAt(), wall, args)
	}
	return missed, nil
}

// runVertex performs the work of one active vertex. It is called by
// exactly one worker per vertex; the node and the vexec completion fields
// are owned by that worker until it publishes under the scheduler lock.
// cfg.trace may be nil (tracing disabled); every tracing statement is
// guarded so the disabled path builds no span arguments and allocates
// nothing.
func runVertex(s *vexec, src ArtifactSource, cfg execConfig, wid int) error {
	n, tr := s.node, cfg.trace
	switch {
	case s.held:
		// already on the client (source, prior cell or earlier attempt)
	case s.stop:
		// plan-reuse vertex: fetch from the store
		fetchSW := obs.StartTimer()
		// The load cost is priced for the tier that actually served the
		// bytes (memory, disk, remote).
		content, tierLabel, loadCost := src.FetchTiered(n.ID, cfg.req)
		if content == nil {
			if tr != nil {
				tr.Instant(n.Name, "error", wid, map[string]any{"vertex": n.ID, "missing": true})
			}
			s.missed = true
			return nil
		}
		n.Content = content
		n.SizeBytes = content.SizeBytes()
		n.LoadedFromEG = true
		if ma, ok := content.(*graph.ModelArtifact); ok {
			n.Quality = ma.Quality
		}
		s.loadCost = loadCost
		s.reused = true
		// Annotate the node with measured-vs-predicted so the server's
		// calibration collector can compare them on update.
		fetchElapsed := fetchSW.Elapsed()
		s.fetchTime = fetchElapsed
		n.FetchTime = fetchElapsed
		n.FetchTier = tierLabel
		n.PredictedLoad = s.predLoad
		if tr != nil {
			args := map[string]any{
				"vertex": n.ID, "reuse": true, "bytes": n.SizeBytes,
				"load_cost_ms": float64(s.loadCost.Microseconds()) / 1e3,
			}
			if tierLabel != "" {
				args["tier"] = tierLabel
			}
			tr.Span(n.Name, "fetch", wid, fetchSW.StartedAt(), fetchElapsed, args)
		}
	case n.Kind == graph.SupernodeKind:
		// Supernodes carry no data and no computation.
	default:
		if n.Op == nil {
			return fmt.Errorf("core: vertex %s (%s) has no operation and no content", n.ID, n.Name)
		}
		inputs, err := gatherInputs(n)
		if err != nil {
			return err
		}
		opSW := obs.StartTimer()
		content, err := n.Op.Run(inputs)
		elapsed := opSW.Elapsed()
		if err != nil {
			if tr != nil {
				tr.Span(n.Name, "compute", wid, opSW.StartedAt(), elapsed, map[string]any{
					"vertex": n.ID, "error": err.Error(),
				})
			}
			return fmt.Errorf("core: executing %s: %w", n.Name, err)
		}
		n.Content = content
		n.ComputeTime = elapsed
		n.SizeBytes = content.SizeBytes()
		if ma, ok := content.(*graph.ModelArtifact); ok {
			n.Quality = ma.Quality
		}
		if rep, ok := n.Op.(trainOpReporter); ok && rep.LastWarmstarted() {
			n.Warmstarted = true
		}
		s.elapsed = elapsed
		s.executed = true
		if tr != nil {
			tr.Span(n.Name, "compute", wid, opSW.StartedAt(), elapsed, map[string]any{
				"vertex": n.ID, "reuse": false, "bytes": n.SizeBytes,
				"warmstart": n.Warmstarted,
			})
		}
	}
	return nil
}

// gatherInputs collects the parent artifacts of n in parent order,
// flattening each supernode parent into its own parents' contents —
// supernodes may appear alone or mixed among ordinary parents (e.g. in
// DAGs reconstructed from wire metadata). A model input is handed over as
// a shallow copy carrying its vertex's ID, so that the stored artifact,
// which collaborators share, is never written.
func gatherInputs(n *graph.Node) ([]graph.Artifact, error) {
	inputs := make([]graph.Artifact, 0, len(n.Parents))
	appendContent := func(p *graph.Node) error {
		if p.Content == nil {
			return fmt.Errorf("core: input %s of %s has no content", p.Name, n.Name)
		}
		in := p.Content
		if ma, ok := in.(*graph.ModelArtifact); ok {
			cp := *ma
			cp.VertexID = p.ID
			in = &cp
		}
		inputs = append(inputs, in)
		return nil
	}
	for _, p := range n.Parents {
		if p.Kind == graph.SupernodeKind {
			for _, gp := range p.Parents {
				if err := appendContent(gp); err != nil {
					return nil, err
				}
			}
			continue
		}
		if err := appendContent(p); err != nil {
			return nil, err
		}
	}
	return inputs, nil
}

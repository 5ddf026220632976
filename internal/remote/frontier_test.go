package remote

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/eg"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/reuse"
	"repro/internal/store"
	"repro/internal/workloads/kaggle"
	"repro/internal/workloads/openml"
	"repro/internal/workloads/synth"
)

// variant is a hyperparameter variant of a Table-1 workload, as the
// end-to-end benchmark's variants steps run them: a GBT trained on the
// training input of W1, W2 or W3 and evaluated on it.
type variant struct {
	base int
	spec ops.ModelSpec
}

// drawVariants draws n variants cycling over W1–W3; every tenth repeats an
// earlier one exactly.
func drawVariants(seed int64, n int) []variant {
	rng := rand.New(rand.NewSource(seed))
	out := make([]variant, n)
	for i := range out {
		if i%10 == 9 {
			out[i] = out[rng.Intn(i)]
			continue
		}
		out[i] = variant{base: i % 3, spec: ops.ModelSpec{Kind: "gbt", Params: map[string]float64{
			"n_trees": float64(4 + rng.Intn(5)), "depth": float64(2 + rng.Intn(2)), "lr": 0.1,
		}, Seed: 1000 + int64(i)}}
	}
	return out
}

// build returns the variant's DAG — the training input with its ancestors,
// and the variant's Train and Evaluate on it — and the training input.
func (v variant) build(src *kaggle.Sources) (*graph.DAG, *graph.Node) {
	full := kaggle.AllWorkloads()[v.base].Build(src)
	var input *graph.Node
	for _, n := range full.Nodes() {
		if _, ok := n.Op.(*ops.Train); ok {
			input = n.Parents[0]
			break
		}
	}
	dag := graph.NewDAG()
	for _, n := range full.TopoOrder(input) {
		dag.Adopt(n)
	}
	model := dag.Apply(input, &ops.Train{Spec: v.spec, Label: "TARGET"})
	dag.Combine(ops.Evaluate{Label: "TARGET", Metric: ops.AUC}, model, input)
	return dag, input
}

// TestFrontierFormPlansAsTheWholeDAG: the server plans a DAG's frontier form
// as it plans the whole DAG. Over an Experiment Graph primed with Table-1
// W1–W3, variants, OpenML pipelines and synthetic universe workloads, fresh
// builds of the same kinds of workloads get random Computed marks (with
// content, as the local pruner and the session store leave them) and are
// planned twice by every planner — LN, HL, ALL_M and ALL_C — as they stand
// and as the optimize request decodes them. The reuse plan, its predicted
// loads and the warmstart proposals are the same, and every vertex the
// executor would fetch or compute with that plan travelled: the client
// executes its own whole DAG with the plan, so equal plans make a run fetch
// and compute exactly the same vertices.
func TestFrontierFormPlansAsTheWholeDAG(t *testing.T) {
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})
	cfg := openml.Config{Rows: 300, Features: 8, Seed: 9}
	frame := openml.GenerateDataset(cfg)
	pipes := openml.SamplePipelines(cfg, 8, true)
	for _, lr := range []float64{0.1, 0.2, 0.3} { // siblings: each a warmstart donor for the others
		pipes = append(pipes, openml.Pipeline{Scaler: "std", K: 5, Warmstart: true, Spec: ops.ModelSpec{
			Kind: "logreg", Params: map[string]float64{"lr": lr, "max_iter": 100}, Seed: 1}})
	}
	u := synth.NewUniverse(23, 150)
	rng := rand.New(rand.NewSource(5))
	vs := drawVariants(7, 6)
	workloads := func() []*graph.DAG {
		var out []*graph.DAG
		for _, w := range kaggle.AllWorkloads()[:3] {
			out = append(out, w.Build(src))
		}
		for _, v := range vs {
			dag, _ := v.build(src)
			out = append(out, dag)
		}
		for _, p := range pipes {
			out = append(out, p.Build(frame))
		}
		for i := 0; i < 6; i++ {
			out = append(out, u.Workload(rng, rng.Intn(u.Len()), rng.Intn(u.Len())))
		}
		return out
	}

	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30), core.WithWarmstart(true))
	client := core.NewClient(srv)
	for _, w := range workloads() {
		if isUniverse(w) {
			for _, n := range w.Nodes() {
				if !n.IsSource() {
					n.Content = &graph.AggregateArtifact{Value: rng.Float64()}
				}
			}
			srv.Update(w, nil, 0)
			continue
		}
		if _, err := client.Run(w); err != nil {
			t.Fatal(err)
		}
	}

	planners := []reuse.Planner{reuse.Linear{}, reuse.Helix{}, reuse.AllMaterialized{}, reuse.AllCompute{}}
	var reused, warmstarts, above int
	for round := 0; round < 3; round++ {
		for i, w := range workloads() {
			w.MarkComputed()
			for _, n := range w.Nodes() {
				if !n.IsSource() && rng.Intn(4) == 0 {
					n.Computed, n.Content = true, &graph.AggregateArtifact{}
				}
			}
			body, err := (&OptimizeRequest{DAG: w}).marshal()
			if err != nil {
				t.Fatal(err)
			}
			var req OptimizeRequest
			if err := req.unmarshal(body); err != nil {
				t.Fatal(err)
			}
			sent := req.DAG
			above += w.Len() - sent.Len()
			for _, p := range planners {
				label := fmt.Sprintf("round %d, workload %d, %s", round, i, p.Name())
				whole := p.Plan(w, reuse.GatherCosts(w, srv.EG, srv.Store))
				front := p.Plan(sent, reuse.GatherCosts(sent, srv.EG, srv.Store))
				if !maps.Equal(whole.Reuse, front.Reuse) || !maps.Equal(whole.PredictedLoad, front.PredictedLoad) {
					t.Fatalf("%s: the whole DAG plans %v (loads %v), its frontier form %v (loads %v)",
						label, whole.Reuse, whole.PredictedLoad, front.Reuse, front.PredictedLoad)
				}
				// The whole DAG may also draw a proposal for a model above the
				// frontier, which the run never trains (run, below, holds what
				// it does): only the travelled vertices' proposals are the plan's.
				run := executed(w, whole)
				var wsWhole []reuse.WarmstartCandidate
				for _, c := range reuse.FindWarmstarts(w, srv.EG, srv.Store, whole) {
					if sent.Node(c.VertexID) != nil {
						wsWhole = append(wsWhole, c)
					}
				}
				wsWhole = byVertex(wsWhole)
				wsFront := byVertex(reuse.FindWarmstarts(sent, srv.EG, srv.Store, front))
				if !slices.Equal(wsWhole, wsFront) {
					t.Fatalf("%s: warmstarts %v for the whole DAG, %v for its frontier form", label, wsWhole, wsFront)
				}
				for id := range run {
					if sent.Node(id) == nil {
						t.Fatalf("%s: the run would fetch or compute %s, which did not travel", label, id)
					}
				}
				for id := range whole.Reuse {
					if sent.Node(id).Frontier {
						t.Fatalf("%s: the plan loads frontier vertex %s", label, id)
					}
				}
				reused += len(whole.Reuse)
				warmstarts += len(wsWhole)
			}
		}
	}
	if reused == 0 || warmstarts == 0 || above == 0 {
		t.Fatalf("%d loads, %d warmstarts and %d vertices above a frontier: the comparison is vacuous", reused, warmstarts, above)
	}
}

// isUniverse reports whether w is a synthetic universe workload, whose
// operations only stand in for work: its first vertex, a source, holds an
// aggregate.
func isUniverse(w *graph.DAG) bool {
	_, ok := w.Nodes()[0].Content.(*graph.AggregateArtifact)
	return ok
}

// byVertex orders warmstart proposals by vertex, as the two DAGs list their
// nodes in different orders.
func byVertex(ws []reuse.WarmstartCandidate) []reuse.WarmstartCandidate {
	slices.SortFunc(ws, func(a, b reuse.WarmstartCandidate) int { return strings.Compare(a.VertexID, b.VertexID) })
	return ws
}

// executed is what the executor fetches or computes of w under plan: the
// walk up from the terminals that stops at a planned load and at content the
// client holds (core.Execute's active set).
func executed(w *graph.DAG, plan *reuse.Plan) map[string]bool {
	active := make(map[string]bool)
	stack := w.Terminals()
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if active[n.ID] {
			continue
		}
		active[n.ID] = true
		if !plan.Reuse[n.ID] && !(n.Computed && n.Content != nil) {
			stack = append(stack, n.Parents...)
		}
	}
	return active
}

// updateHook is a client transport that counts a run's updates and 409
// answers, and runs before, once, ahead of the next update it forwards.
type updateHook struct {
	next http.RoundTripper

	mu        sync.Mutex
	before    func()
	updates   int
	conflicts int
}

func (h *updateHook) RoundTrip(req *http.Request) (*http.Response, error) {
	update := req.URL.Path == "/v1/update"
	h.mu.Lock()
	before := h.before
	if update {
		h.updates++
		h.before = nil
	}
	h.mu.Unlock()
	if update && before != nil {
		before()
	}
	resp, err := h.next.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusConflict {
		h.mu.Lock()
		h.conflicts++
		h.mu.Unlock()
	}
	return resp, err
}

// take returns the counts since the last take and starts afresh.
func (h *updateHook) take() (updates, conflicts int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	updates, conflicts = h.updates, h.conflicts
	h.updates, h.conflicts = 0, 0
	return updates, conflicts
}

// pruneFrom removes vertex id and every descendant of it from s's graph, as
// a prune policy that finds them idle does.
func pruneFrom(s *core.Server, id string) {
	drop := make(map[string]bool)
	var down func(id string)
	down = func(id string) {
		if drop[id] {
			return
		}
		drop[id] = true
		for _, c := range s.EG.Vertex(id).Children {
			down(c)
		}
	}
	down(id)
	if removed := s.EG.Prune(eg.PrunePolicy{MinFrequency: math.MaxInt}, func(v string) bool { return !drop[v] }); len(removed) != len(drop) {
		panic(fmt.Sprintf("pruned %d of the %d vertices from %s", len(removed), len(drop), id))
	}
}

// runOverTheWireAndInProcess runs a cold W1–W3 prime, 40 W1–W3 variants
// (every tenth a repeat) and 50 OpenML pipelines through one collaborator
// over HTTP, and feeds each executed DAG, whole and with its content, to an
// in-process server. Before the update of the fourth variant — a W1 variant
// whose training input the session holds, so it is a frontier vertex — both
// servers drop that vertex and its descendants. After every run the two
// servers must hold the same graph and the same stored IDs, and at the end
// the same artifacts bit for bit.
func runOverTheWireAndInProcess(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	ref := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	hook := &updateHook{next: http.DefaultTransport}
	rc := NewClient(ts.URL, cost.Memory())
	rc.http.Transport = hook

	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})
	cfg := openml.DefaultConfig()
	frame := openml.GenerateDataset(cfg)
	type step struct {
		dag    *graph.DAG
		pruned string // the frontier vertex lost between optimize and update
	}
	var steps []step
	for _, w := range kaggle.AllWorkloads()[:3] {
		steps = append(steps, step{dag: w.Build(src)})
	}
	for i, v := range drawVariants(11, 40) {
		dag, input := v.build(src)
		s := step{dag: dag}
		if i == 3 {
			s.pruned = input.ID
		}
		steps = append(steps, s)
	}
	for _, p := range openml.SamplePipelines(cfg, 50, false) {
		steps = append(steps, step{dag: p.Build(frame)})
	}
	for i, s := range steps {
		if s.pruned != "" {
			hook.before = func() { pruneFrom(srv, s.pruned) }
		}
		res := mustRun(t, rc, s.dag)
		updates, conflicts := hook.take()
		if want := btoi(s.pruned != ""); updates != 1+want || conflicts != want {
			t.Fatalf("step %d: %d updates and %d conflicts, want %d and %d", i, updates, conflicts, 1+want, want)
		}
		if s.pruned != "" {
			if !s.dag.Node(s.pruned).Computed {
				t.Fatalf("step %d: the pruned training input is not a frontier vertex", i)
			}
			pruneFrom(ref, s.pruned)
		}
		ref.Update(s.dag, nil, res.WallTime)
		if err := sameGraph(srv, ref); err != nil {
			t.Fatalf("after step %d: %v", i, err)
		}
	}
	for _, id := range srv.Store.StoredIDs() {
		a := peek(t, srv.Store, id)
		b := peek(t, ref.Store, id)
		if !sameBits(a, b) {
			t.Errorf("stored content of %s differs from the in-process server's", id)
		}
	}
	frontier := 0
	for _, r := range srv.Flight().Snapshot() {
		frontier += r.Frontier
	}
	if frontier == 0 {
		t.Fatal("no request carried a frontier vertex: the comparison is vacuous")
	}
}

// sameGraph compares two servers' Experiment Graphs as a snapshot persists
// them — every vertex's attributes, edges, lineage and meta-data, and the
// column sizes — with each vertex's Cr and p, and their stored IDs. The
// graphs' insertion orders are not compared, nor the order of a vertex's
// children: a DAG merged whole goes in in its own node order, one from the
// wire in the order it travelled (TopoOrder).
func sameGraph(got, want *core.Server) error {
	persisted := func(s *core.Server) *eg.Snapshot {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(s.EG.Snapshot()); err != nil {
			panic(err)
		}
		var snap eg.Snapshot
		if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
			panic(err)
		}
		return &snap
	}
	g, w := persisted(got), persisted(want)
	if len(g.Vertices) != len(w.Vertices) {
		return fmt.Errorf("EG holds %d vertices, want %d", len(g.Vertices), len(w.Vertices))
	}
	for i, v := range g.Vertices {
		slices.Sort(v.Children)
		slices.Sort(w.Vertices[i].Children)
		if !reflect.DeepEqual(v, w.Vertices[i]) {
			return fmt.Errorf("vertex %s differs:\n got %+v\nwant %+v", v.ID, *v, *w.Vertices[i])
		}
		a, b := got.EG.Vertex(v.ID), want.EG.Vertex(v.ID)
		if a.RecreationCost() != b.RecreationCost() || a.Potential() != b.Potential() {
			return fmt.Errorf("vertex %s: Cr %v p %v, want Cr %v p %v", v.ID, a.RecreationCost(), a.Potential(), b.RecreationCost(), b.Potential())
		}
	}
	if !maps.Equal(g.ColSizes, w.ColSizes) {
		return fmt.Errorf("column sizes differ: %d columns, want %d", len(g.ColSizes), len(w.ColSizes))
	}
	ids, wantIDs := got.Store.StoredIDs(), want.Store.StoredIDs()
	slices.Sort(ids)
	slices.Sort(wantIDs)
	if !slices.Equal(ids, wantIDs) {
		return fmt.Errorf("stored %v, want %v", ids, wantIDs)
	}
	return nil
}

// BenchmarkVariantControlPlane is the control plane of the variants regime:
// after a cold W1–W3 prime over httptest, one collaborator runs W1–W3
// variants, and the benchmark reports per run the optimize and update
// request bytes and each handler's time (the server's own measure of the
// route, collab_http_request_seconds).
func BenchmarkVariantControlPlane(b *testing.B) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	h := NewHandler(srv)
	ts := httptest.NewServer(h)
	defer ts.Close()
	rc, log := loggedClient(ts.URL)
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})
	for _, w := range kaggle.AllWorkloads()[:3] {
		mustRun(b, rc, w.Build(src))
	}
	vs := drawVariants(42, 30)
	log.mu.Lock()
	log.bodies = make(map[string][][]byte)
	log.mu.Unlock()
	optimize, update := h.metrics.routes["/v1/optimize"].seconds, h.metrics.routes["/v1/update"].seconds
	optSec, updSec := optimize.Sum(), update.Sum()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dag, _ := vs[i%len(vs)].build(src)
		mustRun(b, rc, dag)
	}
	b.StopTimer()
	size := func(path string) (n int) {
		for _, body := range log.bodies[path] {
			n += len(body)
		}
		return n
	}
	perRun := func(v float64) float64 { return v / float64(b.N) }
	b.ReportMetric(perRun(float64(size("/v1/optimize"))), "optimize-B/run")
	b.ReportMetric(perRun(float64(size("/v1/update"))), "update-B/run")
	b.ReportMetric(perRun((optimize.Sum()-optSec)*1e9), "optimize-ns/run")
	b.ReportMetric(perRun((update.Sum()-updSec)*1e9), "update-ns/run")
}

package remote

import (
	"crypto/sha256"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/materialize"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/reuse"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/workloads/kaggle"
	"repro/internal/workloads/openml"
	"repro/internal/workloads/synth"
)

// downloads counts GET /v1/artifact per vertex ID in front of a handler.
type downloads struct {
	next http.Handler
	mu   sync.Mutex
	gets map[string]int
}

func (d *downloads) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && r.URL.Path == "/v1/artifact" {
		d.mu.Lock()
		d.gets[r.URL.Query().Get("id")]++
		d.mu.Unlock()
	}
	d.next.ServeHTTP(w, r)
}

func (d *downloads) of(id string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gets[id]
}

func (d *downloads) total() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, c := range d.gets {
		n += c
	}
	return n
}

// countingServer serves srv over HTTP and counts its artifact downloads.
func countingServer(t testing.TB, srv *core.Server) (string, *downloads) {
	t.Helper()
	d := &downloads{next: NewHandler(srv), gets: make(map[string]int)}
	ts := httptest.NewServer(d)
	t.Cleanup(ts.Close)
	return ts.URL, d
}

// mustRun runs dag through rc and fails the test on an execution or a
// swallowed transport error.
func mustRun(t testing.TB, rc *Client, dag *graph.DAG) *core.RunResult {
	t.Helper()
	res, err := core.NewClient(rc).Run(dag)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := rc.Err(); err != nil {
		t.Fatalf("transport: %v", err)
	}
	return res
}

// scalars maps vertex ID → the scalar that summarizes its content, an
// aggregate's value or a model's quality, for every vertex holding one.
func scalars(dag *graph.DAG) map[string]float64 {
	out := make(map[string]float64)
	for _, n := range dag.Nodes() {
		switch c := n.Content.(type) {
		case *graph.AggregateArtifact:
			out[n.ID] = c.Value
		case *graph.ModelArtifact:
			out[n.ID] = c.Quality
		}
	}
	return out
}

// variantDAG hangs a GBT and its evaluation off the vertex that the
// Train operations of a Table-1 workload read: the hyperparameter-search
// step, which shares its whole feature pipeline with every other variant.
func variantDAG(src *kaggle.Sources, base func(*kaggle.Sources) *graph.DAG, spec ops.ModelSpec) (*graph.DAG, *graph.Node) {
	full := base(src)
	var input *graph.Node
	for _, n := range full.Nodes() {
		if _, ok := n.Op.(*ops.Train); ok {
			input = n.Parents[0]
			break
		}
	}
	slim := graph.NewDAG()
	for _, n := range full.TopoOrder(input) {
		slim.Adopt(n)
	}
	model := slim.Apply(input, &ops.Train{Spec: spec, Label: "TARGET"})
	slim.Combine(ops.Evaluate{Label: "TARGET", Metric: ops.AUC}, model, input)
	return slim, input
}

func gbt(trees int, seed int64) ops.ModelSpec {
	return ops.ModelSpec{Kind: "gbt", Params: map[string]float64{"n_trees": float64(trees), "depth": 2, "lr": 0.1}, Seed: seed}
}

// sessionSequence is one list of workloads for the on/off/evicting property.
type sessionSequence struct {
	name string
	// prime runs through a client of its own before the sequence, so the
	// server holds something to load.
	prime, steps []func() *graph.DAG
	serverOpts   []core.ServerOption
	// warmstarts says the sequence must warmstart some training.
	warmstarts bool
	// tight is a session budget small enough to evict during the sequence.
	tight int64
}

func sessionSequences() []sessionSequence {
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})
	var table1, features, variants []func() *graph.DAG
	for _, wl := range kaggle.AllWorkloads() {
		build := wl.Build
		table1 = append(table1, func() *graph.DAG { return build(src) })
	}
	features = table1[:3]
	bases := []func(*kaggle.Sources) *graph.DAG{kaggle.Workload1, kaggle.Workload2, kaggle.Workload3}
	specs := make([]ops.ModelSpec, 30)
	for i := range specs {
		specs[i] = gbt(3+i%4, int64(100+i))
		if i%10 == 9 {
			specs[i] = specs[i-7] // an exact repeat of an earlier variant
		}
	}
	for i, spec := range specs {
		base, spec := bases[i%len(bases)], spec
		if i%10 == 9 {
			base = bases[(i-7)%len(bases)]
		}
		variants = append(variants, func() *graph.DAG { dag, _ := variantDAG(src, base, spec); return dag })
	}

	// Warmstarted trainings are reproducible only while every pipeline is
	// new (a model retrained from another donor differs from the one kept
	// under the same vertex ID) and the donors on offer do not depend on
	// measured times, hence distinct pipelines and the ALL materializer.
	cfg := openml.DefaultConfig()
	frame := openml.GenerateDataset(cfg)
	var pipelines []func() *graph.DAG
	distinct := make(map[string]bool)
	for _, p := range openml.SamplePipelines(cfg, 40, true) {
		// The evaluation's lineage ID is the pipeline's identity.
		if key := p.Build(frame).Terminals()[0].ID; !distinct[key] {
			distinct[key] = true
			p := p
			pipelines = append(pipelines, func() *graph.DAG { return p.Build(frame) })
		}
	}

	// Wide DAGs of one seed share their chains' prefixes.
	var wide []func() *graph.DAG
	for i := 0; i < 12; i++ {
		p := synth.WideProfile{Branches: 2 + i%4, Depth: 2 + (i*5)%4, SpinIters: 500}
		seed := int64(1 + i%2)
		wide = append(wide, func() *graph.DAG { return synth.Wide(p, seed) })
	}
	return []sessionSequence{
		{name: "kaggle-table1", steps: table1, tight: 4 << 20},
		{name: "kaggle-variants", prime: features, steps: variants, tight: 1 << 20},
		{name: "openml-warmstart", steps: pipelines, tight: 4 << 10, warmstarts: true,
			serverOpts: []core.ServerOption{core.WithWarmstart(true), core.WithStrategy(materialize.NewAll())}},
		{name: "synth-wide", steps: wide, tight: 64},
	}
}

// run drives the sequence against a fresh server through one client with the
// given session budget and returns each step's scalars and the IDs of its
// terminal aggregates.
func (s sessionSequence) run(t *testing.T, budget int64) (out []map[string]float64, terminals [][]string, stats SessionStats) {
	warmstarted := 0
	t.Helper()
	opts := append([]core.ServerOption{core.WithBudget(1 << 30)}, s.serverOpts...)
	ts := httptest.NewServer(NewHandler(core.NewServer(store.New(cost.Memory()), opts...)))
	defer ts.Close()
	primer := NewClient(ts.URL, cost.Memory())
	for _, build := range s.prime {
		mustRun(t, primer, build())
	}
	rc := NewClient(ts.URL, cost.Memory())
	rc.SetSessionBudget(budget)
	for _, build := range s.steps {
		dag := build()
		warmstarted += mustRun(t, rc, dag).Warmstarted
		out = append(out, scalars(dag))
		var ids []string
		for _, n := range dag.Terminals() {
			if n.Kind == graph.AggregateKind {
				ids = append(ids, n.ID)
			}
		}
		terminals = append(terminals, ids)
	}
	if s.warmstarts != (warmstarted > 0) {
		t.Errorf("session budget %d: %d trainings warmstarted, want some: %v", budget, warmstarted, s.warmstarts)
	}
	return out, terminals, rc.SessionStats()
}

// TestSessionOnOffEvictingIdentical is the property the session store rests
// on: holding content across runs changes what is downloaded, never a result.
// Every sequence yields the same terminal aggregates and model qualities, bit
// for bit, with the session at its default budget, switched off, and so tight
// that it evicts while the sequence runs.
func TestSessionOnOffEvictingIdentical(t *testing.T) {
	for _, seq := range sessionSequences() {
		seq := seq
		t.Run(seq.name, func(t *testing.T) {
			off, terminals, offStats := seq.run(t, 0)
			on, _, onStats := seq.run(t, DefaultSessionBudget)
			tight, _, tightStats := seq.run(t, seq.tight)
			if offStats != (SessionStats{}) {
				t.Errorf("session off reports %+v", offStats)
			}
			if onStats.Hits == 0 {
				t.Errorf("session on never hit: %+v", onStats)
			}
			if tightStats.Evictions == 0 || tightStats.Bytes > seq.tight {
				t.Errorf("budget %d: %+v, want evictions and bytes within the budget", seq.tight, tightStats)
			}
			for step := range off {
				for _, id := range terminals[step] {
					if _, ok := off[step][id]; !ok {
						t.Fatalf("step %d: terminal %s has no scalar content with the session off", step, id)
					}
				}
				for mode, got := range map[string]map[string]float64{"on": on[step], "evicting": tight[step]} {
					for _, id := range terminals[step] {
						if _, ok := got[id]; !ok {
							t.Errorf("step %d, session %s: terminal %s has no content", step, mode, id)
						}
					}
					for id, g := range got {
						if w, ok := off[step][id]; ok && math.Float64bits(g) != math.Float64bits(w) {
							t.Errorf("step %d, session %s: vertex %s = %v, with the session off %v", step, mode, id, g, w)
						}
					}
				}
			}
		})
	}
}

// columnSums checksums every column of a dataset artifact.
func columnSums(t testing.TB, a graph.Artifact) map[string][sha256.Size]byte {
	t.Helper()
	ds, ok := a.(*graph.DatasetArtifact)
	if !ok || ds.Frame == nil {
		t.Fatalf("not a dataset: %T", a)
	}
	out := make(map[string][sha256.Size]byte)
	for _, c := range ds.Frame.Columns() {
		rec, err := tier.EncodeColumn(c)
		if err != nil {
			t.Fatal(err)
		}
		out[c.ID] = sha256.Sum256(rec)
	}
	return out
}

// TestSessionFetchesOnceWhileHeld follows one feature frame through the life
// of a collaborator's session: downloaded by the first variant that loads it
// and by none of the next thirty, which read it and leave its columns as
// they were; still there for the run after the server evicted its own copy,
// whose update then uploads it back from the session; downloaded once more
// after the session lost it.
func TestSessionFetchesOnceWhileHeld(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	url, dl := countingServer(t, srv)
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})
	mustRun(t, NewClient(url, cost.Memory()), kaggle.Workload2(src))

	rc := NewClient(url, cost.Memory())
	_, input := variantDAG(src, kaggle.Workload2, gbt(3, 1))
	feat := input.ID
	if !srv.Store.Has(feat) {
		t.Fatal("the server did not materialize W2's training input; nothing to load")
	}
	step := func(seed int64) *graph.Node {
		t.Helper()
		dag, in := variantDAG(src, kaggle.Workload2, gbt(3, seed))
		mustRun(t, rc, dag)
		if in.Content == nil || !in.LoadedFromEG {
			t.Fatalf("variant %d: training input content=%v LoadedFromEG=%v", seed, in.Content != nil, in.LoadedFromEG)
		}
		return in
	}

	first := step(1)
	if first.FetchTier == core.SessionTier || dl.of(feat) != 1 {
		t.Fatalf("first variant: tier %q, %d downloads of the features, want a fetch", first.FetchTier, dl.of(feat))
	}
	want := columnSums(t, first.Content)
	for seed := int64(2); seed <= 31; seed++ {
		in := step(seed)
		if in.FetchTier != core.SessionTier || in.FetchTime != 0 || in.ComputeTime != 0 || !in.Computed {
			t.Fatalf("variant %d: tier %q fetch %v compute %v computed %v, want a session vertex",
				seed, in.FetchTier, in.FetchTime, in.ComputeTime, in.Computed)
		}
	}
	for id, n := range dl.gets {
		if n > 1 {
			t.Errorf("vertex %s downloaded %d times while the session could hold it", id, n)
		}
	}
	held, _ := rc.session.Get(feat)
	if held == nil {
		t.Fatal("session does not hold the features")
	}
	for id, sum := range columnSums(t, held) {
		if sum != want[id] {
			t.Errorf("column %s changed while 30 runs read it", id)
		}
	}
	if st := rc.SessionStats(); st.Hits < 30 || st.Held == 0 || st.Bytes == 0 || st.Evictions != 0 {
		t.Errorf("session stats %+v", st)
	}

	// The server loses its copy: the session still serves the run, and the
	// update hands the content back.
	srv.Store.Evict(feat)
	before := dl.total()
	step(32)
	if dl.total() != before {
		t.Errorf("%d downloads in a run whose inputs the session held", dl.total()-before)
	}
	back, _ := srv.Store.Peek(feat)
	if back == nil {
		t.Fatal("the server wanted the features back and did not get them from the session copy")
	}
	if !sameBits(back, held) {
		t.Error("content uploaded from the session differs from what was fetched")
	}

	// The session loses its copy: one more download.
	rc.session.Evict(feat)
	if in := step(33); in.FetchTier == core.SessionTier || dl.of(feat) != 2 {
		t.Errorf("after eviction: tier %q, %d downloads of the features, want a second fetch", in.FetchTier, dl.of(feat))
	}
	if st := rc.SessionStats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

// TestSessionTwoClients runs two collaborators, each with a session of its
// own, against one server at once (the race detector's case).
func TestSessionTwoClients(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	url, _ := countingServer(t, srv)
	naive := core.NewClient(core.NewServer(store.New(cost.Memory()),
		core.WithPlanner(reuse.AllCompute{}), core.WithBudget(0)))
	build := func(i int) *graph.DAG {
		return synth.Wide(synth.WideProfile{Branches: 2 + i%3, Depth: 2 + i%4, SpinIters: 200}, 7)
	}
	var want []map[string]float64
	for i := 0; i < 12; i++ {
		dag := build(i)
		if _, err := naive.Run(dag); err != nil {
			t.Fatal(err)
		}
		want = append(want, scalars(dag))
	}
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := NewClient(url, cost.Memory())
			rc.SetSessionBudget(96) // a dozen aggregates: evicts as it goes
			client := core.NewClient(rc)
			for i := 0; i < 12; i++ {
				dag := build(i)
				if _, err := client.Run(dag); err != nil {
					t.Errorf("run %d: %v", i, err)
					return
				}
				if err := rc.Err(); err != nil {
					t.Errorf("run %d transport: %v", i, err)
				}
				for id, g := range scalars(dag) {
					if math.Float64bits(g) != math.Float64bits(want[i][id]) {
						t.Errorf("run %d: vertex %s = %v, naive run has %v", i, id, g, want[i][id])
					}
				}
				_ = rc.SessionStats()
			}
		}()
	}
	wg.Wait()
}

// TestSessionVertexServerAccounting is the server's side of a run satisfied
// from the session: it counts as reuse on the scorecard, the flight record
// and the ledger, and leaves no calibration observation behind, neither a
// load (nothing was transferred) nor a compute (nothing was run).
func TestSessionVertexServerAccounting(t *testing.T) {
	srv, rc, closeFn := newRemotePair(t)
	defer closeFn()
	frame := testFrame(200, 5)
	mustRun(t, rc, buildPipeline(frame))
	before := srv.Calibration().Snapshot()
	reusedBefore := ledgerReuse(srv.ArtifactLedger())

	dag := buildPipeline(frame)
	res := mustRun(t, rc, dag)
	if res.Executed != 0 || res.Reused != 0 {
		t.Fatalf("second run executed %d and fetched %d, want everything from the session", res.Executed, res.Reused)
	}
	held := 0
	for _, n := range dag.Nodes() {
		if n.FetchTier == core.SessionTier {
			held++
		}
	}
	if held == 0 {
		t.Fatal("no vertex came from the session")
	}
	report := srv.Calibration().Snapshot()
	if sc := report.LastRun; sc == nil || sc.Reused != held || sc.Executed != 0 || sc.FetchActualSec != 0 {
		t.Errorf("scorecard %+v, want %d reused and nothing executed or fetched", sc, held)
	}
	// Neither a load nor a compute observation: every family is as it was,
	// and none is a load family.
	if !reflect.DeepEqual(report.Families, before.Families) {
		t.Errorf("calibration families went %+v → %+v on a run that fetched and computed nothing",
			before.Families, report.Families)
	}
	for _, f := range report.Families {
		if strings.HasPrefix(f.Name, "load:") {
			t.Errorf("load observations recorded: %+v", f)
		}
	}
	updates := obs.NewFlightReport(srv.Flight().Snapshot(), obs.RequestFilter{Route: "/v1/update"}).Requests
	if len(updates) != 2 || updates[1].Reused != held {
		t.Errorf("flight records of /v1/update: %+v, want the second to carry reuse=%d", updates, held)
	}
	// The ledger counts reuse of what the store keeps, nothing else.
	stored := 0
	for _, n := range dag.Nodes() {
		if n.FetchTier == core.SessionTier && srv.Store.Has(n.ID) {
			stored++
		}
	}
	if got := ledgerReuse(srv.ArtifactLedger()) - reusedBefore; got != int64(stored) {
		t.Errorf("ledger counted %d reuses, want %d (session vertices the store holds)", got, stored)
	}
	if srv.ArtifactLedger().Len() != srv.Store.Len() {
		t.Errorf("ledger tracks %d artifacts, the store holds %d", srv.ArtifactLedger().Len(), srv.Store.Len())
	}
}

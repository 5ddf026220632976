package remote

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/store"
)

func testFrame(rows int, seed int64) *data.Frame {
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, rows)
	b := make([]float64, rows)
	y := make([]float64, rows)
	for i := range a {
		a[i] = rng.NormFloat64()
		b[i] = rng.NormFloat64()
		if a[i]+b[i] > 0 {
			y[i] = 1
		}
	}
	return data.MustNewFrame(
		data.NewFloatColumn("a", a),
		data.NewFloatColumn("b", b),
		data.NewFloatColumn("y", y),
	)
}

func buildPipeline(frame *data.Frame) *graph.DAG {
	w := graph.NewDAG()
	src := w.AddSource("remote.csv", &graph.DatasetArtifact{Frame: frame})
	clean := w.Apply(src, ops.FillNA{})
	feat := w.Apply(clean, ops.Derive{Out: "ab", Inputs: []string{"a", "b"}, Fn: ops.Sum})
	model := w.Apply(feat, &ops.Train{
		Spec:  ops.ModelSpec{Kind: "logreg", Params: map[string]float64{"max_iter": 30}, Seed: 1},
		Label: "y",
	})
	w.Combine(ops.Evaluate{Label: "y", Metric: ops.AUC}, model, feat)
	return w
}

func newRemotePair(t *testing.T) (*core.Server, *Client, func()) {
	t.Helper()
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	ts := httptest.NewServer(NewHandler(srv))
	client := NewClient(ts.URL, cost.Memory())
	return srv, client, ts.Close
}

// anotherClient returns a further collaborator on rc's server: a client of
// its own, whose session store holds nothing yet.
func anotherClient(rc *Client) *Client { return NewClient(rc.base, rc.profile) }

func TestRemoteEndToEnd(t *testing.T) {
	srv, rc, closeFn := newRemotePair(t)
	defer closeFn()
	client := core.NewClient(rc)
	frame := testFrame(200, 1)

	r1, err := client.Run(buildPipeline(frame))
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	if err := rc.Err(); err != nil {
		t.Fatalf("transport error on run 1: %v", err)
	}
	if r1.Executed == 0 {
		t.Fatal("first run executed nothing")
	}
	if srv.EG.Len() == 0 {
		t.Fatal("server EG empty after remote update")
	}
	if len(srv.Store.StoredIDs()) == 0 {
		t.Fatal("server stored no uploaded artifacts")
	}

	// A second collaborator: it holds nothing yet, so what it reuses it
	// fetches from the server.
	rc2 := anotherClient(rc)
	r2, err := core.NewClient(rc2).Run(buildPipeline(frame))
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if err := rc2.Err(); err != nil {
		t.Fatalf("transport error on run 2: %v", err)
	}
	if r2.Reused == 0 {
		t.Error("second remote run should reuse server artifacts")
	}
	if r2.Executed >= r1.Executed {
		t.Errorf("run 2 executed %d >= run 1 %d", r2.Executed, r1.Executed)
	}
}

func TestRemoteArtifactRoundTrip(t *testing.T) {
	srv, rc, closeFn := newRemotePair(t)
	defer closeFn()
	knownTo(t, srv, "v-test")
	frame := testFrame(50, 2)
	if err := srv.PutArtifact("v-test", &graph.DatasetArtifact{Frame: frame}, nil); err != nil {
		t.Fatal(err)
	}
	got, ok := rc.Fetch("v-test").(*graph.DatasetArtifact)
	if !ok {
		t.Fatalf("Fetch returned %T", rc.Fetch("v-test"))
	}
	if got.Frame.NumRows() != 50 || got.Frame.Column("a").ID != frame.Column("a").ID {
		t.Error("frame content or lineage lost in transit")
	}
	if rc.Fetch("missing") != nil {
		t.Error("missing artifact should fetch nil")
	}
}

func TestRemoteStats(t *testing.T) {
	_, rc, closeFn := newRemotePair(t)
	defer closeFn()
	client := core.NewClient(rc)
	if _, err := client.Run(buildPipeline(testFrame(100, 3))); err != nil {
		t.Fatal(err)
	}
	st, err := rc.StatsE()
	if err != nil {
		t.Fatal(err)
	}
	if st.Vertices == 0 || st.Materialized == 0 {
		t.Errorf("stats look empty: %+v", st)
	}
}

// TestStatsKeySet pins the keys of /v1/stats as its raw body carries them,
// not as the struct decodes them: the benchmark reads the first thirteen by
// name, and a renamed field would silently read zero there. After one run
// the store's physical bytes are counted.
func TestStatsKeySet(t *testing.T) {
	_, rc, closeFn := newRemotePair(t)
	defer closeFn()
	mustRun(t, rc, buildPipeline(testFrame(100, 3)))
	resp, err := http.Get(rc.base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	want := []string{
		// Read by the benchmark.
		"LockWaitSec", "LockHoldSec", "StoreLockWaitSec", "PlanTime", "MatTime",
		"ReusePlanned", "PlanPrunedByCost", "WarmstartsProposed", "Vertices",
		"Materialized", "LogicalBytes", "PhysicalBytes", "DiskBytes",
		// Read by collab stats and the tests.
		"MemoryBytes", "MemoryArtifacts", "DiskArtifacts", "OptimizeCount",
		"UpdateCount", "PlanPrunedOffPath", "PlanPrunedNotMaterialized", "Runs",
		"RunWallTime", "LastRunWallTime", "CalibLoadObs", "CalibComputeObs",
		"EstimatedSavedSec", "LastSpeedup", "MaxDrift", "MaxDriftFamily", "LastRun",
		"Version", "GoVersion", "UptimeSeconds", "ArtifactsTracked",
		"ArtifactSavedSec", "ArtifactRentSec", "ArtifactNetSec",
	}
	got := make([]string, 0, len(body))
	for k := range body {
		got = append(got, k)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Errorf("/v1/stats keys\n%v\nwant\n%v", got, want)
	}
	if pb, _ := body["PhysicalBytes"].(float64); pb <= 0 {
		t.Errorf("PhysicalBytes %v after a run, want above 0", body["PhysicalBytes"])
	}
}

func TestWireRoundTripPreservesStructure(t *testing.T) {
	frame := testFrame(20, 4)
	w := buildPipeline(frame)
	w.MarkComputed()
	back := serverDAG(t, w)
	if back.Len() != w.Len() {
		t.Fatalf("reconstructed %d nodes, want %d", back.Len(), w.Len())
	}
	for _, n := range w.Nodes() {
		bn := back.Node(n.ID)
		if bn == nil {
			t.Fatalf("node %s lost", n.Name)
		}
		if len(bn.Parents) != len(n.Parents) {
			t.Errorf("node %s parent count %d != %d", n.Name, len(bn.Parents), len(n.Parents))
		}
		if n.Op != nil && bn.Op.Hash() != n.Op.Hash() {
			t.Errorf("node %s op hash changed", n.Name)
		}
	}
}

func TestRemoteWarmstartEndToEnd(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()),
		core.WithBudget(1<<30), core.WithWarmstart(true))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	rc := NewClient(ts.URL, cost.Memory())
	client := core.NewClient(rc)
	frame := testFrame(300, 9)

	build := func(lr float64) (*graph.DAG, *graph.Node) {
		w := graph.NewDAG()
		src := w.AddSource("remote.csv", &graph.DatasetArtifact{Frame: frame})
		m := w.Apply(src, &ops.Train{
			Spec:      ops.ModelSpec{Kind: "logreg", Params: map[string]float64{"lr": lr, "max_iter": 100}, Seed: 1},
			Label:     "y",
			Warmstart: true,
		})
		return w, m
	}
	w1, _ := build(0.5)
	if _, err := client.Run(w1); err != nil {
		t.Fatal(err)
	}
	w2, m2 := build(0.3) // different hyperparameters: warmstart, not reuse
	r2, err := client.Run(w2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.Err(); err != nil {
		t.Fatalf("transport: %v", err)
	}
	if r2.WarmstartCandidates == 0 {
		t.Fatal("server proposed no warmstart donors over the wire")
	}
	if !m2.Warmstarted {
		t.Error("remote training op did not warmstart")
	}
}

func TestConcurrentRemoteClients(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	const users = 8
	errs := make(chan error, users)
	for u := 0; u < users; u++ {
		go func(u int) {
			rc := NewClient(ts.URL, cost.Memory())
			client := core.NewClient(rc)
			frame := testFrame(100, int64(u%3)) // overlapping workloads
			_, err := client.Run(buildPipeline(frame))
			if err == nil {
				err = rc.Err()
			}
			errs <- err
		}(u)
	}
	for u := 0; u < users; u++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent client failed: %v", err)
		}
	}
	if srv.EG.Len() == 0 {
		t.Fatal("EG empty after concurrent runs")
	}
}

func TestRemoteServerUnavailableDegradesGracefully(t *testing.T) {
	rc := NewClient("http://127.0.0.1:1", cost.Memory()) // nothing listens here
	client := core.NewClient(rc)
	w := buildPipeline(testFrame(50, 5))
	// Run must still execute the workload locally (compute-everything).
	res, err := client.Run(w)
	if err != nil {
		t.Fatalf("offline run failed: %v", err)
	}
	if res.Executed == 0 {
		t.Error("offline run should compute everything")
	}
	if rc.Err() == nil {
		t.Error("transport error should be recorded")
	}
}

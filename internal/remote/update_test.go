package remote

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/eg/egtest"
	"repro/internal/graph"
	"repro/internal/materialize"
	"repro/internal/ml"
	"repro/internal/rec"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/workloads/kaggle"
	"repro/internal/workloads/openml"
)

// TestUpdateStoresTheInlineContentItSelects: what a run computed that is not
// a dataset rides in its update; the server stores what its materializer
// selects of it during the update and stores nothing else of it, and none of
// it is uploaded afterwards.
func TestUpdateStoresTheInlineContentItSelects(t *testing.T) {
	for _, tc := range []struct {
		name     string
		strategy materialize.Strategy
		stored   bool
	}{
		{"all", materialize.NewAll(), true},
		{"none", materialize.LimitCount{Inner: materialize.NewAll(), K: 0}, false},
	} {
		srv := core.NewServer(store.New(cost.Memory()), core.WithStrategy(tc.strategy))
		ts := httptest.NewServer(NewHandler(srv))
		rc, meter := meteredClient(ts.URL)
		dag := buildPipeline(testFrame(200, 1))
		mustRun(t, rc, dag)
		ts.Close()

		sent := inline(dag)
		if len(sent) < 2 {
			t.Fatalf("%s: %d inline artifacts, want the model and the score", tc.name, len(sent))
		}
		for _, a := range sent {
			got := peek(t, srv.Store, a.ID)
			if (got != nil) != tc.stored {
				t.Errorf("%s: %s stored %v; want %v", tc.name, a.ID, got != nil, tc.stored)
			}
			if got != nil && !sameBits(got, a.Content) {
				t.Errorf("%s: %s is not stored as the client holds it", tc.name, a.ID)
			}
		}
		for _, id := range meter.ids() {
			if _, ok := dag.Node(id).Content.(*graph.DatasetArtifact); !ok {
				t.Errorf("%s: %s was uploaded after the update that carried it", tc.name, id)
			}
		}
	}
}

// TestUpdateRefusesInlineContentItCannotTake: a dataset, an item without
// content and content for a vertex the update does not carry are each a 400
// that leaves the Experiment Graph and the store as they were. (A dataset with
// columns cannot be written inline at all: a blob record has no form for
// one.)
func TestUpdateRefusesInlineContentItCannotTake(t *testing.T) {
	dag := buildPipeline(testFrame(50, 1))
	if _, err := core.Execute(dag, nil, nil); err != nil {
		t.Fatal(err)
	}
	var model, feat *graph.Node
	for _, n := range dag.Nodes() {
		switch n.Content.(type) {
		case *graph.ModelArtifact:
			model = n
		case *graph.DatasetArtifact:
			if !n.IsSource() {
				feat = n
			}
		}
	}
	// The source is Computed, as a run's pruning marks it: content an update
	// carried for it would be content the run did not compute.
	src := dag.Nodes()[0]
	src.Computed = true
	valid := InlineArtifact{ID: model.ID, Content: model.Content}
	for _, tc := range []struct {
		name string
		bad  InlineArtifact
	}{
		{"a dataset", InlineArtifact{ID: feat.ID, Content: &graph.DatasetArtifact{}}},
		{"no content", InlineArtifact{ID: model.ID}},
		{"not a vertex of the update", InlineArtifact{ID: "ghost", Content: model.Content}},
		{"a vertex the run did not compute", InlineArtifact{ID: src.ID, Content: model.Content}},
	} {
		srv := core.NewServer(store.New(cost.Memory()), core.WithStrategy(materialize.NewAll()))
		body := &UpdateRequest{DAG: dag, Unknown: dag.IDs(), Inline: []InlineArtifact{valid, tc.bad}}
		if code := postMeta(t, NewHandler(srv), "/v1/update", body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
		if srv.EG.Len() != 0 || srv.Store.Len() != 0 || srv.Stats().UpdateCount != 0 {
			t.Errorf("%s: the refused update reached the server (EG %d, store %d)", tc.name, srv.EG.Len(), srv.Store.Len())
		}
	}
	frame := &UpdateRequest{DAG: dag, Inline: []InlineArtifact{valid, {ID: feat.ID, Content: feat.Content}}}
	if _, err := frame.marshal(); err == nil {
		t.Error("a frame with columns was written inline")
	}
	srv := core.NewServer(store.New(cost.Memory()), core.WithStrategy(materialize.NewAll()))
	body := &UpdateRequest{DAG: dag, Unknown: dag.IDs(), Inline: []InlineArtifact{valid}}
	if code := postMeta(t, NewHandler(srv), "/v1/update", body); code != http.StatusOK || !srv.Store.Has(model.ID) {
		t.Errorf("the valid item alone: status %d, stored %v", code, srv.Store.Has(model.ID))
	}
}

// TestHostileBlobRecordsAreRefused: a blob record the tier refuses — here a
// tree that splits on a feature the model does not list, which gob accepted
// and prediction then indexed past the feature columns with, and a record
// cut short — is a 400 on the update and the upload, leaving the server as
// it was, and an error on a download.
func TestHostileBlobRecordsAreRefused(t *testing.T) {
	record := func(a graph.Artifact) []byte {
		blob, err := tier.AppendBlob(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	split := &ml.TreeNode{Feature: 1, Left: &ml.TreeNode{Feature: -1}, Right: &ml.TreeNode{Feature: -1}}
	tree := record(&graph.ModelArtifact{Model: &ml.DecisionTree{Root: split}, Features: []string{"a", "b"}})
	two, one := record(&graph.ModelArtifact{Features: []string{"a", "b"}}), record(&graph.ModelArtifact{Features: []string{"a"}})
	// The header of a model of one feature, then the tree's learner.
	wrongFeature := slices.Concat(one[:len(one)-1], tree[len(two)-1:])

	dag := buildPipeline(testFrame(50, 1))
	if _, err := core.Execute(dag, nil, nil); err != nil {
		t.Fatal(err)
	}
	nodes, err := listOf(dag, dag.IDs()) // every vertex with its ancestry: the server holds none
	if err == nil {
		err = nodes.tabulate()
	}
	if err != nil {
		t.Fatal(err)
	}
	var model string
	for _, a := range inline(dag) {
		if _, ok := a.Content.(*graph.ModelArtifact); ok {
			model = a.ID
		}
	}
	update := func(blob []byte) []byte {
		body, _ := marshal(updateRequestMagic, func(e *rec.Writer) {
			nodes.write(e, true)
			e.Uvarint(0)
			e.Uvarint(1)
			e.ID(model)
			writeBlob(e, blob)
		})
		return body
	}
	upload := func(blob []byte) []byte {
		body, _ := marshal(uploadRequestMagic, func(e *rec.Writer) {
			e.Uvarint(0) // no column table
			e.Uvarint(1)
			e.ID("m")
			e.Raw([]byte{blobForm})
			writeBlob(e, blob)
		})
		return body
	}
	download := func(blob []byte) error {
		body, _ := marshal(downloadResponseMagic, func(e *rec.Writer) {
			e.Raw([]byte{blobForm})
			writeBlob(e, blob)
		})
		return (&downloadResponse{}).unmarshal(body)
	}
	for name, blob := range map[string][]byte{
		"a split on a feature not listed": wrongFeature,
		"a record cut short":              tree[:len(tree)-1],
		"a valid tree":                    slices.Concat(two[:len(two)-1], tree[len(two)-1:]), // the same splice
	} {
		want, uploaded, stored := http.StatusBadRequest, http.StatusBadRequest, 0
		if name == "a valid tree" {
			want, uploaded, stored = http.StatusOK, http.StatusNoContent, 1
		}
		srv := core.NewServer(store.New(cost.Memory()), core.WithStrategy(materialize.NewAll()))
		if code := postBody(NewHandler(srv), "/v1/update", update(blob)).Code; code != want || want != http.StatusOK && srv.EG.Len() != 0 {
			t.Errorf("update with %s: status %d, want %d (EG %d)", name, code, want, srv.EG.Len())
		}
		srv = core.NewServer(store.New(cost.Memory()))
		knownTo(t, srv, "m")
		if code := postBody(NewHandler(srv), "/v1/artifact", upload(blob)).Code; code != uploaded || srv.Store.Len() != stored {
			t.Errorf("upload of %s: status %d, want %d; store holds %d, want %d", name, code, uploaded, srv.Store.Len(), stored)
		}
		if err := download(blob); (err == nil) != (want == http.StatusOK) {
			t.Errorf("download of %s: %v", name, err)
		}
	}
}

// TestNonSuccessAnswersKeepTheConnection: the transport keeps a connection
// alive only once a response body was read to its end, so answers the
// client does not decode — a fetch of something not stored, a refused
// upload — must be drained before they are closed, or every one of them
// costs the next request a new connection.
func TestNonSuccessAnswersKeepTheConnection(t *testing.T) {
	ts := httptest.NewUnstartedServer(NewHandler(core.NewServer(store.New(cost.Memory()))))
	var opened atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	rc := NewClient(ts.URL, cost.Memory())
	for i := 0; i < 5; i++ {
		if rc.Fetch("missing") != nil || rc.Err() != nil {
			t.Fatal("a 404 must be a silent miss")
		}
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("5 fetches answered 404 opened %d connections, want 1", n)
	}
	for i := 0; i < 5; i++ {
		if _, err := rc.upload([]artifactUpload{{ID: "v"}}, nil); err == nil {
			t.Fatal("an upload answered 400 returned no error")
		}
	}
	if n := opened.Load(); n != 1 {
		t.Errorf("5 fetches and 5 refused uploads opened %d connections, want 1", n)
	}
}

// stepMeter is a client-side http.RoundTripper that counts one run's
// requests by route and keeps what its plans named and what it fetched.
type stepMeter struct {
	next http.RoundTripper

	mu      sync.Mutex
	calls   map[string]int
	planned []string
	fetched []string
}

func (m *stepMeter) RoundTrip(req *http.Request) (*http.Response, error) {
	route := "other"
	switch {
	case req.URL.Path == "/v1/optimize":
		route = "optimize"
	case req.URL.Path == "/v1/update":
		route = "update"
	case req.URL.Path == "/v1/artifact" && req.Method == http.MethodPost:
		route = "upload"
	case req.URL.Path == "/v1/artifact":
		route = "fetch"
	}
	resp, err := m.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls[route]++
	switch route {
	case "fetch":
		m.fetched = append(m.fetched, req.URL.Query().Get("id"))
	case "optimize":
		answer, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(answer))
		var or optimizeResponse
		if err := or.unmarshal(answer); err != nil {
			return nil, err
		}
		for id := range or.Plan.Reuse {
			m.planned = append(m.planned, id)
		}
	}
	return resp, nil
}

// take returns what the meter saw since the last take and starts afresh.
func (m *stepMeter) take() (calls map[string]int, planned, fetched []string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	calls, planned, fetched = m.calls, m.planned, m.fetched
	m.calls, m.planned, m.fetched = make(map[string]int), nil, nil
	return calls, planned, fetched
}

// TestARunIsTwoRequestsPlusItsFetches runs Table-1 W1–W3 and twenty OpenML
// pipelines through one collaborator, then W1–W3 and ten of the pipelines
// again through a second one, who has to fetch what the first left. Every
// run makes one optimize, one update, at most one upload and exactly the
// fetches its plan names. And after every run the server is where the
// per-vertex protocol leaves it: a second server that is sent each executed
// DAG as meta-data and then each wanted vertex's content on its own, as
// clients used to, holds the same vertices with the same measurements,
// meta-data and materialized flags and the same stored IDs — and, at the
// end, the same stored artifacts bit for bit.
func TestARunIsTwoRequestsPlusItsFetches(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	meter := &stepMeter{next: http.DefaultTransport, calls: make(map[string]int)}
	first, second := NewClient(ts.URL, cost.Memory()), NewClient(ts.URL, cost.Memory())
	first.http.Transport, second.http.Transport = meter, meter

	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})
	cfg := openml.DefaultConfig()
	frame := openml.GenerateDataset(cfg)
	pipes := openml.SamplePipelines(cfg, 20, false)
	type run struct {
		rc  *Client
		dag *graph.DAG
	}
	var runs []run
	for _, c := range []struct {
		rc    *Client
		pipes int
	}{{first, 20}, {second, 10}} {
		for _, w := range kaggle.AllWorkloads()[:3] {
			runs = append(runs, run{c.rc, w.Build(src)})
		}
		for _, p := range pipes[:c.pipes] {
			runs = append(runs, run{c.rc, p.Build(frame)})
		}
	}
	replay := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	uploads, fetches := 0, 0
	for i, r := range runs {
		mustRun(t, r.rc, r.dag)
		calls, planned, fetched := meter.take()
		if calls["optimize"] != 1 || calls["update"] != 1 || calls["upload"] > 1 || calls["other"] != 0 {
			t.Errorf("run %d made %v, want one optimize, one update, at most one upload", i, calls)
		}
		sort.Strings(planned)
		sort.Strings(fetched)
		if !reflect.DeepEqual(planned, fetched) {
			t.Errorf("run %d fetched %v, its plan named %v", i, fetched, planned)
		}
		uploads += calls["upload"]
		fetches += len(fetched)

		want, err := replay.Update(serverDAG(t, r.dag), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range want {
			if n := r.dag.Node(id); n != nil && n.Content != nil {
				if err := replay.PutArtifact(id, n.Content, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sameServerState(srv, replay); err != nil {
			t.Fatalf("after run %d: %v", i, err)
		}
	}
	if uploads == 0 || fetches == 0 {
		t.Fatalf("%d uploads and %d fetches over %d runs: the sequence did not exercise the protocol", uploads, fetches, len(runs))
	}
	for _, id := range srv.Store.StoredIDs() {
		a := peek(t, srv.Store, id)
		b := peek(t, replay.Store, id)
		if !sameBits(a, b) {
			t.Errorf("stored content of %s differs from the per-vertex protocol's", id)
		}
	}
	t.Logf("%d runs: %d uploads, %d fetches; %d vertices, %d stored", len(runs), uploads, fetches, srv.EG.Len(), srv.Store.Len())
}

// sameServerState compares what two servers hold: every vertex with its
// measurements, meta-data and materialized flag, and the stored IDs.
func sameServerState(got, want *core.Server) error {
	gv, wv := got.EG.Vertices(), want.EG.Vertices()
	if len(gv) != len(wv) {
		return fmt.Errorf("EG holds %d vertices, want %d", len(gv), len(wv))
	}
	for i := range gv {
		if !reflect.DeepEqual(*gv[i], *wv[i]) {
			return fmt.Errorf("vertex %s differs:\n got %+v\nwant %+v", gv[i].ID, *gv[i], *wv[i])
		}
	}
	ids, wantIDs := got.Store.StoredIDs(), want.Store.StoredIDs()
	sort.Strings(ids)
	sort.Strings(wantIDs)
	if !reflect.DeepEqual(ids, wantIDs) {
		return fmt.Errorf("stored %v, want %v", ids, wantIDs)
	}
	return nil
}

// FuzzUpdateDecode throws arbitrary bytes at POST /v1/update, which decodes
// artifacts from the network. Whatever arrives, the handler answers 200, 400,
// 409 (a frontier vertex the fresh server does not hold) or 413 — never a
// panic, never a 5xx; a refused update leaves the Experiment Graph and the
// store as they were, and an accepted one leaves the graph's maintained
// state equal to its from-scratch derivation. A body that decodes re-encodes
// to the same bytes (decodedUpdate): the decoder is canonical. The seeds are
// updates as a client sends them to a server that holds nothing (every
// vertex with its ancestry), one in its frontier form, the golden body and
// the column tables of TestColumnTablesAreCanonical.
func FuzzUpdateDecode(f *testing.F) {
	w1 := kaggle.AllWorkloads()[0].Build(kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42}))
	if _, err := core.Execute(w1, nil, nil); err != nil {
		f.Fatal(err)
	}
	models := 0
	for _, a := range inline(w1) {
		if _, ok := a.Content.(*graph.ModelArtifact); ok {
			models++
		}
	}
	if models == 0 {
		f.Fatal("W1 carries no model inline")
	}
	small := buildPipeline(testFrame(10, 1))
	if _, err := core.Execute(small, nil, nil); err != nil {
		f.Fatal(err)
	}
	smuggled := inline(small)
	for _, n := range small.Nodes() {
		if !n.IsSource() && n.Kind == graph.DatasetKind {
			smuggled = append(smuggled, InlineArtifact{ID: n.ID, Content: &graph.DatasetArtifact{}})
		}
	}
	reqs := []*UpdateRequest{
		{DAG: w1, Unknown: w1.IDs(), WallTime: time.Second, Inline: inline(w1)},
		{DAG: small, Unknown: small.IDs(), Inline: inline(small)},
		{DAG: small, Unknown: small.IDs(), Inline: smuggled}, // a dataset inline: 400
		{DAG: small, Inline: inline(small)},                  // its frontier unknown: 409
	}
	for _, dag := range learnerRuns(f) {
		reqs = append(reqs, &UpdateRequest{DAG: dag, Unknown: dag.IDs(), Inline: inline(dag)})
	}
	for _, req := range reqs {
		body, err := req.marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)/2]) // truncated
	}
	f.Add([]byte{})
	goldenSeeds(f, updateRequestMagic)
	updates, _ := tableCases(f)
	for _, body := range updates {
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var req UpdateRequest
		if req.unmarshal(body) == nil {
			if again, err := decodedUpdate(&req); err != nil || !bytes.Equal(again, body) {
				t.Fatalf("a body of %d bytes decoded and re-encodes as %d bytes (%v), not the same", len(body), len(again), err)
			}
		}
		srv := core.NewServer(store.New(cost.Memory()))
		rec := httptest.NewRecorder()
		NewHandler(srv).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			if err := egtest.Check(srv.EG); err != nil {
				t.Fatal(err)
			}
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
			if srv.EG.Len() != 0 || srv.Store.Len() != 0 || srv.Stats().UpdateCount != 0 {
				t.Fatalf("a refused update changed the server (EG %d, store %d)", srv.EG.Len(), srv.Store.Len())
			}
		default:
			t.Fatalf("status %d", rec.Code)
		}
	})
}

package remote

import (
	"bytes"
	"encoding/base64"
	"encoding/gob"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/eg"
	"repro/internal/eg/egtest"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/store"
)

// postMeta gob-encodes a meta-data request and POSTs it at the handler.
func postMeta(t testing.TB, h http.Handler, path string, body any) int {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, &buf))
	return rec.Code
}

// wellFormed is the rule FromWire enforces, stated independently: IDs are
// unique and every parent precedes its child.
func wellFormed(nodes []WireNode) bool {
	seen := make(map[string]bool, len(nodes))
	for _, wn := range nodes {
		if seen[wn.ID] {
			return false
		}
		for _, p := range wn.Parents {
			if !seen[p] {
				return false
			}
		}
		seen[wn.ID] = true
	}
	return true
}

// TestMetaRequestsRejectNodeListsThatAreNotDAGs: a collaborative server
// takes DAGs from strangers. A node list that is not a DAG in topological
// order is a 400 on both meta-data routes and leaves the Experiment Graph
// as it was — before, the offending edge was dropped, and an operation's
// output entered the graph as a "source" the updater stores outside the
// budget and asks the client to upload.
func TestMetaRequestsRejectNodeListsThatAreNotDAGs(t *testing.T) {
	src := WireNode{ID: "s", Kind: graph.DatasetKind, Name: "s"}
	a := WireNode{ID: "a", Kind: graph.DatasetKind, Name: "a", OpHash: "ha", Parents: []string{"s"}, ComputeTime: time.Second, SizeBytes: 10}
	b := WireNode{ID: "b", Kind: graph.DatasetKind, Name: "b", OpHash: "hb", Parents: []string{"a"}, ComputeTime: time.Second, SizeBytes: 10}
	self := WireNode{ID: "x", Kind: graph.DatasetKind, OpHash: "hx", Parents: []string{"x"}}
	cases := []struct {
		name  string
		nodes []WireNode
		want  int
	}{
		{"parent after child", []WireNode{src, b, a}, 400},
		{"parent never sent", []WireNode{src, b}, 400},
		{"parent listed twice, once unknown", []WireNode{src, {ID: "c", OpHash: "hc", Parents: []string{"s", "ghost"}}}, 400},
		{"own parent", []WireNode{src, self}, 400},
		{"repeated ID", []WireNode{src, a, a}, 400},
		{"repeated source", []WireNode{src, src}, 400},
		{"empty", nil, 200},
		{"topological", []WireNode{src, a, b}, 200},
	}
	for _, route := range []string{"/v1/optimize", "/v1/update"} {
		for _, tc := range cases {
			srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
			var body any = &OptimizeRequest{Nodes: tc.nodes}
			if route == "/v1/update" {
				body = &UpdateRequest{Nodes: tc.nodes}
			}
			if code := postMeta(t, NewHandler(srv), route, body); code != tc.want {
				t.Errorf("%s %s: status %d, want %d", route, tc.name, code, tc.want)
			}
			if tc.want == 400 && (srv.EG.Len() != 0 || srv.UpdateCount() != 0) {
				t.Errorf("%s %s: refused request reached the server (EG %d vertices)", route, tc.name, srv.EG.Len())
			}
			if got := wellFormed(tc.nodes); got != (tc.want == 200) {
				t.Errorf("%s: test's own rule says well-formed=%v", tc.name, got)
			}
		}
	}
}

// oldShapeUpdate is the gob encoding of an UpdateRequest written when it
// still carried the client's eight-field run summary (a Run pointer, every
// field set, wall time 1.5s) instead of WallTime: a source "s" and its
// child "a". It is what a client of that version sends on /v1/update.
const oldShapeUpdate = "Ln8DAQENVXBkYXRlUmVxdWVzdAH/gAABAgEFTm9kZXMB/4gAAQNSdW4B/4oAAAAg/4cCAQERW11yZW1vdGUuV2lyZU5vZGUB/4gAAf+CAAD+AQf/gQMBAQhXaXJlTm9kZQH/ggABEgECSUQBDAABBEtpbmQBBgABBE5hbWUBDAABBk9wSGFzaAEMAAEIRXh0ZXJuYWwBAgABDVdhcm1zdGFydEtpbmQBDAABB1BhcmVudHMB/4QAAQhDb21wdXRlZAECAAELQ29tcHV0ZVRpbWUBBAABCVNpemVCeXRlcwEEAAEHUXVhbGl0eQEIAAEHQ29sdW1ucwH/hAABCENvbFNpemVzAf+GAAELVHJhaW5lZEtpbmQBDAABDExvYWRlZEZyb21FRwECAAEJRmV0Y2hUaW1lAQQAAQlGZXRjaFRpZXIBDAABDVByZWRpY3RlZExvYWQBBAAAABb/gwIBAQhbXXN0cmluZwH/hAABDAAAFf+FAgEBB1tdaW50NjQB/4YAAQQAAP+D/4kDAQEJQ2xpZW50UnVuAf+KAAEIAQhXYWxsVGltZQEEAAEHUnVuVGltZQEEAAELQ29tcHV0ZVRpbWUBBAABCExvYWRUaW1lAQQAAQlGZXRjaFRpbWUBBAABCEV4ZWN1dGVkAQQAAQZSZXVzZWQBBAABC1dhcm1zdGFydGVkAQQAAABO/4ABAgEBcwIBcwUBAv/IAAEBYQIBYQECaGEDAQFzAvx3NZQAARQAAQH8stBeAAH8jw0YAAH8dzWUAAH8F9eEAAH8EeGjAAECAQQBBgAA"

// TestUpdateOfTheOldShapeStillMerges: gob drops the run summary the new
// UpdateRequest lacks, so an update from a client that predates WallTime
// decodes with a wall time of 0 and merges whole.
func TestUpdateOfTheOldShapeStillMerges(t *testing.T) {
	raw, err := base64.StdEncoding.DecodeString(oldShapeUpdate)
	if err != nil {
		t.Fatal(err)
	}
	var req UpdateRequest
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&req); err != nil {
		t.Fatal(err)
	}
	if len(req.Nodes) != 2 || req.Nodes[1].ComputeTime != time.Second || req.WallTime != 0 {
		t.Fatalf("decoded %d nodes %+v, wall time %v: want s and a, wall time 0", len(req.Nodes), req.Nodes, req.WallTime)
	}
	srv := core.NewServer(store.New(cost.Memory()))
	rec := httptest.NewRecorder()
	NewHandler(srv).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(raw)))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/update of the old shape: status %d: %s", rec.Code, rec.Body)
	}
	if srv.EG.Len() != 2 || srv.EG.Vertex("a") == nil {
		t.Fatalf("EG holds %d vertices after the update, want s and a", srv.EG.Len())
	}
	if err := egtest.Check(srv.EG); err != nil {
		t.Fatal(err)
	}
}

// nodesFromBytes reads a node list off raw fuzz input, four bytes a node:
// ID, parent count (0–2) and two parent IDs, all from a 16-name alphabet so
// that repeats, forward references and self loops are common.
func nodesFromBytes(b []byte) []WireNode {
	name := func(c byte) string { return string(rune('a' + c%16)) }
	var nodes []WireNode
	for ; len(b) >= 4; b = b[4:] {
		wn := WireNode{ID: name(b[0]), Kind: graph.DatasetKind, ComputeTime: time.Duration(b[1]) * time.Millisecond}
		for _, p := range b[2 : 2+b[1]%3] {
			wn.Parents = append(wn.Parents, name(p))
		}
		if len(wn.Parents) > 0 {
			wn.OpHash = "h" + wn.ID
		}
		nodes = append(nodes, wn)
	}
	return nodes
}

// FuzzFromWire feeds FromWire node lists — a gob-encoded UpdateRequest when
// the input decodes as one, a list read off the raw bytes otherwise. It must
// accept exactly the well-formed lists, and what it accepts must merge into
// an Experiment Graph whole (every node finds its parents) and leave the
// graph's maintained state equal to the from-scratch derivation.
func FuzzFromWire(f *testing.F) {
	for _, nodes := range [][]WireNode{
		ToWire(buildPipeline(testFrame(10, 1))),
		{{ID: "s"}, {ID: "b", Parents: []string{"a"}}, {ID: "a", Parents: []string{"s"}}},
		{{ID: "s"}, {ID: "s"}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&UpdateRequest{Nodes: nodes}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 0, 2, 2, 0, 1}) // a; b ← a; c ← a, b
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0})             // b ← a before a
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})             // a twice
	f.Add([]byte{3, 1, 3, 0})                         // d ← d
	f.Fuzz(func(t *testing.T, body []byte) {
		var req UpdateRequest
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			req.Nodes = nodesFromBytes(body)
		}
		dag, err := FromWire(req.Nodes)
		if want := wellFormed(req.Nodes); (err == nil) != want {
			t.Fatalf("FromWire error %v on a list whose well-formedness is %v", err, want)
		}
		if err != nil {
			return
		}
		g := eg.New()
		if ins := g.Merge(dag); len(ins) != len(req.Nodes) || g.Len() != len(req.Nodes) {
			t.Fatalf("merged %d of %d accepted nodes", len(ins), len(req.Nodes))
		}
		if err := egtest.Check(g); err != nil {
			t.Fatal(err)
		}
	})
}

// slowDerive is ops.Derive made expensive enough that its output is never
// vetoed by the load-cost rule and that recreation costs order the chain.
type slowDerive struct {
	ops.Derive
	sleep time.Duration
}

func (o slowDerive) Run(in []graph.Artifact) (graph.Artifact, error) {
	time.Sleep(o.sleep)
	return o.Derive.Run(in)
}

// TestRemoteUpdatePricesNewFramesWithTheirLineage: the storage-aware
// strategy must see a frame's column lineage in the update that first
// offers its content, on the remote path as on the in-process one. Three
// nested frames (each adds one column to the previous) under a budget of
// twice the largest: any two fit by logical size, the third only once the
// first two are priced as the columns they share. The remote handler used to
// record lineage after the update returned, so the third frame was refused
// on first sight, and a later collaborator, who loads the largest frame
// instead of computing the chain, never has it to upload.
func TestRemoteUpdatePricesNewFramesWithTheirLineage(t *testing.T) {
	frame := testFrame(2000, 7)
	workload := func(withScore bool) (*graph.DAG, []*graph.Node) {
		w := graph.NewDAG()
		cur := w.AddSource("lineage.csv", &graph.DatasetArtifact{Frame: frame})
		var frames []*graph.Node
		for i, out := range []string{"f1", "f2", "f3"} {
			cur = w.Apply(cur, slowDerive{
				Derive: ops.Derive{Out: out, Inputs: []string{"a", "b"}, Fn: ops.Sum},
				sleep:  time.Millisecond << (2 * i),
			})
			frames = append(frames, cur)
		}
		if withScore {
			w.Apply(cur, ops.AggregateCol{Col: "f3", Kind: data.AggMean})
		}
		return w, frames
	}
	column := frame.SizeBytes() / int64(frame.NumCols())
	budget := 2*(frame.SizeBytes()+3*column) + 1024
	run := func(t *testing.T, collaborator func(*core.Server) (*core.Client, func())) []string {
		srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(budget))
		for _, withScore := range []bool{false, true} {
			client, done := collaborator(srv)
			w, _ := workload(withScore)
			if _, err := client.Run(w); err != nil {
				t.Fatal(err)
			}
			done()
		}
		ids := srv.Store.StoredIDs()
		sort.Strings(ids)
		return ids
	}
	inProcess := run(t, func(srv *core.Server) (*core.Client, func()) {
		return core.NewClient(srv), func() {}
	})
	remote := run(t, func(srv *core.Server) (*core.Client, func()) {
		ts := httptest.NewServer(NewHandler(srv))
		rc := NewClient(ts.URL, cost.Memory())
		return core.NewClient(rc), func() {
			if err := rc.Err(); err != nil {
				t.Error(err)
			}
			ts.Close()
		}
	})
	_, frames := workload(false)
	held := make(map[string]bool)
	for _, id := range inProcess {
		held[id] = true
	}
	for _, n := range frames {
		if !held[n.ID] {
			t.Errorf("in-process server does not hold %s: the scenario no longer binds the budget as intended", n.Name)
		}
	}
	if !reflect.DeepEqual(remote, inProcess) {
		t.Errorf("materialized over HTTP %d vertices, in process %d:\n http %v\n proc %v",
			len(remote), len(inProcess), remote, inProcess)
	}
}

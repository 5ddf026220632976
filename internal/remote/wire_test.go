package remote

import (
	"bytes"
	"encoding/gob"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
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

// postMeta encodes a meta-data message and POSTs it at the handler.
func postMeta(t testing.TB, h http.Handler, path string, body message) int {
	t.Helper()
	b, err := body.marshal()
	if err != nil {
		t.Fatal(err)
	}
	return postBody(h, path, b).Code
}

// postBody POSTs raw bytes at the handler.
func postBody(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// metaBody writes nodes as a request body of route, every parent as the
// index of the first node that carries its ID, or the list's length when
// none does. So it writes lists the client's encoder refuses: a parent that
// does not precede its child is an index at or after the child's own.
func metaBody(t testing.TB, route string, nodes []WireNode) []byte {
	t.Helper()
	var parents []int
	for _, wn := range nodes {
		for _, p := range wn.Parents {
			j := slices.IndexFunc(nodes, func(n WireNode) bool { return n.ID == p })
			if j < 0 {
				j = len(nodes)
			}
			parents = append(parents, j)
		}
	}
	update := route == "/v1/update"
	magic := optimizeRequestMagic
	if update {
		magic = updateRequestMagic
	}
	b, err := marshal(magic, func(e *encoder) {
		e.nodes(nodes, parents, update)
		if update {
			e.uvarint(0) // wall time
			e.uvarint(0) // no inline artifact
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
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
// budget and asks the client to upload. On the wire a parent is an index,
// so the codec refuses one that does not precede its child and FromWire a
// repeated ID.
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
			if code := postBody(NewHandler(srv), route, metaBody(t, route, tc.nodes)).Code; code != tc.want {
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

// TestGobBodiesAreRefused: every POST route speaks the codec only, so a
// client of the gob protocol is refused on each — 400, and nothing of its
// request reaches the server — not half understood.
func TestGobBodiesAreRefused(t *testing.T) {
	dag := buildPipeline(testFrame(20, 1))
	dag.MarkComputed()
	frame := testFrame(20, 1)
	for route, body := range map[string]any{
		"/v1/optimize": &OptimizeRequest{Nodes: ToWire(dag)},
		"/v1/update":   &UpdateRequest{Nodes: ToWire(dag), WallTime: time.Second},
		"/v1/artifact": &artifactUpload{ID: "v", ColIDs: frame.ColumnIDs(), Names: frame.ColumnNames(), Columns: frame.Columns()},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
		srv := core.NewServer(store.New(cost.Memory()))
		rec := postBody(NewHandler(srv), route, buf.Bytes())
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s with a gob body: status %d, want 400", route, rec.Code)
		}
		if srv.EG.Len() != 0 || srv.Store.Len() != 0 || srv.OptimizeCount() != 0 || srv.UpdateCount() != 0 {
			t.Errorf("%s: the refused gob body reached the server", route)
		}
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

// FuzzFromWire feeds FromWire node lists — the nodes of an update body when
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
		f.Add(metaBody(f, "/v1/update", nodes))
	}
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 0, 2, 2, 0, 1}) // a; b ← a; c ← a, b
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0})             // b ← a before a
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})             // a twice
	f.Add([]byte{3, 1, 3, 0})                         // d ← d
	f.Fuzz(func(t *testing.T, body []byte) {
		var req UpdateRequest
		if err := req.unmarshal(body); err != nil {
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

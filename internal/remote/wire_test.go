package remote

import (
	"bytes"
	"encoding/gob"
	"maps"
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
	"repro/internal/rec"
	"repro/internal/store"
	"repro/internal/workloads/openml"
)

// postMeta encodes a meta-data message and POSTs it at the handler.
func postMeta(t testing.TB, h http.Handler, path string, body marshaler) int {
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

// dagOf adopts nodes, in order, into a DAG.
func dagOf(nodes ...*graph.Node) *graph.DAG {
	dag := graph.NewDAG()
	for _, n := range nodes {
		dag.Adopt(n)
	}
	return dag
}

// serverDAG is the DAG a server decodes of an update carrying all of dag,
// every vertex with its parents: the form of an update to a server that
// holds none of its frontier.
func serverDAG(t testing.TB, dag *graph.DAG) *graph.DAG {
	t.Helper()
	body, err := (&UpdateRequest{DAG: dag, Unknown: dag.IDs()}).marshal()
	if err != nil {
		t.Fatal(err)
	}
	var req UpdateRequest
	if err := req.unmarshal(body); err != nil {
		t.Fatal(err)
	}
	return req.DAG
}

// metaBody writes a node list — not a DAG: its IDs may repeat and its
// parents follow their children — as a request body of route, with every
// field its nodes set, column lineage too on an update, and every parent as
// the index of the first node that carries its ID, or the list's length
// when none does. So it writes lists the client's encoder cannot: a parent
// that does not precede its child is an index at or after the child's own.
func metaBody(t testing.TB, route string, nodes []*graph.Node) []byte {
	t.Helper()
	l := nodeList{nodes: nodes, frontier: make([]bool, len(nodes)), at: make(map[string]int), hashes: make([]string, len(nodes))}
	for i, n := range nodes {
		if _, ok := l.at[n.ID]; !ok {
			l.at[n.ID] = i
		}
		if n.Op != nil {
			l.hashes[i] = n.Op.Hash()
		}
	}
	for _, n := range nodes {
		for _, p := range n.Parents {
			if _, ok := l.at[p.ID]; !ok {
				l.at[p.ID] = len(nodes)
			}
		}
	}
	magic := optimizeRequestMagic
	if route == "/v1/update" {
		magic = updateRequestMagic
		if err := l.tabulate(); err != nil {
			t.Fatal(err)
		}
	}
	b, err := marshal(magic, func(e *rec.Writer) {
		l.write(e, magic == updateRequestMagic)
		if magic == updateRequestMagic {
			e.Uvarint(0) // wall time
			e.Uvarint(0) // no inline artifact
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// wellFormed is the rule the decoder enforces, stated independently: IDs
// are unique, every parent precedes its child, every kind is one of the
// four, every column lineage ID has its size and every frontier node is
// Computed and lists no parents.
func wellFormed(nodes []*graph.Node) bool {
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if seen[n.ID] || n.Kind > graph.SupernodeKind || len(n.Columns) != len(n.ColSizes) {
			return false
		}
		if n.Frontier && (len(n.Parents) > 0 || !n.Computed) {
			return false
		}
		for _, p := range n.Parents {
			if !seen[p.ID] {
				return false
			}
		}
		seen[n.ID] = true
	}
	return true
}

// TestMetaRequestsRejectNodeListsThatAreNotDAGs: a collaborative server
// takes DAGs from strangers. A node list that is not a DAG in topological
// order, or holds a node the graph cannot take whole, is a 400 on both
// meta-data routes and leaves the Experiment Graph as it was — before, the
// offending edge was dropped, and an operation's output entered the graph
// as a "source" the updater stores outside the budget and asks the client
// to upload; a vertex of kind 9 was merged for good. The decoder refuses them
// all. (A node with two column IDs and one size, which once merged without
// its lineage, can no longer be said: an update names each column's size
// once, in its column table, and the encoder refuses such a node —
// TestCodecRefusesWhatItCannotCarry.)
func TestMetaRequestsRejectNodeListsThatAreNotDAGs(t *testing.T) {
	src := &graph.Node{ID: "s", Kind: graph.DatasetKind, Name: "s"}
	a := &graph.Node{ID: "a", Kind: graph.DatasetKind, Name: "a", Op: wireOp{hash: "ha"}, Parents: []*graph.Node{src}, ComputeTime: time.Second, SizeBytes: 10}
	b := &graph.Node{ID: "b", Kind: graph.DatasetKind, Name: "b", Op: wireOp{hash: "hb"}, Parents: []*graph.Node{a}, ComputeTime: time.Second, SizeBytes: 10}
	self := &graph.Node{ID: "x", Kind: graph.DatasetKind, Op: wireOp{hash: "hx"}}
	self.Parents = []*graph.Node{self}
	ghost := &graph.Node{ID: "ghost"}
	cases := []struct {
		name  string
		nodes []*graph.Node
		want  int
	}{
		{"parent after child", []*graph.Node{src, b, a}, 400},
		{"parent never sent", []*graph.Node{src, b}, 400},
		{"parent listed twice, once unknown", []*graph.Node{src, {ID: "c", Op: wireOp{hash: "hc"}, Parents: []*graph.Node{src, ghost}}}, 400},
		{"own parent", []*graph.Node{src, self}, 400},
		{"repeated ID", []*graph.Node{src, a, a}, 400},
		{"repeated source", []*graph.Node{src, src}, 400},
		{"kind outside the four", []*graph.Node{src, {ID: "k", Kind: 9, Op: wireOp{hash: "hk"}, Parents: []*graph.Node{src}}}, 400},
		{"frontier node that lists parents", []*graph.Node{src, {ID: "f", Parents: []*graph.Node{src}, Computed: true, Frontier: true}}, 400},
		{"frontier node that is not computed", []*graph.Node{{ID: "f", Frontier: true}}, 400},
		{"empty", nil, 200},
		{"topological", []*graph.Node{src, a, b}, 200},
	}
	for _, route := range []string{"/v1/optimize", "/v1/update"} {
		for _, tc := range cases {
			srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
			if code := postBody(NewHandler(srv), route, metaBody(t, route, tc.nodes)).Code; code != tc.want {
				t.Errorf("%s %s: status %d, want %d", route, tc.name, code, tc.want)
			}
			if tc.want == 400 && (srv.EG.Len() != 0 || srv.Stats().UpdateCount != 0) {
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
	// The gob protocol's meta-data requests carried a list of nodes.
	type gobNode struct {
		ID, Name string
		Parents  []string
	}
	var nodes []gobNode
	for _, n := range dag.TopoOrder() {
		gn := gobNode{ID: n.ID, Name: n.Name}
		for _, p := range n.Parents {
			gn.Parents = append(gn.Parents, p.ID)
		}
		nodes = append(nodes, gn)
	}
	frame := testFrame(20, 1)
	for route, body := range map[string]any{
		"/v1/optimize": struct{ Nodes []gobNode }{nodes},
		"/v1/update": struct {
			Nodes    []gobNode
			WallTime time.Duration
		}{nodes, time.Second},
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
		if srv.EG.Len() != 0 || srv.Store.Len() != 0 || srv.Stats().OptimizeCount != 0 || srv.Stats().UpdateCount != 0 {
			t.Errorf("%s: the refused gob body reached the server", route)
		}
	}
}

// nodesFromBytes reads a node list off raw fuzz input, four bytes a node:
// ID, parent count (0–2) with the frontier and Computed flags in its top
// two bits, and two parent IDs, all from a 16-name alphabet so that
// repeats, forward references and self loops are common.
func nodesFromBytes(b []byte) []*graph.Node {
	name := func(c byte) string { return string(rune('a' + c%16)) }
	var nodes []*graph.Node
	for ; len(b) >= 4; b = b[4:] {
		n := &graph.Node{ID: name(b[0]), Kind: graph.DatasetKind, ComputeTime: time.Duration(b[1]) * time.Millisecond,
			Frontier: b[1]&0x80 != 0, Computed: b[1]&0x40 != 0}
		for _, p := range b[2 : 2+b[1]%3] {
			n.Parents = append(n.Parents, &graph.Node{ID: name(p)})
		}
		if len(n.Parents) > 0 {
			n.Op = wireOp{hash: "h" + n.ID}
		}
		nodes = append(nodes, n)
	}
	return nodes
}

// FuzzUpdateNodes feeds the update decoder node lists: an update body when
// the input decodes as one, otherwise a list read off the raw bytes — one a
// graph.DAG cannot hold, with repeats, forward parents, self loops and
// frontier nodes that list parents or are not Computed — written as an
// update body. The decoder must accept exactly the well-formed lists. What
// it accepts is refused whole (409, or 400 for an inline section it cannot
// take; nothing merged) by a server that does not hold its frontier, and
// merges whole into a graph that does: every
// node finds its parents, every vertex it names is counted once, and the
// graph's maintained state equals the from-scratch derivation.
func FuzzUpdateNodes(f *testing.F) {
	s, a := &graph.Node{ID: "s"}, &graph.Node{ID: "a"}
	fr := &graph.Node{ID: "f", Computed: true, Frontier: true}
	for _, nodes := range [][]*graph.Node{
		buildPipeline(testFrame(10, 1)).TopoOrder(),
		{s, {ID: "b", Parents: []*graph.Node{a}}, {ID: "a", Parents: []*graph.Node{s}}},
		{s, s},
		{fr, {ID: "x", Parents: []*graph.Node{fr}}, {ID: "y", Parents: []*graph.Node{fr, s}}, s},
		{s, {ID: "f", Parents: []*graph.Node{s}, Computed: true, Frontier: true}},
	} {
		f.Add(metaBody(f, "/v1/update", nodes))
	}
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 0, 2, 2, 0, 1}) // a; b ← a; c ← a, b
	f.Add([]byte{1, 1, 0, 0, 0, 0, 0, 0})             // b ← a before a
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})             // a twice
	f.Add([]byte{3, 1, 3, 0})                         // d ← d
	f.Add([]byte{0, 0xc0, 0, 0, 1, 1, 0, 0})          // frontier a; b ← a
	f.Add([]byte{0, 0x80, 0, 0})                      // frontier a, not computed
	f.Fuzz(func(t *testing.T, body []byte) {
		var req UpdateRequest
		if err := req.unmarshal(body); err != nil {
			nodes := nodesFromBytes(body)
			body = metaBody(t, "/v1/update", nodes)
			err := req.unmarshal(body)
			if want := wellFormed(nodes); (err == nil) != want {
				t.Fatalf("decoder error %v on a list whose well-formedness is %v", err, want)
			}
			if err != nil {
				return
			}
		}
		base := graph.NewDAG() // the frontier's vertices, as a graph that holds them has them
		for _, n := range req.DAG.Nodes() {
			if n.Frontier {
				base.Adopt(&graph.Node{ID: n.ID, Kind: n.Kind})
			}
		}
		if base.Len() > 0 {
			want := http.StatusConflict
			if err := putInline(req.DAG, req.Inline); err != nil {
				want = http.StatusBadRequest // an inline section it cannot take is refused first
			}
			srv := core.NewServer(store.New(cost.Memory()))
			if code := postBody(NewHandler(srv), "/v1/update", body).Code; code != want || srv.EG.Len() != 0 || srv.Stats().UpdateCount != 0 {
				t.Fatalf("an update whose frontier the server does not hold: status %d (want %d), EG %d vertices", code, want, srv.EG.Len())
			}
		}
		g := eg.New()
		g.Merge(base)
		if ins := g.Merge(req.DAG); len(ins) != req.DAG.Len()-base.Len() || g.Len() != req.DAG.Len() {
			t.Fatalf("merged %d of %d accepted nodes beside a frontier of %d", len(ins), req.DAG.Len(), base.Len())
		}
		for _, v := range g.Vertices() {
			if want := 1 + btoi(base.Node(v.ID) != nil); v.Frequency != want {
				t.Fatalf("vertex %s counted %d times, want %d", v.ID, v.Frequency, want)
			}
		}
		if err := egtest.Check(g); err != nil {
			t.Fatal(err)
		}
	})
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
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

// TestMergeRecordsTheSameGraphInProcessAndOverTheWire: an executed DAG merged
// as it stands, with its content, and the same DAG as a server decodes it
// from an update, meta-data only, leave the Experiment Graph the same
// vertices with the same parents, column lineage, column sizes and
// meta-data — whichever way a run arrives. And a sequence of runs over HTTP,
// each sent in its frontier form, leaves the server where an in-process
// server fed the same whole DAGs is (runOverTheWireAndInProcess).
func TestMergeRecordsTheSameGraphInProcessAndOverTheWire(t *testing.T) {
	cfg := openml.Config{Rows: 120, Features: 6, Seed: 31}
	for i, dag := range []*graph.DAG{
		buildPipeline(testFrame(120, 1)),
		openml.SamplePipelines(cfg, 1, false)[0].Build(openml.GenerateDataset(cfg)),
	} {
		if _, err := core.Execute(dag, nil, nil); err != nil {
			t.Fatal(err)
		}
		inProcess, wire := eg.New(), eg.New()
		inProcess.Merge(dag)
		wire.Merge(serverDAG(t, dag))

		if inProcess.Len() != dag.Len() || wire.Len() != dag.Len() {
			t.Fatalf("DAG %d: %d nodes merge into %d vertices in process, %d over the wire",
				i, dag.Len(), inProcess.Len(), wire.Len())
		}
		var models, datasets int
		for _, a := range inProcess.Vertices() {
			b := wire.Vertex(a.ID)
			if b == nil {
				t.Fatalf("DAG %d: vertex %s (%s) is missing over the wire", i, a.ID, a.Name)
			}
			if a.Kind != b.Kind || !slices.Equal(a.Parents, b.Parents) {
				t.Errorf("DAG %d, %s: kind %v parents %v in process, kind %v parents %v over the wire",
					i, a.Name, a.Kind, a.Parents, b.Kind, b.Parents)
			}
			if !slices.Equal(a.Columns, b.Columns) {
				t.Errorf("DAG %d, %s: columns %v in process, %v over the wire", i, a.Name, a.Columns, b.Columns)
			}
			for _, c := range a.Columns {
				if inProcess.ColumnSize(c) != wire.ColumnSize(c) {
					t.Errorf("DAG %d, %s: column %s is %d bytes in process, %d over the wire",
						i, a.Name, c, inProcess.ColumnSize(c), wire.ColumnSize(c))
				}
			}
			if !maps.Equal(a.Meta, b.Meta) {
				t.Errorf("DAG %d, %s: meta-data %v in process, %v over the wire", i, a.Name, a.Meta, b.Meta)
			}
			if a.Kind == graph.ModelKind && a.Meta["model"] != "" {
				models++
			}
			if len(a.Columns) > 0 {
				datasets++
			}
		}
		if models == 0 || datasets == 0 {
			t.Fatalf("DAG %d has %d models with a learner kind and %d datasets with lineage: the comparison is vacuous",
				i, models, datasets)
		}
	}
	t.Run("a run sequence in its frontier form", runOverTheWireAndInProcess)
}

package remote

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/materialize"
	"repro/internal/ops"
	"repro/internal/rec"
	"repro/internal/reuse"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/workloads/kaggle"
	"repro/internal/workloads/openml"
)

// randomString draws the strings a message carries: empty, an ID as graph
// and data mint them, a 32-character string that is not one, or a name.
func randomString(rng *rand.Rand) string {
	const hexDigits, upper = "0123456789abcdef", "0123456789ABCDEF"
	var b strings.Builder
	switch rng.Intn(4) {
	case 0:
		return ""
	case 1, 2:
		digits := hexDigits
		if rng.Intn(2) == 0 {
			digits = upper
		}
		for i := 0; i < 32; i++ {
			b.WriteByte(digits[rng.Intn(16)])
		}
	default:
		for i := rng.Intn(12); i > 0; i-- {
			b.WriteRune(rune(' ' + rng.Intn(200)))
		}
	}
	return b.String()
}

// randomFloat draws +0, -0, a NaN with a random payload or a number.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Float64frombits(0x7ff0000000000001 | rng.Uint64()&0x800fffffffffffff)
	}
	return rng.NormFloat64() * 1e3
}

// randomLength draws 0 or a non-negative size or duration of any magnitude.
func randomLength(rng *rand.Rand) int64 {
	if rng.Intn(2) == 0 {
		return 0
	}
	return rng.Int63() >> rng.Intn(63)
}

func randomStrings(rng *rand.Rand) []string {
	var out []string
	for i := rng.Intn(4); i > 0; i-- {
		out = append(out, randomString(rng))
	}
	return out
}

// randomDAG draws a DAG of meta-data nodes, as a decoder builds them, with
// every field zero or not, independently: a valid kind, an operation or
// none, and as many column sizes as column lineage IDs, one size per ID
// across the DAG. With columns false, the nodes carry no column lineage, as
// an optimize request has them.
func randomDAG(rng *rand.Rand, columns bool) *graph.DAG {
	dag := graph.NewDAG()
	var nodes []*graph.Node
	sizes := map[string]int64{} // a column's size is a property of its lineage ID
	for i := rng.Intn(8); i > 0; i-- {
		n := &graph.Node{
			ID: randomString(rng), Kind: graph.Kind(rng.Intn(4)), Name: randomString(rng),
			Computed: rng.Intn(2) == 0, ComputeTime: time.Duration(randomLength(rng)), SizeBytes: randomLength(rng),
			Quality: randomFloat(rng), ModelKind: randomString(rng), LoadedFromEG: rng.Intn(2) == 0,
			FetchTime: time.Duration(randomLength(rng)), FetchTier: randomString(rng), PredictedLoad: time.Duration(randomLength(rng)),
		}
		op := wireOp{name: n.Name, hash: randomString(rng), kind: n.Kind, external: rng.Intn(2) == 0, warmstartKind: randomString(rng)}
		if op.hash != "" || op.external || op.warmstartKind != "" {
			n.Op = op
		}
		for j := rng.Intn(4); j > 0 && len(nodes) > 0; j-- {
			n.Parents = append(n.Parents, nodes[rng.Intn(len(nodes))])
		}
		for _, id := range randomStrings(rng) {
			if _, ok := sizes[id]; !ok {
				sizes[id] = randomLength(rng)
			}
			n.Columns, n.ColSizes = append(n.Columns, id), append(n.ColSizes, sizes[id])
		}
		if !columns {
			n.Columns, n.ColSizes = nil, nil
		}
		if dag.Node(n.ID) == nil {
			nodes = append(nodes, dag.Adopt(n))
		}
	}
	return dag
}

// frontierForm is d as a server decodes it, stated apart from the encoder:
// walking up from the terminals, a node that is not Computed keeps its
// parents and the walk goes on to them; a Computed one becomes a frontier
// node — its ID, kind and the run's measurements of it, Computed and
// Frontier, nothing else — and nothing above it is kept; a node of unknown
// is kept with its whole ancestry, in full. Without columns, no node keeps
// column lineage. The nodes are copies, in d's TopoOrder, the order they
// travel and decode in.
func frontierForm(d *graph.DAG, columns bool, unknown ...string) *graph.DAG {
	full := make(map[string]bool)
	var up func(n *graph.Node)
	up = func(n *graph.Node) {
		full[n.ID] = true
		for _, p := range n.Parents {
			up(p)
		}
	}
	for _, id := range unknown {
		if n := d.Node(id); n != nil {
			up(n)
		}
	}
	frontier := make(map[string]bool) // the nodes the walk keeps: true for the frontier
	var walk func(n *graph.Node)
	walk = func(n *graph.Node) {
		if _, ok := frontier[n.ID]; ok || full[n.ID] {
			return
		}
		frontier[n.ID] = n.Computed
		if !n.Computed {
			for _, p := range n.Parents {
				walk(p)
			}
		}
	}
	for _, t := range d.Terminals() {
		walk(t)
	}
	out := graph.NewDAG()
	for _, n := range d.TopoOrder() {
		f, kept := frontier[n.ID]
		if !kept && !full[n.ID] {
			continue
		}
		cp := *n
		if f {
			cp = graph.Node{ID: n.ID, Kind: n.Kind, Computed: true, Frontier: true,
				ComputeTime: n.ComputeTime, SizeBytes: n.SizeBytes, Quality: n.Quality, ModelKind: n.ModelKind,
				LoadedFromEG: n.LoadedFromEG, FetchTime: n.FetchTime, FetchTier: n.FetchTier, PredictedLoad: n.PredictedLoad}
		} else {
			cp.Parents = nil
			for _, p := range n.Parents {
				cp.Parents = append(cp.Parents, out.Node(p.ID))
			}
		}
		if !columns {
			cp.Columns, cp.ColSizes = nil, nil
		}
		out.Adopt(&cp)
	}
	return out
}

// floatBits moves every float of a message into a list of its bits, so that
// reflect.DeepEqual compares the rest and the bits are compared exactly: a
// NaN is not equal to itself. The message is changed in place.
func floatBits(m any) (any, []uint64) {
	var bits []uint64
	take := func(f *float64) {
		bits = append(bits, math.Float64bits(*f))
		*f = 0
	}
	nodes := func(dag *graph.DAG) {
		if dag != nil {
			for _, n := range dag.TopoOrder() {
				take(&n.Quality)
			}
		}
	}
	switch m := m.(type) {
	case *OptimizeRequest:
		nodes(m.DAG)
	case *UpdateRequest:
		nodes(m.DAG)
	case *optimizeResponse:
		for i := range m.Warmstarts {
			take(&m.Warmstarts[i].Quality)
		}
		ids := make([]string, 0, len(m.Plan.PredictedLoad))
		for id := range m.Plan.PredictedLoad {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			f := m.Plan.PredictedLoad[id]
			take(&f)
			m.Plan.PredictedLoad[id] = f
		}
	}
	return m, bits
}

// TestMetaMessagesRoundTrip: every message decodes to what was encoded —
// strings of every shape, every field zero and not, floats bit for bit —
// except that a request's DAG decodes to its frontier form, with the
// frontier vertices the update names sent whole, and an optimize request
// leaves its column lineage behind. Each draw builds its messages afresh
// from one seed, as floatBits changes them.
func TestMetaMessagesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		seed := rng.Int63()
		draw := func(columns bool) *graph.DAG { return randomDAG(rand.New(rand.NewSource(seed)), columns) }
		var inline []InlineArtifact
		for j := rng.Intn(3); j > 0; j-- {
			a := InlineArtifact{ID: randomString(rng)}
			if rng.Intn(4) > 0 {
				a.Content = &graph.AggregateArtifact{Value: rng.NormFloat64(), Text: randomString(rng)}
			}
			inline = append(inline, a)
		}
		var have [][]int
		if rng.Intn(2) == 0 {
			for j := rng.Intn(4); j > 0; j-- {
				var held []int
				for k := rng.Intn(3); k > 0; k-- {
					held = append(held, int(randomLength(rng)))
				}
				have = append(have, held)
			}
		}
		var warm []reuse.WarmstartCandidate
		for j := rng.Intn(3); j > 0; j-- {
			warm = append(warm, reuse.WarmstartCandidate{VertexID: randomString(rng), DonorID: randomString(rng), Quality: randomFloat(rng)})
		}
		plan := &reuse.Plan{Reuse: map[string]bool{}}
		predicted := rng.Intn(2) == 0
		for _, id := range randomStrings(rng) {
			plan.Reuse[id] = true
			if predicted {
				if plan.PredictedLoad == nil {
					plan.PredictedLoad = map[string]float64{}
				}
				plan.PredictedLoad[id] = randomFloat(rng)
			}
		}
		wall := time.Duration(randomLength(rng))
		var unknown []string
		for _, n := range draw(true).Nodes() {
			if rng.Intn(4) == 0 {
				unknown = append(unknown, n.ID)
			}
		}
		for _, tc := range []struct {
			in   marshaler
			want any
			out  unmarshaler
		}{
			{&OptimizeRequest{DAG: draw(true)}, &OptimizeRequest{DAG: frontierForm(draw(true), false)}, &OptimizeRequest{}},
			{&UpdateRequest{DAG: draw(true), Unknown: unknown, WallTime: wall, Inline: inline},
				&UpdateRequest{DAG: frontierForm(draw(true), true, unknown...), WallTime: wall, Inline: inline}, &UpdateRequest{}},
			{&optimizeResponse{Optimization: core.Optimization{Plan: plan, Warmstarts: warm, Overhead: time.Duration(randomLength(rng))},
				Unknown: randomStrings(rng)}, nil, &optimizeResponse{}},
			{&UpdateResponse{WantContent: randomStrings(rng), Have: have}, nil, &UpdateResponse{}},
			{&frontierConflict{Unknown: randomStrings(rng)}, nil, &frontierConflict{}},
		} {
			body, err := tc.in.marshal()
			if err != nil {
				t.Fatalf("draw %d: %T: %v", i, tc.in, err)
			}
			if tc.want == nil {
				tc.want = tc.in
			}
			if err := tc.out.unmarshal(body); err != nil {
				t.Fatalf("draw %d: %T: %v", i, tc.in, err)
			}
			got, gotBits := floatBits(tc.out)
			want, wantBits := floatBits(tc.want)
			if !reflect.DeepEqual(got, want) || !slices.Equal(gotBits, wantBits) {
				t.Fatalf("draw %d: %T decoded as\n%+v\nwant\n%+v", i, tc.in, tc.out, tc.want)
			}
		}
	}
}

// TestCodecRefusesWhatItCannotCarry: a negative size or duration cannot be
// written — the encoder returns an error, the body is never sent — nor a
// node whose column IDs and sizes differ in number, nor one column of two
// sizes; and a body that announces more than it holds fails before anything
// is made for it.
func TestCodecRefusesWhatItCannotCarry(t *testing.T) {
	for name, m := range map[string]marshaler{
		"compute time":                &OptimizeRequest{DAG: dagOf(&graph.Node{ID: "a", ComputeTime: -1})},
		"size":                        &UpdateRequest{DAG: dagOf(&graph.Node{ID: "a", SizeBytes: -1})},
		"column size":                 &UpdateRequest{DAG: dagOf(&graph.Node{ID: "a", Columns: []string{"c"}, ColSizes: []int64{-1}})},
		"two column IDs and one size": &UpdateRequest{DAG: dagOf(&graph.Node{ID: "a", Columns: []string{"c1", "c2"}, ColSizes: []int64{8}})},
		"a column of two sizes": &UpdateRequest{DAG: dagOf(&graph.Node{ID: "a", Columns: []string{"c"}, ColSizes: []int64{8}},
			&graph.Node{ID: "b", Columns: []string{"c"}, ColSizes: []int64{9}})},
		"fetch time":     &UpdateRequest{DAG: dagOf(&graph.Node{ID: "a", FetchTime: -1})},
		"predicted load": &UpdateRequest{DAG: dagOf(&graph.Node{ID: "a", PredictedLoad: -1})},
		"wall time":      &UpdateRequest{DAG: graph.NewDAG(), WallTime: -1},
		"overhead":       &optimizeResponse{Optimization: core.Optimization{Plan: &reuse.Plan{}, Overhead: -1}},
		"held index":     &UpdateResponse{WantContent: []string{"v"}, Have: [][]int{{-1}}},
		"parent":         &OptimizeRequest{DAG: dagOf(&graph.Node{ID: "a", Parents: []*graph.Node{{ID: "b"}}})},
	} {
		if _, err := m.marshal(); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
	huge := []byte(optimizeRequestMagic + "\xff\xff\xff\xff\xff\xff\xff\xff\x7f")
	var req OptimizeRequest
	if allocs := testing.AllocsPerRun(10, func() {
		if req.unmarshal(huge) == nil {
			t.Fatal("a list of 2^63 nodes in no bytes decoded")
		}
	}); allocs > 4 {
		t.Errorf("refusing a list of 2^63 nodes allocated %v times", allocs)
	}
}

// bodyLog is a client-side http.RoundTripper that keeps the body of every
// POST by path, and the paths of those whose Content-Length is not the
// number of bytes the body holds.
type bodyLog struct {
	next http.RoundTripper

	mu         sync.Mutex
	bodies     map[string][][]byte
	mislabeled []string
}

func loggedClient(url string) (*Client, *bodyLog) {
	rc := NewClient(url, cost.Memory())
	log := &bodyLog{next: http.DefaultTransport, bodies: make(map[string][][]byte)}
	rc.http.Transport = log
	return rc, log
}

func (l *bodyLog) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost {
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		l.mu.Lock()
		l.bodies[req.URL.Path] = append(l.bodies[req.URL.Path], body)
		if req.ContentLength != int64(len(body)) {
			l.mislabeled = append(l.mislabeled, fmt.Sprintf("%s: Content-Length %d, %d bytes sent", req.URL.Path, req.ContentLength, len(body)))
		}
		l.mu.Unlock()
	}
	return l.next.RoundTrip(req)
}

// TestRequestsCarryTheirLength: the benchmark's byte meter counts request
// bytes from Content-Length, so every optimize, update and upload request of
// a W1–W3 sequence and twenty OpenML pipelines declares exactly the bytes it
// sends.
func TestRequestsCarryTheirLength(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	rc, log := loggedClient(ts.URL)
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})
	runKaggle(t, rc, src, 1, 2, 3)
	cfg := openml.DefaultConfig()
	frame := openml.GenerateDataset(cfg)
	for _, p := range openml.SamplePipelines(cfg, 20, false) {
		mustRun(t, rc, p.Build(frame))
	}
	for _, path := range []string{"/v1/optimize", "/v1/update", "/v1/artifact"} {
		if len(log.bodies[path]) == 0 {
			t.Errorf("no POST %s: the sequence did not exercise the route", path)
		}
	}
	for _, m := range log.mislabeled {
		t.Error(m)
	}
}

// TestUploadBodyIsTheUnsizedEncoding: sizing the upload buffer beforehand
// changes how it is allocated, not one byte of the body. The body of W1's
// content is exactly as long as its buffer and byte for byte the layout
// codec.go documents (uploadLayout), written into a buffer that grows from
// empty; its column table names each (ID, name) pair once.
func TestUploadBodyIsTheUnsizedEncoding(t *testing.T) {
	w1 := kaggle.Workload1(kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42}))
	if _, err := core.Execute(w1, nil, nil); err != nil {
		t.Fatal(err)
	}
	b := uploadBatch{held: make(map[string]bool)}
	for _, n := range w1.Nodes() {
		if n.Content != nil {
			b.add(n.ID, n.Content, nil)
		}
	}
	body, err := (&uploadRequest{Items: b.items}).marshal()
	if err != nil {
		t.Fatal(err)
	}
	blobs, entries := 0, 0
	for _, up := range b.items {
		blobs += btoi(up.Blob != nil)
		entries += len(up.ColIDs)
	}
	if blobs == 0 || blobs == len(b.items) {
		t.Fatalf("%d of %d items are blobs: the body does not exercise both forms", blobs, len(b.items))
	}
	want, pairs := uploadLayout(t, b.items)
	if cap(body) != len(body) || !bytes.Equal(body, want) {
		t.Errorf("the sized upload body of %d items differs from the unsized one (%d bytes in a buffer of %d vs %d)",
			len(b.items), len(body), cap(body), len(want))
	}
	if pairs >= entries {
		t.Errorf("%d manifest entries name %d distinct columns: W1's manifests share none", entries, pairs)
	}
	t.Logf("%d items, %d manifest entries, %d table entries, %d bytes", len(b.items), entries, pairs, len(body))
}

// uploadLayout writes an upload body as codec.go documents its layout,
// stated apart from the encoder, into a buffer that grows from empty: the
// column table of the items' distinct (ID, name) pairs in the order the
// manifests first name them, then each item — a blob, or a dataset's
// manifest as indices into the table and its records: its Columns encoded,
// or the Records a server read, as they are. It returns the body and the
// number of table entries.
func uploadLayout(t testing.TB, items []artifactUpload) ([]byte, int) {
	t.Helper()
	type pair struct{ id, name string }
	at := map[pair]int{}
	var table []pair
	refs := make([][]int, len(items))
	for i, up := range items {
		for j, id := range up.ColIDs {
			p := pair{id, up.Names[j]}
			if _, ok := at[p]; !ok {
				at[p] = len(table)
				table = append(table, p)
			}
			refs[i] = append(refs[i], at[p])
		}
	}
	e := rec.NewWriter([]byte{})
	e.Raw([]byte(uploadRequestMagic))
	e.Uvarint(uint64(len(table)))
	for _, p := range table {
		e.ID(p.id)
		e.ID(p.name)
	}
	e.Uvarint(uint64(len(items)))
	for i, up := range items {
		e.ID(up.ID)
		if up.Blob != nil {
			rec, err := tier.AppendBlob(nil, up.Blob)
			if err != nil {
				t.Fatal(err)
			}
			e.Raw([]byte{blobForm})
			e.Uvarint(uint64(len(rec)))
			e.Raw(rec)
			continue
		}
		e.Raw([]byte{datasetForm})
		e.Uvarint(uint64(len(refs[i])))
		for _, x := range refs[i] {
			e.Uvarint(uint64(x))
		}
		records := make([][]byte, 0, len(up.Columns)+len(up.Records))
		for _, c := range up.Columns {
			rec, err := tier.EncodeColumn(c)
			if err != nil {
				t.Fatal(err)
			}
			records = append(records, rec)
		}
		for _, r := range up.Records {
			records = append(records, r.Bytes())
		}
		e.Uvarint(uint64(len(records)))
		for _, rec := range records {
			e.Uvarint(uint64(len(rec)))
			e.Raw(rec)
		}
	}
	return e.Bytes(), len(table)
}

// TestMetaBodyIsExactlyOneMessage: a meta-data body is read to its end and
// must be one message. Three stray bytes after an update, a second update
// from the same client after the first, or an update whose node count is a
// varint longer than its shortest form, are a 400 that leaves the Experiment
// Graph, the store and the update count as they were; so is an optimize
// request with bytes after it. (The gob handler decoded one value and
// ignored the rest: it answered both updates 200 and merged only the first.)
func TestMetaBodyIsExactlyOneMessage(t *testing.T) {
	update := func(dag *graph.DAG) []byte {
		if _, err := core.Execute(dag, nil, nil); err != nil {
			t.Fatal(err)
		}
		body, err := (&UpdateRequest{DAG: dag, Unknown: dag.IDs(), WallTime: time.Second, Inline: inline(dag)}).marshal()
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	first, second := update(buildPipeline(testFrame(50, 1))), update(namedPipeline("other.csv", testFrame(50, 2)))
	newServer := func() *core.Server {
		return core.NewServer(store.New(cost.Memory()), core.WithStrategy(materialize.NewAll()))
	}
	for name, body := range map[string][]byte{
		"followed by three stray bytes": slices.Concat(first, []byte{1, 2, 3}),
		"followed by a second update":   slices.Concat(first, second),
		// The node count 0 in two bytes: the wire, as every record, takes a
		// varint in its shortest form only.
		"whose node count is an overlong varint": []byte(updateRequestMagic + "\x80\x00\x00\x00"),
	} {
		srv := newServer()
		if rec := postBody(NewHandler(srv), "/v1/update", body); rec.Code != http.StatusBadRequest {
			t.Errorf("update %s: status %d, want 400", name, rec.Code)
		}
		if srv.EG.Len() != 0 || srv.Store.Len() != 0 || srv.Stats().UpdateCount != 0 {
			t.Errorf("update %s changed the server (EG %d, store %d, updates %d)",
				name, srv.EG.Len(), srv.Store.Len(), srv.Stats().UpdateCount)
		}
	}
	srv := newServer()
	if rec := postBody(NewHandler(srv), "/v1/update", first); rec.Code != http.StatusOK || srv.EG.Len() == 0 {
		t.Errorf("the update alone: status %d, EG %d vertices", rec.Code, srv.EG.Len())
	}
	body, err := (&OptimizeRequest{DAG: buildPipeline(testFrame(50, 1))}).marshal()
	if err != nil {
		t.Fatal(err)
	}
	srv = newServer()
	if rec := postBody(NewHandler(srv), "/v1/optimize", slices.Concat(body, []byte{0})); rec.Code != http.StatusBadRequest || srv.Stats().OptimizeCount != 0 {
		t.Errorf("optimize followed by a stray byte: status %d, %d optimizations", rec.Code, srv.Stats().OptimizeCount)
	}
}

// kaggleVariant is a step of the kaggle_variants benchmark workload: feature
// set w cut down to the ancestors of what its training reads, and a GBT
// with its score hung off that.
func kaggleVariant(src *kaggle.Sources, w func(*kaggle.Sources) *graph.DAG) *graph.DAG {
	full := w(src)
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
	model := dag.Apply(input, &ops.Train{
		Spec:  ops.ModelSpec{Kind: "gbt", Params: map[string]float64{"n_trees": 6, "depth": 2, "lr": 0.1}, Seed: 1000},
		Label: "TARGET",
	})
	dag.Combine(ops.Evaluate{Label: "TARGET", Metric: ops.AUC}, model, input)
	return dag
}

// TestMetaDecodeAllocations gates the allocations of a meta-data body in
// both directions: body to the graph.DAG the server plans on (decoding, and
// for an update the handler's index of its inline content), and a client's
// DAG to body (encoding). The bodies are the optimize requests of three
// kaggle_variants steps, one per feature set (28, 26 and 146 nodes, as the
// benchmark sends them), and the whole update of an OpenML pipeline, its
// model and score inline. The ceilings are what the codec allocated while a
// request went through an intermediate copy of every node: 209, 180, 1 013
// and 86 times to decode and rebuild the DAG, 298, 268, 1 564 and 85 times
// to flatten the DAG and encode it. Straight from and to the graph.DAG it
// allocates 150, 125, 717 and 76 times to decode, 254, 204, 1 354 and 59
// times to encode.
func TestMetaDecodeAllocations(t *testing.T) {
	type body struct {
		name           string
		dag            *graph.DAG
		encode         func() ([]byte, error)
		decode         func([]byte) error
		server, client float64 // the ceilings, exclusive
	}
	var bodies []body
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})
	for i, c := range []struct {
		w              func(*kaggle.Sources) *graph.DAG
		server, client float64
	}{{kaggle.Workload1, 209, 298}, {kaggle.Workload2, 180, 268}, {kaggle.Workload3, 1013, 1564}} {
		dag := kaggleVariant(src, c.w)
		dag.MarkComputed()
		bodies = append(bodies, body{
			name:   fmt.Sprintf("W%d variant optimize", i+1),
			dag:    dag,
			encode: (&OptimizeRequest{DAG: dag}).marshal,
			decode: func(b []byte) error { return new(OptimizeRequest).unmarshal(b) },
			server: c.server, client: c.client,
		})
	}

	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	rc, log := loggedClient(ts.URL)
	cfg := openml.DefaultConfig()
	dag := openml.SamplePipelines(cfg, 1, false)[0].Build(openml.GenerateDataset(cfg))
	mustRun(t, rc, dag)
	bodies = append(bodies, body{
		name: "OpenML update",
		dag:  dag,
		encode: func() ([]byte, error) {
			return (&UpdateRequest{DAG: dag, WallTime: time.Second, Inline: inline(dag)}).marshal()
		},
		decode: func(b []byte) error {
			var req UpdateRequest
			if err := req.unmarshal(b); err != nil {
				return err
			}
			return putInline(req.DAG, req.Inline)
		},
		server: 86, client: 85,
	})

	for _, b := range bodies {
		sent, err := b.encode()
		if err != nil {
			t.Fatal(err)
		}
		if b.dag == dag {
			sent = log.bodies["/v1/update"][0] // as the client sent it
		}
		server := testing.AllocsPerRun(20, func() {
			if err := b.decode(sent); err != nil {
				t.Fatal(err)
			}
		})
		client := testing.AllocsPerRun(20, func() {
			if _, err := b.encode(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s, %d nodes in %d bytes: %v allocations to decode, %v to encode", b.name, b.dag.Len(), len(sent), server, client)
		if server >= b.server || client >= b.client {
			t.Errorf("%s: %v allocations to decode (ceiling %v), %v to encode (ceiling %v)", b.name, server, b.server, client, b.client)
		}
	}
}

// FuzzOptimizeDecode throws arbitrary bytes at POST /v1/optimize, which
// hands what it decodes to the planner, the warmstart search and explain
// capture. The server, one per fuzz worker, is primed with a real W1 run and
// an OpenML pipeline whose model donates to its sibling. Whatever arrives,
// the handler answers 200, 400 or 413; the Experiment Graph, the stored IDs
// and the update count never change; and a 200 plans only for what it was
// asked about: every reused vertex and every warmstarted one is a vertex of
// the request, every donor a vertex of the graph, and the unknown list is
// exactly the request's frontier nodes the graph does not hold. The seeds
// carry frontier nodes: the sources of every run, the vertices the first
// collaborator's session holds when it asks about W1 again, and a frontier
// vertex the graph never held.
func FuzzOptimizeDecode(f *testing.F) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30),
		core.WithWarmstart(true), core.WithExplain(true))
	h := NewHandler(srv)
	ts := httptest.NewServer(h)
	rc, log := loggedClient(ts.URL)
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})
	frame := openml.GenerateDataset(openml.DefaultConfig())
	sibling := func(lr float64) *graph.DAG {
		return openml.Pipeline{Scaler: "std", K: 5, Warmstart: true, Spec: ops.ModelSpec{
			Kind: "logreg", Params: map[string]float64{"lr": lr, "max_iter": 100}, Seed: 1,
		}}.Build(frame)
	}
	mustRun(f, rc, kaggle.Workload1(src))
	mustRun(f, rc, sibling(0.1))
	// A second collaborator, whose session holds nothing, asks again.
	other := anotherClient(rc)
	other.http.Transport = log
	for _, dag := range []*graph.DAG{kaggle.Workload1(src), sibling(0.2)} {
		dag.MarkComputed()
		if other.Optimize(dag, nil) == nil {
			f.Fatal(other.Err())
		}
	}
	again := kaggle.Workload1(src)
	again.MarkComputed()
	lost := again.AddSource("never-sent.csv", &graph.DatasetArtifact{Frame: testFrame(5, 1)})
	again.Apply(lost, ops.Derive{Out: "z", Inputs: []string{"a", "b"}, Fn: ops.Sum})
	again.MarkComputed()
	if rc.Optimize(again, nil) == nil {
		f.Fatal(rc.Err())
	}
	ts.Close()
	seeds := log.bodies["/v1/optimize"]
	for _, body := range seeds {
		f.Add(body)
		f.Add(body[:len(body)/2]) // truncated
	}
	f.Add([]byte{})

	vertices, stored, updates := srv.EG.Len(), srv.Store.StoredIDs(), srv.Stats().UpdateCount
	sort.Strings(stored)
	check := func(t testing.TB, body []byte) (reused, warmstarted int) {
		rec := postBody(h, "/v1/optimize", body)
		after := srv.Store.StoredIDs()
		sort.Strings(after)
		if srv.EG.Len() != vertices || !slices.Equal(after, stored) || srv.Stats().UpdateCount != updates {
			t.Fatalf("an optimize request changed the server: EG %d → %d vertices, %d → %d stored, %d → %d updates",
				vertices, srv.EG.Len(), len(stored), len(after), updates, srv.Stats().UpdateCount)
		}
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return 0, 0
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var req OptimizeRequest
		var resp optimizeResponse
		if err := req.unmarshal(body); err != nil {
			t.Fatalf("answered 200 to a body that does not decode: %v", err)
		}
		if err := resp.unmarshal(rec.Body.Bytes()); err != nil {
			t.Fatal(err)
		}
		asked := make(map[string]bool, req.DAG.Len())
		for _, n := range req.DAG.Nodes() {
			asked[n.ID] = true
		}
		for id := range resp.Plan.Reuse {
			if !asked[id] {
				t.Fatalf("plan reuses %q, which the request does not carry", id)
			}
		}
		for _, c := range resp.Warmstarts {
			if !asked[c.VertexID] || !srv.EG.Has(c.DonorID) {
				t.Fatalf("warmstart %+v: vertex asked %v, donor in the graph %v", c, asked[c.VertexID], srv.EG.Has(c.DonorID))
			}
		}
		var unknown []string
		for _, n := range req.DAG.Nodes() {
			if n.Frontier && !srv.EG.Has(n.ID) {
				unknown = append(unknown, n.ID)
			}
		}
		if !slices.Equal(resp.Unknown, unknown) {
			t.Fatalf("answered unknown frontier %v, want %v", resp.Unknown, unknown)
		}
		return len(resp.Plan.Reuse), len(resp.Warmstarts)
	}
	reused, warmstarted, deep, unknown := 0, 0, 0, 0
	for _, body := range seeds {
		r, w := check(f, body)
		reused, warmstarted = reused+r, warmstarted+w
		var req OptimizeRequest
		if err := req.unmarshal(body); err != nil {
			f.Fatal(err)
		}
		for _, n := range req.DAG.Nodes() {
			if v := srv.EG.Vertex(n.ID); n.Frontier && v == nil {
				unknown++
			} else if n.Frontier && len(v.Parents) > 0 {
				deep++
			}
		}
	}
	if reused == 0 || warmstarted == 0 || deep == 0 || unknown == 0 {
		f.Fatalf("the seeds plan %d reuses and %d warmstarts and carry %d frontier vertices below a source and %d unknown ones: they do not reach the planner's answers",
			reused, warmstarted, deep, unknown)
	}
	f.Fuzz(func(t *testing.T, body []byte) { check(t, body) })
}

package remote

import (
	"bytes"
	"encoding/gob"
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
	"repro/internal/explain"
	"repro/internal/graph"
	"repro/internal/materialize"
	"repro/internal/ops"
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

// randomNodes draws a node list in topological order with every field zero
// or not, independently.
func randomNodes(rng *rand.Rand) []WireNode {
	var nodes []WireNode
	for i := rng.Intn(8); i > 0; i-- {
		wn := WireNode{
			ID: randomString(rng), Name: randomString(rng), OpHash: randomString(rng),
			External: rng.Intn(2) == 0, WarmstartKind: randomString(rng), Computed: rng.Intn(2) == 0,
			ComputeTime: time.Duration(randomLength(rng)), SizeBytes: randomLength(rng),
			Quality: randomFloat(rng), Columns: randomStrings(rng), TrainedKind: randomString(rng),
			LoadedFromEG: rng.Intn(2) == 0, FetchTime: time.Duration(randomLength(rng)),
			FetchTier: randomString(rng), PredictedLoad: time.Duration(randomLength(rng)),
		}
		if rng.Intn(2) == 0 {
			wn.Kind = graph.Kind(1 + rng.Intn(255))
		}
		for j := rng.Intn(4); j > 0 && len(nodes) > 0; j-- {
			wn.Parents = append(wn.Parents, nodes[rng.Intn(len(nodes))].ID)
		}
		for j := rng.Intn(4); j > 0; j-- {
			wn.ColSizes = append(wn.ColSizes, randomLength(rng))
		}
		nodes = append(nodes, wn)
	}
	return nodes
}

// floatBits moves every float of a message into a list of its bits, so that
// reflect.DeepEqual compares the rest and the bits are compared exactly: a
// NaN is not equal to itself.
func floatBits(m any) (any, []uint64) {
	var bits []uint64
	take := func(f *float64) {
		bits = append(bits, math.Float64bits(*f))
		*f = 0
	}
	nodes := func(list []WireNode) []WireNode {
		list = slices.Clone(list)
		for i := range list {
			take(&list[i].Quality)
		}
		return list
	}
	switch m := m.(type) {
	case *OptimizeRequest:
		return &OptimizeRequest{Nodes: nodes(m.Nodes)}, bits
	case *UpdateRequest:
		cp := *m
		cp.Nodes = nodes(m.Nodes)
		return &cp, bits
	case *OptimizeResponse:
		cp := *m
		cp.Warmstarts = slices.Clone(m.Warmstarts)
		for i := range cp.Warmstarts {
			take(&cp.Warmstarts[i].Quality)
		}
		cp.PredictedLoadSec = slices.Clone(m.PredictedLoadSec)
		for i := range cp.PredictedLoadSec {
			take(&cp.PredictedLoadSec[i])
		}
		return &cp, bits
	}
	return m, nil
}

// TestMetaMessagesRoundTrip: every message decodes to what was encoded —
// strings of every shape, every field zero and not, floats bit for bit —
// except that an optimize request leaves its column lineage behind.
func TestMetaMessagesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		nodes := randomNodes(rng)
		noColumns := slices.Clone(nodes)
		for j := range noColumns {
			noColumns[j].Columns, noColumns[j].ColSizes = nil, nil
		}
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
		var predicted []float64
		for j := rng.Intn(3); j > 0; j-- {
			predicted = append(predicted, randomFloat(rng))
		}
		for _, tc := range []struct {
			in, want, out message
		}{
			{&OptimizeRequest{Nodes: nodes}, &OptimizeRequest{Nodes: noColumns}, &OptimizeRequest{}},
			{&UpdateRequest{Nodes: nodes, WallTime: time.Duration(randomLength(rng)), Inline: inline}, nil, &UpdateRequest{}},
			{&OptimizeResponse{ReuseIDs: randomStrings(rng), Warmstarts: warm, Overhead: time.Duration(randomLength(rng)),
				PredictedLoadSec: predicted}, nil, &OptimizeResponse{}},
			{&UpdateResponse{WantContent: randomStrings(rng), Have: have}, nil, &UpdateResponse{}},
		} {
			if tc.want == nil {
				tc.want = tc.in
			}
			body, err := tc.in.marshal()
			if err != nil {
				t.Fatalf("draw %d: %T: %v", i, tc.in, err)
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
// written — the encoder returns an error, the body is never sent — and a
// body that announces more than it holds fails before anything is made for
// it.
func TestCodecRefusesWhatItCannotCarry(t *testing.T) {
	for name, m := range map[string]message{
		"compute time":   &OptimizeRequest{Nodes: []WireNode{{ID: "a", ComputeTime: -1}}},
		"size":           &UpdateRequest{Nodes: []WireNode{{ID: "a", SizeBytes: -1}}},
		"column size":    &UpdateRequest{Nodes: []WireNode{{ID: "a", Columns: []string{"c"}, ColSizes: []int64{-1}}}},
		"fetch time":     &UpdateRequest{Nodes: []WireNode{{ID: "a", FetchTime: -1}}},
		"predicted load": &UpdateRequest{Nodes: []WireNode{{ID: "a", PredictedLoad: -1}}},
		"wall time":      &UpdateRequest{WallTime: -1},
		"overhead":       &OptimizeResponse{Overhead: -1},
		"held index":     &UpdateResponse{WantContent: []string{"v"}, Have: [][]int{{-1}}},
		"parent":         &OptimizeRequest{Nodes: []WireNode{{ID: "a", Parents: []string{"b"}}, {ID: "b"}}},
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
// codec.go documents, written here into a buffer that grows from empty.
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
	e := encoder{b: []byte{}}
	e.writeString(uploadRequestMagic)
	e.uvarint(uint64(len(b.items)))
	blobs := 0
	for _, up := range b.items {
		e.str(up.ID)
		if up.Blob != nil {
			blobs++
			var env bytes.Buffer
			if err := gob.NewEncoder(&env).Encode(&artifactEnvelope{Content: up.Blob}); err != nil {
				t.Fatal(err)
			}
			e.write([]byte{blobForm})
			e.uvarint(uint64(env.Len()))
			e.write(env.Bytes())
			continue
		}
		e.write([]byte{datasetForm})
		e.uvarint(uint64(len(up.ColIDs)))
		for i := range up.ColIDs {
			e.str(up.ColIDs[i])
			e.str(up.Names[i])
		}
		e.uvarint(uint64(len(up.Columns)))
		for _, c := range up.Columns {
			rec, err := tier.EncodeColumn(c)
			if err != nil {
				t.Fatal(err)
			}
			e.uvarint(uint64(len(rec)))
			e.write(rec)
		}
	}
	if blobs == 0 || blobs == len(b.items) {
		t.Fatalf("%d of %d items are blobs: the body does not exercise both forms", blobs, len(b.items))
	}
	if cap(body) != len(body) || !bytes.Equal(body, e.b) {
		t.Errorf("the sized upload body of %d items differs from the unsized one (%d bytes in a buffer of %d vs %d)",
			len(b.items), len(body), cap(body), len(e.b))
	}
}

// TestMetaBodyIsExactlyOneMessage: a meta-data body is read to its end and
// must be one message. Three stray bytes after an update, or a second update
// from the same client after the first, are a 400 that leaves the Experiment
// Graph, the store and the update count as they were; so is an optimize
// request with bytes after it. (The gob handler decoded one value and
// ignored the rest: it answered both updates 200 and merged only the first.)
func TestMetaBodyIsExactlyOneMessage(t *testing.T) {
	update := func(dag *graph.DAG) []byte {
		if _, err := core.Execute(dag, nil, nil); err != nil {
			t.Fatal(err)
		}
		body, err := (&UpdateRequest{Nodes: ToWire(dag), WallTime: time.Second, Inline: inline(dag)}).marshal()
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
		"three stray bytes": slices.Concat(first, []byte{1, 2, 3}),
		"a second update":   slices.Concat(first, second),
	} {
		srv := newServer()
		if rec := postBody(NewHandler(srv), "/v1/update", body); rec.Code != http.StatusBadRequest {
			t.Errorf("update followed by %s: status %d, want 400", name, rec.Code)
		}
		if srv.EG.Len() != 0 || srv.Store.Len() != 0 || srv.UpdateCount() != 0 {
			t.Errorf("update followed by %s changed the server (EG %d, store %d, updates %d)",
				name, srv.EG.Len(), srv.Store.Len(), srv.UpdateCount())
		}
	}
	srv := newServer()
	if rec := postBody(NewHandler(srv), "/v1/update", first); rec.Code != http.StatusOK || srv.EG.Len() == 0 {
		t.Errorf("the update alone: status %d, EG %d vertices", rec.Code, srv.EG.Len())
	}
	body, err := (&OptimizeRequest{Nodes: ToWire(buildPipeline(testFrame(50, 1)))}).marshal()
	if err != nil {
		t.Fatal(err)
	}
	srv = newServer()
	if rec := postBody(NewHandler(srv), "/v1/optimize", slices.Concat(body, []byte{0})); rec.Code != http.StatusBadRequest || srv.OptimizeCount() != 0 {
		t.Errorf("optimize followed by a stray byte: status %d, %d optimizations", rec.Code, srv.OptimizeCount())
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

// heldAllocations counts what decoding a node list must allocate: the list,
// each non-empty string but a parent (which is the ID string of an earlier
// node) and each other non-nil slice.
func heldAllocations(nodes []WireNode) int {
	n := 0
	if nodes != nil {
		n++
	}
	for _, wn := range nodes {
		for _, s := range slices.Concat([]string{wn.ID, wn.Name, wn.OpHash, wn.WarmstartKind, wn.TrainedKind, wn.FetchTier}, wn.Columns) {
			if s != "" {
				n++
			}
		}
		for _, held := range []bool{wn.Parents != nil, wn.Columns != nil, wn.ColSizes != nil} {
			if held {
				n++
			}
		}
	}
	return n
}

// TestMetaDecodeAllocations gates the decoder's allocations: decoding a
// recorded body allocates at most the strings and slices the message holds.
// The bodies are the optimize requests of three kaggle_variants steps, one
// per feature set (28, 26 and 146 nodes, 66.7 on average, as the benchmark
// sends them), and the update of an OpenML pipeline up to its inline
// section, which stays gob. Gob decoding of the same messages with a fresh
// decoder per request, as the handler did before this codec, allocated 478,
// 484 and 1 341 times for the three optimize requests (which carried their
// sources' column lineage then) and 370 for the update without its inline
// artifacts; this decoder allocates 110, 93, 563 and 53 times, exactly what
// the messages hold.
func TestMetaDecodeAllocations(t *testing.T) {
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})
	for i, w := range []func(*kaggle.Sources) *graph.DAG{kaggle.Workload1, kaggle.Workload2, kaggle.Workload3} {
		dag := kaggleVariant(src, w)
		dag.MarkComputed()
		body, err := (&OptimizeRequest{Nodes: ToWire(dag)}).marshal()
		if err != nil {
			t.Fatal(err)
		}
		var req OptimizeRequest
		allocs := testing.AllocsPerRun(20, func() {
			if err := req.unmarshal(body); err != nil {
				t.Fatal(err)
			}
		})
		if held := heldAllocations(req.Nodes); allocs > float64(held) {
			t.Errorf("W%d variant: decoding %d nodes in %d bytes allocated %v times, the message holds %d strings and slices",
				i+1, len(req.Nodes), len(body), allocs, held)
		}
	}

	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	rc, log := loggedClient(ts.URL)
	cfg := openml.DefaultConfig()
	mustRun(t, rc, openml.SamplePipelines(cfg, 1, false)[0].Build(openml.GenerateDataset(cfg)))
	body := log.bodies["/v1/update"][0]
	var req UpdateRequest
	var inlineSection []byte
	allocs := testing.AllocsPerRun(20, func() {
		d := decoder{b: body}
		inlineSection = req.readMeta(&d)
		if d.err != nil {
			t.Fatal(d.err)
		}
	})
	held := heldAllocations(req.Nodes) + 1 // and the inline list
	for _, a := range req.Inline {
		if a.ID != "" {
			held++
		}
	}
	if len(inlineSection) == 0 || allocs > float64(held) {
		t.Errorf("OpenML update: decoding %d nodes and %d inline IDs allocated %v times, the message holds %d strings and slices",
			len(req.Nodes), len(req.Inline), allocs, held)
	}
}

// FuzzOptimizeDecode throws arbitrary bytes at POST /v1/optimize, which
// hands what it decodes to the planner, the warmstart search and explain
// capture. The server, one per fuzz worker, is primed with a real W1 run and
// an OpenML pipeline whose model donates to its sibling. Whatever arrives,
// the handler answers 200, 400 or 413; the Experiment Graph, the stored IDs
// and the update count never change; and a 200 plans only for what it was
// asked about: every reused vertex and every warmstarted one is a vertex of
// the request, every donor a vertex of the graph.
func FuzzOptimizeDecode(f *testing.F) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30),
		core.WithWarmstart(true), core.WithExplain(explain.NewRecorder(4)))
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
		if _, err := other.OptimizeE(dag, nil); err != nil {
			f.Fatal(err)
		}
	}
	ts.Close()
	seeds := log.bodies["/v1/optimize"]
	for _, body := range seeds {
		f.Add(body)
		f.Add(body[:len(body)/2]) // truncated
	}
	f.Add([]byte{})

	vertices, stored, updates := srv.EG.Len(), srv.Store.StoredIDs(), srv.UpdateCount()
	sort.Strings(stored)
	check := func(t testing.TB, body []byte) (reused, warmstarted int) {
		rec := postBody(h, "/v1/optimize", body)
		after := srv.Store.StoredIDs()
		sort.Strings(after)
		if srv.EG.Len() != vertices || !slices.Equal(after, stored) || srv.UpdateCount() != updates {
			t.Fatalf("an optimize request changed the server: EG %d → %d vertices, %d → %d stored, %d → %d updates",
				vertices, srv.EG.Len(), len(stored), len(after), updates, srv.UpdateCount())
		}
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			return 0, 0
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var req OptimizeRequest
		var resp OptimizeResponse
		if err := req.unmarshal(body); err != nil {
			t.Fatalf("answered 200 to a body that does not decode: %v", err)
		}
		if err := resp.unmarshal(rec.Body.Bytes()); err != nil {
			t.Fatal(err)
		}
		asked := make(map[string]bool, len(req.Nodes))
		for _, wn := range req.Nodes {
			asked[wn.ID] = true
		}
		for _, id := range resp.ReuseIDs {
			if !asked[id] {
				t.Fatalf("plan reuses %q, which the request does not carry", id)
			}
		}
		for _, c := range resp.Warmstarts {
			if !asked[c.VertexID] || !srv.EG.Has(c.DonorID) {
				t.Fatalf("warmstart %+v: vertex asked %v, donor in the graph %v", c, asked[c.VertexID], srv.EG.Has(c.DonorID))
			}
		}
		return len(resp.ReuseIDs), len(resp.Warmstarts)
	}
	reused, warmstarted := 0, 0
	for _, body := range seeds {
		r, w := check(f, body)
		reused, warmstarted = reused+r, warmstarted+w
	}
	if reused == 0 || warmstarted == 0 {
		f.Fatalf("the seeds plan %d reuses and %d warmstarts: they do not reach the planner's answers", reused, warmstarted)
	}
	f.Fuzz(func(t *testing.T, body []byte) { check(t, body) })
}

package remote

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/materialize"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/rec"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/workloads/kaggle"
)

// uploadMeter is a client-side http.RoundTripper that records what the
// update and upload routes carried: every POST /v1/artifact with its items
// and its answer, the bytes and columns of those bodies, and how many update
// answers asked for content.
type uploadMeter struct {
	next http.RoundTripper

	mu      sync.Mutex
	posts   []uploadPost
	bytes   int64
	columns int
	partial int // dataset items that left at least one column out
	wanting int // update answers that asked for content
}

// uploadPost is one POST /v1/artifact as the meter saw it.
type uploadPost struct {
	items  []artifactUpload
	status int
	absent []string // what a 200 answer listed
}

func (m *uploadMeter) RoundTrip(req *http.Request) (*http.Response, error) {
	upload := req.URL.Path == "/v1/artifact"
	if req.Method != http.MethodPost || !upload && req.URL.Path != "/v1/update" {
		return m.next.RoundTrip(req)
	}
	var items []artifactUpload
	if upload {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		if items, err = uploadItems(body); err != nil {
			return nil, err
		}
	}
	resp, err := m.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(answer))
	m.mu.Lock()
	defer m.mu.Unlock()
	if !upload {
		var ur UpdateResponse
		if resp.StatusCode == http.StatusOK && ur.unmarshal(answer) == nil && len(ur.WantContent) > 0 {
			m.wanting++
		}
		return resp, nil
	}
	post := uploadPost{items: items, status: resp.StatusCode}
	if resp.StatusCode == http.StatusOK {
		var ur uploadResponse
		if err := ur.unmarshal(answer); err != nil {
			return nil, err
		}
		post.absent = ur.Absent
	}
	m.posts = append(m.posts, post)
	m.bytes += req.ContentLength
	for _, up := range items {
		m.columns += len(up.Records)
		if len(up.Records) < len(up.ColIDs) {
			m.partial++
		}
	}
	return resp, nil
}

// ids returns the vertex ID of every item uploaded, in order.
func (m *uploadMeter) ids() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for _, p := range m.posts {
		for _, up := range p.items {
			out = append(out, up.ID)
		}
	}
	return out
}

// uploadItems reads an upload body into its items as the server does, each
// dataset item's columns as their validated records.
func uploadItems(body []byte) ([]artifactUpload, error) {
	var up uploadRecords
	err := up.unmarshal(body)
	return up.Items, err
}

// meteredClient returns a remote client whose updates and uploads go
// through a meter.
func meteredClient(url string) (*Client, *uploadMeter) {
	rc := NewClient(url, cost.Memory())
	m := &uploadMeter{next: http.DefaultTransport}
	rc.http.Transport = m
	return rc, m
}

// sameBits reports whether two artifacts are equal bit for bit; frames are
// compared cell by cell so NaN equals NaN.
func sameBits(a, b graph.Artifact) bool {
	da, oka := a.(*graph.DatasetArtifact)
	db, okb := b.(*graph.DatasetArtifact)
	if !oka || !okb || da.Frame == nil || db.Frame == nil {
		return reflect.DeepEqual(a, b)
	}
	ca, cb := da.Frame.Columns(), db.Frame.Columns()
	if len(ca) != len(cb) {
		return false
	}
	for i := range ca {
		x, y := ca[i], cb[i]
		if x.ID != y.ID || x.Name != y.Name || x.Type != y.Type || x.Len() != y.Len() {
			return false
		}
		for r := 0; r < x.Len(); r++ {
			if x.Type == data.String {
				if x.StringAt(r) != y.StringAt(r) {
					return false
				}
			} else if math.Float64bits(x.Float(r)) != math.Float64bits(y.Float(r)) {
				return false
			}
		}
	}
	return true
}

// envelopeBytes is about what the whole-artifact protocol put on the wire
// for one uploaded dataset: the gob of its frame, which was its column list.
func envelopeBytes(t testing.TB, a graph.Artifact) int64 {
	t.Helper()
	ds, ok := a.(*graph.DatasetArtifact)
	if !ok {
		t.Fatalf("uploaded a %T, not a dataset", a)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ds.Frame.Columns()); err != nil {
		t.Fatal(err)
	}
	return int64(buf.Len())
}

// runKaggle runs the given Table-1 workloads in order through one client
// and returns the executed DAGs.
func runKaggle(t testing.TB, rc *Client, src *kaggle.Sources, ids ...int) []*graph.DAG {
	t.Helper()
	client := core.NewClient(rc)
	all := kaggle.AllWorkloads()
	var dags []*graph.DAG
	for _, id := range ids {
		dag := all[id-1].Build(src)
		if _, err := client.Run(dag); err != nil {
			t.Fatalf("W%d: %v", id, err)
		}
		if err := rc.Err(); err != nil {
			t.Fatalf("W%d transport: %v", id, err)
		}
		dags = append(dags, dag)
	}
	return dags
}

// TestColumnLevelUploadEndToEnd is the protocol's end-to-end contract on the
// Table-1 feature workloads: a cold W1→W2→W3 makes one upload POST per update
// that wants content and uploads a small fraction of what whole-artifact
// uploads carried; everything the server then holds equals the client's
// content bit for bit; and a second collaborator re-running W1 uploads
// nothing.
func TestColumnLevelUploadEndToEnd(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})

	rc, meter := meteredClient(ts.URL)
	dags := runKaggle(t, rc, src, 1, 2, 3)

	if len(meter.posts) != meter.wanting {
		t.Errorf("%d upload POSTs for %d updates that wanted content, want one each", len(meter.posts), meter.wanting)
	}
	seen := make(map[string]bool)
	var wholeBytes int64
	for i, post := range meter.posts {
		if post.status != http.StatusNoContent {
			t.Errorf("upload %d answered %d", i, post.status)
		}
		for _, up := range post.items {
			if seen[up.ID] {
				t.Errorf("vertex %s uploaded twice", up.ID)
			}
			seen[up.ID] = true
			a := peek(t, srv.Store, up.ID)
			if a == nil {
				t.Fatalf("uploaded vertex %s is not stored", up.ID)
			}
			wholeBytes += envelopeBytes(t, a)
		}
	}
	if len(seen) == 0 || meter.partial == 0 {
		t.Fatalf("%d uploads, %d partial: the workloads did not exercise the protocol", len(seen), meter.partial)
	}
	if limit := wholeBytes * 15 / 100; meter.bytes >= limit {
		t.Errorf("uploaded %d bytes, want < 15%% of the %d whole-artifact uploads carried", meter.bytes, wholeBytes)
	}
	t.Logf("%d POSTs, %d artifacts: %d bytes (%.1f%% of %d), %d columns", len(meter.posts), len(seen), meter.bytes,
		100*float64(meter.bytes)/float64(wholeBytes), wholeBytes, meter.columns)

	stored := 0
	for _, dag := range dags {
		for _, n := range dag.Nodes() {
			got := peek(t, srv.Store, n.ID)
			if got == nil || n.Content == nil {
				continue
			}
			stored++
			if !sameBits(got, n.Content) {
				t.Errorf("server content of %s (%s) differs from the client's", n.ID, n.Name)
			}
		}
	}
	if stored < len(seen) {
		t.Errorf("compared %d stored artifacts, uploaded %d", stored, len(seen))
	}

	rc2, meter2 := meteredClient(ts.URL)
	runKaggle(t, rc2, src, 1)
	if len(meter2.posts) != 0 || meter2.bytes != 0 {
		t.Errorf("second client re-running W1 made %d upload POSTs of %d bytes, want none", len(meter2.posts), meter2.bytes)
	}
}

// TestUploadRetriesOnceWhenServerLostAColumn forces the race the protocol
// allows: the update answer says a column is held, and the store loses it
// before the upload arrives. The upload's 200 answer names exactly the items
// that relied on a lost column, the client resends those once with every
// column, and nothing is recorded as an error.
func TestUploadRetriesOnceWhenServerLostAColumn(t *testing.T) {
	// Materialize everything, so the derived frames (which share columns
	// with the source) are wanted whatever their measured compute times.
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30),
		core.WithStrategy(materialize.NewAll()))
	h := NewHandler(srv)
	var once sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/artifact" && r.Header.Get(obs.ClientIDHeader) == "second" {
			once.Do(func() {
				for _, id := range srv.Store.StoredIDs() {
					srv.Store.Evict(id)
				}
			})
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	// A first collaborator leaves the pipeline's frames on the server.
	frame := testFrame(200, 1)
	mustRun(t, NewClient(ts.URL, cost.Memory()), buildPipeline(frame))
	// A second one widens the features and reads a new source: the update
	// answers that the wider frame's inherited columns are held, and the
	// store loses them before the upload arrives.
	dag := graph.NewDAG()
	src := dag.AddSource("remote.csv", &graph.DatasetArtifact{Frame: frame})
	feat := dag.Apply(dag.Apply(src, ops.FillNA{}), ops.Derive{Out: "ab", Inputs: []string{"a", "b"}, Fn: ops.Sum})
	dag.Apply(feat, ops.Derive{Out: "ab2", Inputs: []string{"ab", "b"}, Fn: ops.Sum})
	other := data.MustNewFrame(data.NewFloatColumn("z", make([]float64, 200)))
	dag.Apply(dag.AddSource("other.csv", &graph.DatasetArtifact{Frame: other}), ops.FillNA{})
	rc, meter := meteredClient(ts.URL)
	rc.SetName("second")
	mustRun(t, rc, dag)

	if len(meter.posts) != 2 {
		t.Fatalf("%d upload POSTs, want the batch and one resend", len(meter.posts))
	}
	first, resend := meter.posts[0], meter.posts[1]
	// What the store refuses, restated: an item is admitted when each of its
	// manifest columns is in its own body or was admitted before it.
	admitted := make(map[string]bool)
	var want []string
	for _, up := range first.items {
		own := make(map[string]bool)
		for _, r := range up.Records {
			own[r.ID] = true
		}
		lost := false
		for _, id := range up.ColIDs {
			lost = lost || !admitted[id] && !own[id]
		}
		if lost {
			want = append(want, up.ID)
			continue
		}
		for _, id := range up.ColIDs {
			admitted[id] = true
		}
	}
	if len(want) == 0 || len(want) == len(first.items) {
		t.Fatalf("%d of %d items relied on a lost column: the scenario no longer separates them", len(want), len(first.items))
	}
	t.Logf("%d items in the batch, %d relied on a lost column", len(first.items), len(want))
	if first.status != http.StatusOK || !reflect.DeepEqual(first.absent, want) {
		t.Fatalf("upload answered %d listing %v, want 200 listing %v", first.status, first.absent, want)
	}
	var resent []string
	for _, up := range resend.items {
		resent = append(resent, up.ID)
		if len(up.Records) != len(up.ColIDs) {
			t.Errorf("resend of %s carries %d of its %d columns", up.ID, len(up.Records), len(up.ColIDs))
		}
		if got := peek(t, srv.Store, up.ID); got == nil || !sameBits(got, dag.Node(up.ID).Content) {
			t.Errorf("resent vertex %s is not stored as the client holds it", up.ID)
		}
	}
	if resend.status != http.StatusNoContent || !reflect.DeepEqual(resent, want) {
		t.Errorf("resend of %v answered %d, want %v answered 204", resent, resend.status, want)
	}
}

// TestConcurrentCollaboratorsUploadAVertexOnce forces the other race of the
// upload protocol: two collaborators compute the same vertices in concurrent
// runs, and the second one's update arrives while the first one's upload of
// the datasets is still on its way. The server asks the first and passes the
// second over (core.Server's askOnceLocked), so every wanted vertex travels
// once — which client's bytes they are may depend on timing, how many bytes
// must not. The models ride in the first update and are stored by it.
func TestConcurrentCollaboratorsUploadAVertexOnce(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30),
		core.WithStrategy(materialize.NewAll()))
	h := NewHandler(srv)
	firstHeld := make(chan struct{}) // closed when the first client's upload has arrived
	secondDone := make(chan struct{})
	var once sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/artifact" && r.Header.Get(obs.ClientIDHeader) == "first" {
			once.Do(func() { close(firstHeld) })
			<-secondDone
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	run := func(name string) (*Client, *uploadMeter, *graph.DAG, error) {
		rc, meter := meteredClient(ts.URL)
		rc.SetName(name)
		dag := buildPipeline(testFrame(200, 1))
		_, err := core.NewClient(rc).Run(dag)
		return rc, meter, dag, err
	}
	type outcome struct {
		rc    *Client
		meter *uploadMeter
		dag   *graph.DAG
		err   error
	}
	first := make(chan outcome, 1)
	go func() {
		rc, meter, dag, err := run("first")
		first <- outcome{rc, meter, dag, err}
	}()
	<-firstHeld
	rc2, meter2, _, err := run("second")
	close(secondDone)
	one := <-first
	for _, e := range []error{err, rc2.Err(), one.err, one.rc.Err()} {
		if e != nil {
			t.Fatal(e)
		}
	}

	if ids := meter2.ids(); len(ids) != 0 {
		t.Errorf("the second collaborator uploaded %v while the first one's upload of the same vertices was under way", ids)
	}
	ids := one.meter.ids()
	if len(ids) == 0 {
		t.Fatal("the first collaborator uploaded nothing: the run did not exercise the protocol")
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if seen[id] {
			t.Errorf("vertex %s uploaded twice", id)
		}
		seen[id] = true
		if _, ok := one.dag.Node(id).Content.(*graph.DatasetArtifact); !ok {
			t.Errorf("vertex %s was uploaded, not sent with the update", id)
		}
		if got := peek(t, srv.Store, id); got == nil || !sameBits(got, one.dag.Node(id).Content) {
			t.Errorf("uploaded vertex %s is not stored as the clients hold it", id)
		}
	}
	for _, n := range one.dag.Nodes() {
		if n.Content == nil {
			continue
		}
		if got := peek(t, srv.Store, n.ID); got == nil || !sameBits(got, n.Content) {
			t.Errorf("vertex %s (%s) is not stored as the clients hold it", n.ID, n.Name)
		}
	}
}

// TestAskedAndNeverUploadedIsAskedAgain: being passed over is for one update.
// A caller that was asked for a vertex and never sent it costs the next
// holder one update's delay; the one after that is asked.
func TestAskedAndNeverUploadedIsAskedAgain(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30),
		core.WithStrategy(materialize.NewAll()))
	dag := buildPipeline(testFrame(200, 1))
	if _, err := core.Execute(dag, nil, nil); err != nil {
		t.Fatal(err)
	}
	update := func() []string {
		want, err := srv.Update(serverDAG(t, dag), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	asked := update()
	if len(asked) == 0 {
		t.Fatal("first update asked for nothing")
	}
	if over := update(); len(over) != 0 {
		t.Errorf("second update was asked for %v, want nothing: the first caller's uploads are under way", over)
	}
	if again := update(); !reflect.DeepEqual(again, asked) {
		t.Errorf("third update was asked for %v, want %v again", again, asked)
	}
	// What arrives is no longer anybody's to send.
	src := dag.Nodes()[0]
	if err := srv.PutArtifact(src.ID, src.Content, nil); err != nil {
		t.Fatal(err)
	}
	for _, id := range update() {
		if id == src.ID {
			t.Errorf("update asked for %s, which the store holds", id)
		}
	}
}

// TestHaveIndexOutOfRangeIsIgnored: a server answering nonsense indices
// costs bytes, never correctness.
func TestHaveIndexOutOfRangeIsIgnored(t *testing.T) {
	srv, rc, closeFn := newRemotePair(t)
	defer closeFn()
	knownTo(t, srv, "v")
	frame := testFrame(10, 3)
	b := uploadBatch{held: make(map[string]bool)}
	b.add("v", &graph.DatasetArtifact{Frame: frame}, []int{-1, 3, 1 << 20})
	if absent, err := rc.upload(b.items, nil); err != nil || len(absent) > 0 {
		t.Fatalf("upload: absent %v, %v", absent, err)
	}
	got := peek(t, srv.Store, "v")
	if got == nil || !sameBits(got, &graph.DatasetArtifact{Frame: frame}) {
		t.Fatal("frame not stored whole")
	}
	if len(b.held) != frame.NumCols() {
		t.Errorf("held = %v, want the frame's %d columns", b.held, frame.NumCols())
	}
}

// knownTo merges source vertices of the given IDs into the server's
// Experiment Graph: the server keeps uploaded content only for vertices its
// graph keeps.
func knownTo(t testing.TB, srv *core.Server, ids ...string) {
	t.Helper()
	dag := graph.NewDAG()
	for _, id := range ids {
		dag.Adopt(&graph.Node{ID: id, Kind: graph.DatasetKind})
	}
	srv.EG.Merge(dag)
}

// uploadBody encodes items as one upload body.
func uploadBody(t testing.TB, items ...artifactUpload) []byte {
	t.Helper()
	body, err := (&uploadRequest{Items: items}).marshal()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postUploads encodes items as one upload body and POSTs it straight at the
// handler.
func postUploads(t testing.TB, h http.Handler, items ...artifactUpload) *httptest.ResponseRecorder {
	t.Helper()
	return postBody(h, "/v1/artifact", uploadBody(t, items...))
}

// TestUploadRejectsInconsistentBodies: a malformed item is answered 400 and
// never reaches the store; an item whose columns a full resend would supply
// is listed in a 200 answer. A body that is not one whole message — bytes
// after it, a column record whose checksum fails, a form it does not know —
// changes nothing, and neither does one whose second item has the wrong
// shape; one whose second item the store finds malformed keeps the first.
// The encoder writes no item it cannot carry: a blob beside a manifest, a
// manifest whose names and IDs differ in number, a dataset with columns as a
// blob (a blob record has no form for one).
func TestUploadRejectsInconsistentBodies(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	knownTo(t, srv, "base", "v", "m1", "m2", "m3")
	h := NewHandler(srv)
	frame := testFrame(10, 3)
	cols := frame.Columns()
	if rec := postUploads(t, h, artifactUpload{
		ID: "base", ColIDs: frame.ColumnIDs()[:1], Names: frame.ColumnNames()[:1], Columns: cols[:1],
	}); rec.Code != http.StatusNoContent {
		t.Fatalf("seeding upload answered %d", rec.Code)
	}
	unchanged := func() bool {
		return !srv.Store.Has("v") && srv.Store.Len() == 1 && srv.Store.PhysicalBytes() == cols[0].SizeBytes()
	}
	ints := data.NewIntColumn("a", make([]int64, 10)).WithID(cols[0].ID)
	short := data.NewFloatColumn("short", make([]float64, 9))
	model := &graph.AggregateArtifact{Value: 1}
	outside := artifactUpload{ID: "v", ColIDs: []string{cols[0].ID}, Names: []string{"a"}, Columns: cols[1:2]}
	full := uploadBody(t, artifactUpload{ID: "v", ColIDs: frame.ColumnIDs(), Names: frame.ColumnNames(), Columns: cols})
	flipped := slices.Clone(full)
	flipped[len(flipped)-10] ^= 1 // inside the last column record
	firstFlipped := slices.Clone(full)
	firstFlipped[bytes.Index(full, []byte("CTC2"))+8] ^= 1 // inside the first column record
	unknownForm, err := marshal(uploadRequestMagic, func(e *rec.Writer) {
		e.Uvarint(1)
		e.ID("v")
		e.Raw([]byte{'X', 0})
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		body []byte
		want int
		once string // what the answer says exactly once, if anything
	}{
		{"neither blob nor manifest", uploadBody(t, artifactUpload{ID: "v"}), 400, ""},
		{"columns without manifest", uploadBody(t, artifactUpload{ID: "v", Columns: cols[:1]}), 400, ""},
		{"unknown form", unknownForm, 400, ""},
		{"a byte after the body", append(slices.Clone(full), 0), 400, ""},
		{"bad column checksum", flipped, 400, ""},
		{"a byte of a column flipped", firstFlipped, 400, "corrupt record"},
		{"no item", uploadBody(t), 400, ""},
		{"body column not in manifest", uploadBody(t, outside), 400, ""},
		{"column sent twice", uploadBody(t, artifactUpload{ID: "v", ColIDs: frame.ColumnIDs(), Names: frame.ColumnNames(), Columns: append(cols[:3:3], cols[1])}), 400, ""},
		{"dtype differs from held column", uploadBody(t, artifactUpload{ID: "v", ColIDs: []string{cols[0].ID}, Names: []string{"a"}, Columns: []*data.Column{ints}}), 400, ""},
		{"row count differs from held column", uploadBody(t, artifactUpload{ID: "v", ColIDs: []string{cols[0].ID, short.ID}, Names: []string{"a", "short"}, Columns: []*data.Column{short}}), 400, ""},
		{"column neither sent nor held", uploadBody(t, artifactUpload{ID: "v", ColIDs: frame.ColumnIDs(), Names: frame.ColumnNames(), Columns: cols[2:]}), 200, ""},
	}
	for _, tc := range cases {
		rec := postBody(h, "/v1/artifact", tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
		if n := strings.Count(rec.Body.String(), tc.once); tc.once != "" && n != 1 {
			t.Errorf("%s: the answer %q says %q %d times, want once", tc.name, rec.Body, tc.once, n)
		}
		if tc.want == http.StatusOK {
			var resp uploadResponse
			if err := resp.unmarshal(rec.Body.Bytes()); err != nil || !reflect.DeepEqual(resp.Absent, []string{"v"}) {
				t.Errorf("%s: answer lists %v (%v), want [v]", tc.name, resp.Absent, err)
			}
		}
		if !unchanged() {
			t.Fatalf("%s: refused upload changed the store", tc.name)
		}
	}
	for name, up := range map[string]artifactUpload{
		"blob and manifest":      {ID: "v", Blob: model, ColIDs: []string{cols[0].ID}, Names: []string{"a"}},
		"names shorter than ids": {ID: "v", ColIDs: frame.ColumnIDs(), Names: []string{"a"}, Columns: cols},
	} {
		if _, err := (&uploadRequest{Items: []artifactUpload{up}}).marshal(); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}

	// Shapes are checked before anything is admitted.
	if rec := postUploads(t, h, artifactUpload{ID: "m1", Blob: model}, artifactUpload{ID: "v"}); rec.Code != http.StatusBadRequest || srv.Store.Has("m1") || !unchanged() {
		t.Errorf("a body with a shapeless second item: status %d, first item stored %v", rec.Code, srv.Store.Has("m1"))
	}
	// What the store refuses ends the body after the items before it.
	rec := postUploads(t, h, artifactUpload{ID: "m2", Blob: model}, outside)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"v"`) {
		t.Errorf("a body with a malformed second manifest: status %d %q, want 400 naming v", rec.Code, rec.Body)
	}
	if !srv.Store.Has("m2") || srv.Store.Has("v") {
		t.Errorf("after a malformed second manifest: first item stored %v, second %v; want true, false", srv.Store.Has("m2"), srv.Store.Has("v"))
	}
	if rec := postUploads(t, h, artifactUpload{ID: "m3", Blob: model}); rec.Code != http.StatusNoContent {
		t.Errorf("blob upload answered %d", rec.Code)
	}
}

// TestUploadRefusesAVersion1Record: a column record in the version-1 layout
// (CTC1), which only the disk tier's upgrade reads, is answered 400 and
// admits nothing; the same column as its version-2 record is admitted.
func TestUploadRefusesAVersion1Record(t *testing.T) {
	c := data.NewFloatColumn("x", []float64{1.5, -2, 0.25})
	w := rec.Frame("CTC1", 1+2+len(c.ID)+2+len(c.Name)+4+8*c.Len())
	w.U8(byte(data.Float64))
	w.Str16(c.ID)
	w.Str16(c.Name)
	w.U32(uint32(c.Len()))
	w.Floats(c.Floats)
	v1, err := w.Seal()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := tier.EncodeColumn(c)
	if err != nil {
		t.Fatal(err)
	}
	body := func(record []byte) []byte {
		b, err := marshal(uploadRequestMagic, func(e *rec.Writer) {
			e.Uvarint(1)
			e.ID("v")
			writeArtifact(e, &encodedArtifact{form: datasetForm, colIDs: []string{c.ID}, names: []string{c.Name}, records: [][]byte{record}})
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	knownTo(t, srv, "v")
	h := NewHandler(srv)
	if got := postBody(h, "/v1/artifact", body(v1)); got.Code != http.StatusBadRequest || srv.Store.Len() != 0 || srv.Store.HeldColumns([]string{c.ID}) != nil {
		t.Fatalf("a CTC1 record: status %d, %d artifacts stored; want 400 and none", got.Code, srv.Store.Len())
	}
	if got := postBody(h, "/v1/artifact", body(v2)); got.Code != http.StatusNoContent || !sameBits(peek(t, srv.Store, "v"), &graph.DatasetArtifact{Frame: data.MustNewFrame(c)}) {
		t.Fatalf("the CTC2 record of the same column: status %d", got.Code)
	}
}

// TestOversizedBodiesAnswered413 covers the bounded-body helper with a small
// limit (the real limits are tens of megabytes and more) — a body that
// declares more is refused before it is read, one of unknown length once it
// runs past — and the real routes: an optimize body that keeps sending is cut
// off at its bound; the update route, which carries artifacts, reads the same
// body past that bound to its end and finds bytes after the message; and an
// upload that declares more than its bound is refused without a byte of it
// read.
func TestOversizedBodiesAnswered413(t *testing.T) {
	nodes := make([]*graph.Node, 64)
	for i := range nodes {
		nodes[i] = &graph.Node{ID: strconv.Itoa(i)}
	}
	body, err := (&OptimizeRequest{DAG: dagOf(nodes...)}).marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, declared := range []bool{true, false} {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body))
		if !declared {
			req.ContentLength = -1
		}
		var out OptimizeRequest
		if readMessage(rec, req, 32, &out) || rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("body over the limit, length declared %v: status %d, want 413", declared, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body))
	var out OptimizeRequest
	if !readMessage(rec, req, int64(len(body)), &out) || out.DAG.Len() != 64 {
		t.Errorf("body at the limit was refused: status %d", rec.Code)
	}

	_, rc, closeFn := newRemotePair(t)
	defer closeFn()
	for route, magic := range map[string]string{"/v1/optimize": optimizeRequestMagic, "/v1/update": updateRequestMagic} {
		want := http.StatusRequestEntityTooLarge
		if route == "/v1/update" {
			want = http.StatusBadRequest // not too large: its bound is maxArtifactBody
		}
		huge := io.MultiReader(strings.NewReader(magic), io.LimitReader(zeros{}, maxMetaBody+1))
		resp, err := http.Post(rc.base+route, "application/octet-stream", huge)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s with a body past %d bytes: status %d, want %d", route, maxMetaBody, resp.StatusCode, want)
		}
	}

	req = httptest.NewRequest(http.MethodPost, "/v1/artifact", unread{t})
	req.ContentLength = maxArtifactBody + 1
	rec = httptest.NewRecorder()
	NewHandler(core.NewServer(store.New(cost.Memory()))).ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("an upload declaring %d bytes: status %d, want 413", req.ContentLength, rec.Code)
	}
}

// unread is a request body that fails the test if anything reads it.
type unread struct{ t *testing.T }

func (u unread) Read([]byte) (int, error) {
	u.t.Error("the body was read")
	return 0, io.EOF
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// TestClientRecordsServerErrors: a server answering 500 is an error from
// StatsE and Update, not silence, and each error carries the reason the
// server gave. A fetch answered 500 is a nil artifact and no recorded
// error: a run computes what it could not load, so the failure is not the
// client's (TestAPlannedLoadThatMissesIsComputed).
func TestClientRecordsServerErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	rc := NewClient(ts.URL, cost.Memory())
	if a := rc.Fetch("v"); a != nil {
		t.Error("Fetch returned content from a 500")
	}
	if err := rc.Err(); err != nil {
		t.Errorf("a 500 on fetch was recorded as %v, want no error: FetchTiered's nil is the failure", err)
	}
	if _, err := rc.StatsE(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("StatsE returned %v on a 500, want the server's reason", err)
	}
	if _, err := rc.Update(buildPipeline(testFrame(10, 1)), nil, 0); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("Update returned %v on a 500, want the server's reason", err)
	}

	// 404 stays the protocol's "not stored", not an error.
	_, rc2, closeFn := newRemotePair(t)
	defer closeFn()
	if rc2.Fetch("missing") != nil || rc2.Err() != nil {
		t.Error("a 404 on fetch must be a silent miss")
	}
}

// FuzzUploadDecode throws arbitrary bytes at POST /v1/artifact on a server
// that already holds a frame. Whatever arrives, the handler answers 200, 204,
// 400 or 413 — never a panic, never a 5xx. A body refused before admission
// leaves the store as it was; whatever the store holds afterwards is readable
// back, and an answer of 204 means every item the graph keeps is.
func FuzzUploadDecode(f *testing.F) {
	frame := testFrame(10, 3)
	cols := frame.Columns()
	blob := artifactUpload{ID: "m", Blob: &graph.AggregateArtifact{Value: 1}}
	for _, body := range [][]artifactUpload{
		{{ID: "v"}}, // neither blob nor manifest
		{{ID: "v", ColIDs: frame.ColumnIDs(), Names: frame.ColumnNames(), Columns: cols}},     // full upload
		{{ID: "v", ColIDs: frame.ColumnIDs(), Names: frame.ColumnNames(), Columns: cols[1:]}}, // partial, column 0 held
		{{ID: "v", ColIDs: frame.ColumnIDs(), Names: frame.ColumnNames()}},                    // relies on absent columns
		{{ID: "v", ColIDs: frame.ColumnIDs()[:1], Names: []string{"a"}, Columns: cols[1:2]}},  // column outside the manifest
		{blob},
		{blob, {ID: "v", ColIDs: frame.ColumnIDs(), Names: frame.ColumnNames(), Columns: cols[1:]}}, // a batch
	} {
		b := uploadBody(f, body...)
		f.Add(b)
		f.Add(b[:len(b)/2]) // truncated
	}
	for _, model := range learnerModels(f) {
		b := uploadBody(f, artifactUpload{ID: "m", Blob: model})
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
		knownTo(t, srv, "base", "v", "m")
		h := NewHandler(srv)
		if rec := postUploads(t, h, artifactUpload{
			ID: "base", ColIDs: frame.ColumnIDs()[:1], Names: frame.ColumnNames()[:1], Columns: cols[:1],
		}); rec.Code != http.StatusNoContent {
			t.Fatalf("seeding upload answered %d", rec.Code)
		}
		rec := postBody(h, "/v1/artifact", body)
		switch rec.Code {
		case http.StatusOK, http.StatusNoContent, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d", rec.Code)
		}
		var up uploadRecords
		whole := up.unmarshal(body) == nil
		if !whole && (srv.Store.Len() != 1 || srv.Store.PhysicalBytes() != cols[0].SizeBytes()) {
			t.Fatal("a body refused before admission changed the store")
		}
		for _, id := range srv.Store.StoredIDs() {
			if a := peek(t, srv.Store, id); a == nil {
				t.Fatalf("stored %q cannot be read back", id)
			}
		}
		for _, item := range up.Items {
			if rec.Code == http.StatusNoContent && srv.EG.Has(item.ID) && !srv.Store.Has(item.ID) {
				t.Fatalf("answered 204 and %q is not stored", item.ID)
			}
		}
	})
}

// TestAJoinUploadsOnlyItsRightSideColumns: every join of a cold W2 (Kaggle
// scale 1) is a Left join of a table onto per-key aggregates, which keeps
// the table's columns with their lineage IDs (data.Frame.Join). So the
// upload carries each application_train column once, whatever joins it
// flows through, and each join's item adds only its right side's columns.
func TestAJoinUploadsOnlyItsRightSideColumns(t *testing.T) {
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	rc, meter := meteredClient(ts.URL)
	dag := runKaggle(t, rc, src, 2)[0]

	sent := map[string][]string{} // record names, by vertex
	copies := map[string]int{}    // records, by name and values
	for _, p := range meter.posts {
		for _, up := range p.items {
			for _, r := range up.Records {
				sent[up.ID] = append(sent[up.ID], r.Name)
				copies[valuesOf(t, r)]++
			}
		}
	}
	frameOf := func(n *graph.Node) *data.Frame { return n.Content.(*graph.DatasetArtifact).Frame }
	joins, app := 0, 0
	for _, n := range dag.Nodes() {
		switch op := n.Op.(type) {
		case ops.Join:
			joins++
			var want []string
			for _, c := range frameOf(n.Parents[0].Parents[1]).Columns() { // through the supernode
				if c.Name != op.Key {
					want = append(want, c.Name)
				}
			}
			if !slices.Equal(sent[n.ID], want) {
				t.Errorf("the join on %s sent %v, want only its right side's %v", op.Key, sent[n.ID], want)
			}
		case ops.FillNA:
			if n.Parents[0].Name != "application_train" {
				continue
			}
			// application_train's columns as the first join takes them.
			for _, c := range frameOf(n).Columns() {
				r, err := tier.RecordOf(c)
				if err != nil {
					t.Fatal(err)
				}
				if k := copies[valuesOf(t, r)]; k != 1 {
					t.Errorf("application_train column %s travelled %d times", c.Name, k)
				}
				app++
			}
		}
	}
	if joins != 3 || app == 0 {
		t.Fatalf("W2 has %d joins and %d application_train columns, want 3 and some", joins, app)
	}
}

// valuesOf keys a record by its column's name, type and values: the record
// re-encoded without its lineage ID.
func valuesOf(t *testing.T, r tier.Record) string {
	t.Helper()
	c, err := tier.DecodeColumn(r.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	b, err := tier.EncodeColumn(c.WithID(""))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// BenchmarkUploadColdPass is the upload layer's guard under `make bench`: a
// cold W1→W2→W3 pass (Kaggle scale 1) against a fresh in-process server per
// iteration, reporting what the upload route carried.
func BenchmarkUploadColdPass(b *testing.B) {
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})
	var bytesSent, columnsSent int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
		ts := httptest.NewServer(NewHandler(srv))
		rc, meter := meteredClient(ts.URL)
		runKaggle(b, rc, src, 1, 2, 3)
		ts.Close()
		bytesSent += meter.bytes
		columnsSent += int64(meter.columns)
	}
	b.ReportMetric(float64(bytesSent)/float64(b.N), "bytes-sent/op")
	b.ReportMetric(float64(columnsSent)/float64(b.N), "columns-sent/op")
}

package remote

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/materialize"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workloads/kaggle"
)

// uploadMeter is a client-side http.RoundTripper that records what the
// upload route carried: requests, body bytes, columns, and the answers.
type uploadMeter struct {
	next http.RoundTripper

	mu       sync.Mutex
	ids      []string // one entry per POST /v1/artifact, in order
	statuses []int
	bytes    int64
	columns  int
	partial  int // dataset uploads that left at least one column out
}

func (m *uploadMeter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || req.URL.Path != "/v1/artifact" {
		return m.next.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	var up artifactUpload
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&up); err != nil {
		return nil, err
	}
	resp, err := m.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	m.ids = append(m.ids, req.URL.Query().Get("id"))
	m.statuses = append(m.statuses, resp.StatusCode)
	m.bytes += req.ContentLength
	m.columns += len(up.Columns)
	if len(up.Columns) < len(up.ColIDs) {
		m.partial++
	}
	m.mu.Unlock()
	return resp, nil
}

// meteredClient returns a remote client whose uploads go through a meter.
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

// envelopeBytes is what the whole-artifact protocol put on the wire for one
// upload: the gob of the enveloped content.
func envelopeBytes(t testing.TB, a graph.Artifact) int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&artifactEnvelope{Content: a}); err != nil {
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
// Table-1 feature workloads: a cold W1→W2→W3 uploads a small fraction of
// what whole-artifact uploads carried, still one POST per wanted vertex;
// everything the server then holds equals the client's content bit for bit;
// and a second collaborator re-running W1 uploads nothing.
func TestColumnLevelUploadEndToEnd(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})

	rc, meter := meteredClient(ts.URL)
	dags := runKaggle(t, rc, src, 1, 2, 3)

	seen := make(map[string]bool)
	var wholeBytes int64
	for i, id := range meter.ids {
		if meter.statuses[i] != http.StatusNoContent {
			t.Errorf("upload %d of %s answered %d", i, id, meter.statuses[i])
		}
		if seen[id] {
			t.Errorf("vertex %s uploaded twice", id)
		}
		seen[id] = true
		a, _ := srv.PeekArtifact(id)
		if a == nil {
			t.Fatalf("uploaded vertex %s is not stored", id)
		}
		wholeBytes += envelopeBytes(t, a)
	}
	if len(meter.ids) == 0 || meter.partial == 0 {
		t.Fatalf("%d uploads, %d partial: the workloads did not exercise the protocol", len(meter.ids), meter.partial)
	}
	if limit := wholeBytes * 15 / 100; meter.bytes >= limit {
		t.Errorf("uploaded %d bytes, want < 15%% of the %d whole-artifact uploads carried", meter.bytes, wholeBytes)
	}
	t.Logf("%d uploads: %d bytes (%.1f%% of %d), %d columns", len(meter.ids), meter.bytes,
		100*float64(meter.bytes)/float64(wholeBytes), wholeBytes, meter.columns)

	stored := 0
	for _, dag := range dags {
		for _, n := range dag.Nodes() {
			got, _ := srv.PeekArtifact(n.ID)
			if got == nil || n.Content == nil {
				continue
			}
			stored++
			if !sameBits(got, n.Content) {
				t.Errorf("server content of %s (%s) differs from the client's", n.ID, n.Name)
			}
		}
	}
	if stored < len(meter.ids) {
		t.Errorf("compared %d stored artifacts, uploaded %d", stored, len(meter.ids))
	}

	rc2, meter2 := meteredClient(ts.URL)
	runKaggle(t, rc2, src, 1)
	if meter2.columns != 0 || meter2.bytes != 0 {
		t.Errorf("second client re-running W1 uploaded %d columns in %d bytes, want none", meter2.columns, meter2.bytes)
	}
}

// TestUploadRetriesOnceWhenServerLostAColumn forces the race the protocol
// allows: the update response says a column is held, another client's update
// evicts it before the upload arrives. The upload is refused with 409, the
// client resends that vertex with every column, and nothing is recorded as
// an error.
func TestUploadRetriesOnceWhenServerLostAColumn(t *testing.T) {
	// Materialize everything, so the derived frames (which share columns
	// with the source) are wanted whatever their measured compute times.
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30),
		core.WithStrategy(materialize.NewAll()))
	h := NewHandler(srv)
	var once sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && r.URL.Path == "/v1/artifact" {
			body, _ := io.ReadAll(r.Body)
			r.Body = io.NopCloser(bytes.NewReader(body))
			var up artifactUpload
			if gob.NewDecoder(bytes.NewReader(body)).Decode(&up) == nil && len(up.Columns) < len(up.ColIDs) {
				once.Do(func() {
					for _, id := range srv.Store.StoredIDs() {
						srv.Store.Evict(id)
					}
				})
			}
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	rc, meter := meteredClient(ts.URL)
	dag := buildPipeline(testFrame(200, 1))
	if _, err := core.NewClient(rc).Run(dag); err != nil {
		t.Fatal(err)
	}
	if err := rc.Err(); err != nil {
		t.Fatalf("Client.Err() = %v, want nil", err)
	}
	conflicts := 0
	for i, status := range meter.statuses {
		if status != http.StatusConflict {
			continue
		}
		conflicts++
		if i+1 >= len(meter.ids) || meter.ids[i+1] != meter.ids[i] || meter.statuses[i+1] != http.StatusNoContent {
			t.Fatalf("409 on %s was not followed by a successful retry of it", meter.ids[i])
		}
		got, _ := srv.PeekArtifact(meter.ids[i])
		if got == nil || !sameBits(got, dag.Node(meter.ids[i]).Content) {
			t.Errorf("retried vertex %s is not stored as the client holds it", meter.ids[i])
		}
	}
	if conflicts != 1 {
		t.Fatalf("saw %d conflicts, want exactly 1 (statuses %v)", conflicts, meter.statuses)
	}
}

// TestConcurrentCollaboratorsUploadAVertexOnce forces the other race of the
// upload protocol: two collaborators compute the same vertices in concurrent
// runs, and the second one's update arrives while the first one's uploads
// are still on their way. The server asks the first and passes the second
// over (core.Server's askOnceLocked), so every wanted vertex travels once —
// which client's bytes they are may depend on timing, how many bytes must not.
func TestConcurrentCollaboratorsUploadAVertexOnce(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30),
		core.WithStrategy(materialize.NewAll()))
	h := NewHandler(srv)
	firstHeld := make(chan struct{}) // closed when the first client's first upload has arrived
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

	if len(meter2.ids) != 0 {
		t.Errorf("the second collaborator uploaded %v while the first one's uploads of the same vertices were under way", meter2.ids)
	}
	if len(one.meter.ids) == 0 {
		t.Fatal("the first collaborator uploaded nothing: the run did not exercise the protocol")
	}
	seen := make(map[string]bool)
	for _, id := range one.meter.ids {
		if seen[id] {
			t.Errorf("vertex %s uploaded twice", id)
		}
		seen[id] = true
		if got, _ := srv.PeekArtifact(id); got == nil || !sameBits(got, one.dag.Node(id).Content) {
			t.Errorf("uploaded vertex %s is not stored as the clients hold it", id)
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
		meta, err := FromWire(ToWire(dag))
		if err != nil {
			t.Fatal(err)
		}
		return srv.Update(meta, nil, 0)
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
	frame := testFrame(10, 3)
	held := make(map[string]bool)
	err := rc.uploadArtifact("v", &graph.DatasetArtifact{Frame: frame}, []int{-1, 3, 1 << 20}, held, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := srv.PeekArtifact("v")
	if got == nil || !sameBits(got, &graph.DatasetArtifact{Frame: frame}) {
		t.Fatal("frame not stored whole")
	}
	if len(held) != frame.NumCols() {
		t.Errorf("held = %v, want the frame's %d columns", held, frame.NumCols())
	}
}

// postUploadRaw encodes an upload body and POSTs it straight at the handler.
func postUploadRaw(t testing.TB, h http.Handler, id string, up *artifactUpload) int {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(up); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/artifact?id="+id, &buf))
	return rec.Code
}

// TestUploadRejectsInconsistentBodies: malformed uploads are answered 400
// (409 when a full resend would cure them) and never reach the store.
func TestUploadRejectsInconsistentBodies(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	h := NewHandler(srv)
	frame := testFrame(10, 3)
	cols := frame.Columns()
	if code := postUploadRaw(t, h, "base", &artifactUpload{
		ColIDs: frame.ColumnIDs()[:1], Names: frame.ColumnNames()[:1], Columns: cols[:1],
	}); code != http.StatusNoContent {
		t.Fatalf("seeding upload answered %d", code)
	}
	ints := data.NewIntColumn("a", make([]int64, 10)).WithID(cols[0].ID)
	short := data.NewFloatColumn("short", make([]float64, 9))
	blobFrame := artifactEnvelope{Content: &graph.DatasetArtifact{Frame: frame}}
	model := artifactEnvelope{Content: &graph.AggregateArtifact{Value: 1}}
	cases := []struct {
		name string
		up   artifactUpload
		want int
	}{
		{"neither blob nor manifest", artifactUpload{}, 400},
		{"blob and manifest", artifactUpload{Blob: model, ColIDs: []string{cols[0].ID}, Names: []string{"a"}}, 400},
		{"dataset smuggled as blob", artifactUpload{Blob: blobFrame}, 400},
		{"columns without manifest", artifactUpload{Columns: cols[:1]}, 400},
		{"names shorter than ids", artifactUpload{ColIDs: frame.ColumnIDs(), Names: []string{"a"}, Columns: cols}, 400},
		{"body column not in manifest", artifactUpload{ColIDs: []string{cols[0].ID}, Names: []string{"a"}, Columns: cols[1:2]}, 400},
		{"column sent twice", artifactUpload{ColIDs: frame.ColumnIDs(), Names: frame.ColumnNames(), Columns: append(cols[:3:3], cols[1])}, 400},
		{"dtype differs from held column", artifactUpload{ColIDs: []string{cols[0].ID}, Names: []string{"a"}, Columns: []*data.Column{ints}}, 400},
		{"row count differs from held column", artifactUpload{ColIDs: []string{cols[0].ID, short.ID}, Names: []string{"a", "short"}, Columns: []*data.Column{short}}, 400},
		{"column neither sent nor held", artifactUpload{ColIDs: frame.ColumnIDs(), Names: frame.ColumnNames(), Columns: cols[2:]}, 409},
	}
	for _, tc := range cases {
		if code := postUploadRaw(t, h, "v", &tc.up); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
		if srv.Store.Has("v") || srv.Store.Len() != 1 || srv.Store.PhysicalBytes() != cols[0].SizeBytes() {
			t.Fatalf("%s: refused upload changed the store", tc.name)
		}
	}
	if code := postUploadRaw(t, h, "m", &artifactUpload{Blob: model}); code != http.StatusNoContent {
		t.Errorf("blob upload answered %d", code)
	}
}

// TestOversizedBodiesAnswered413 covers the bounded-body helper with a small
// limit (the real limits are tens of megabytes) and one real route.
func TestOversizedBodiesAnswered413(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&OptimizeRequest{Nodes: make([]WireNode, 64)}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(buf.Bytes()))
	var out OptimizeRequest
	if decodeBody(rec, req, 32, &out) || rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("body over the limit: status %d, want 413", rec.Code)
	}
	rec = httptest.NewRecorder()
	req = httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(buf.Bytes()))
	if !decodeBody(rec, req, int64(buf.Len()), &out) || len(out.Nodes) != 64 {
		t.Errorf("body at the limit was refused: status %d", rec.Code)
	}

	// A gob message header that announces more than the route allows, then
	// keeps sending: the handler must stop reading at the limit.
	_, rc, closeFn := newRemotePair(t)
	defer closeFn()
	huge := io.MultiReader(bytes.NewReader([]byte{0xFC, 0x10, 0x00, 0x00, 0x00}), // message length 256 MiB
		io.LimitReader(zeros{}, maxMetaBody+1))
	resp, err := http.Post(rc.base+"/v1/update", "application/octet-stream", huge)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized update: status %d, want 413", resp.StatusCode)
	}
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}

// TestClientRecordsServerErrors: a server answering 500 is a recorded
// failure on the fetch path and an error from StatsE, not silence.
func TestClientRecordsServerErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	rc := NewClient(ts.URL, cost.Memory())
	if a := rc.Fetch("v"); a != nil {
		t.Error("Fetch returned content from a 500")
	}
	if err := rc.Err(); err == nil {
		t.Error("a 500 on fetch was not recorded")
	}
	if _, err := rc.StatsE(); err == nil {
		t.Error("StatsE returned no error on a 500")
	}

	// 404 stays the protocol's "not stored", not an error.
	_, rc2, closeFn := newRemotePair(t)
	defer closeFn()
	if rc2.Fetch("missing") != nil || rc2.Err() != nil {
		t.Error("a 404 on fetch must be a silent miss")
	}
}

// FuzzUploadDecode throws arbitrary bytes at POST /v1/artifact on a server
// that already holds a frame. Whatever arrives, the handler answers 204, 400,
// 409 or 413 — never a panic, never a 5xx — and a refused upload leaves the
// store as it was; an accepted one is readable back.
func FuzzUploadDecode(f *testing.F) {
	frame := testFrame(10, 3)
	cols := frame.Columns()
	for _, up := range []artifactUpload{
		{}, // empty manifest
		{ColIDs: frame.ColumnIDs(), Names: frame.ColumnNames(), Columns: cols},     // full upload
		{ColIDs: frame.ColumnIDs(), Names: frame.ColumnNames(), Columns: cols[1:]}, // partial, column 0 held
		{ColIDs: frame.ColumnIDs(), Names: frame.ColumnNames()},                    // relies on absent columns
		{ColIDs: frame.ColumnIDs()[:1], Names: []string{"a"}, Columns: cols[1:2]},  // column outside the manifest
		{Blob: artifactEnvelope{Content: &graph.AggregateArtifact{Value: 1}}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&up); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		f.Add(buf.Bytes()[:buf.Len()/2]) // truncated gob
	}
	f.Add([]byte{})

	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	h := NewHandler(srv)
	if code := postUploadRaw(f, h, "base", &artifactUpload{
		ColIDs: frame.ColumnIDs()[:1], Names: frame.ColumnNames()[:1], Columns: cols[:1],
	}); code != http.StatusNoContent {
		f.Fatalf("seeding upload answered %d", code)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/artifact?id=v", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusNoContent:
			if a, _ := srv.PeekArtifact("v"); a == nil {
				t.Fatal("accepted upload cannot be read back")
			}
			srv.Store.Evict("v")
		case http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d", rec.Code)
		}
		if srv.Store.Has("v") || srv.Store.Len() != 1 || srv.Store.PhysicalBytes() != cols[0].SizeBytes() {
			t.Fatal("store changed by a refused upload, or not restored after an accepted one")
		}
	})
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

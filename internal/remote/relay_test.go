package remote

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/materialize"
	"repro/internal/ops"
	"repro/internal/rec"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/workloads/kaggle"
)

// parentDownload is the body of GET /v1/artifact as the server wrote it when
// it kept decoded columns and encoded them for every download: a dataset
// with columns as its manifest and the record of each distinct column,
// named as the frame first names it; anything else as its blob record. It is
// the reference the relayed bytes are held to.
func parentDownload(t testing.TB, a graph.Artifact) []byte {
	t.Helper()
	var write func(w *rec.Writer)
	if ds, ok := a.(*graph.DatasetArtifact); ok && ds.Frame != nil && ds.Frame.NumCols() > 0 {
		f := ds.Frame
		var records [][]byte
		seen := make(map[string]bool)
		for _, c := range f.Columns() {
			if seen[c.ID] {
				continue
			}
			seen[c.ID] = true
			r, err := tier.EncodeColumn(c)
			if err != nil {
				t.Fatal(err)
			}
			records = append(records, r)
		}
		write = func(w *rec.Writer) {
			w.U8('D')
			tier.WriteManifest(w, f.ColumnIDs(), f.ColumnNames())
			w.Uvarint(uint64(len(records)))
			for _, r := range records {
				w.Uvarint(uint64(len(r)))
				w.Raw(r)
			}
		}
	} else {
		blob, err := tier.AppendBlob(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		write = func(w *rec.Writer) {
			w.U8('B')
			w.Uvarint(uint64(len(blob)))
			w.Raw(blob)
		}
	}
	b, err := rec.Exact(func(w *rec.Writer) {
		w.Raw([]byte(downloadResponseMagic))
		write(w)
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// concatClash is a run whose last frame carries a column the server holds
// under another name: Concat(right, left) renames left's "a" to "a_1" and
// keeps its lineage ID, which the server first stored, named "a", with the
// left frame run before it.
func concatClash() (left, both *graph.DAG) {
	l := testFrame(100, 3)
	r := data.MustNewFrame(data.NewFloatColumn("a", make([]float64, 100)).WithID(data.SourceID("right.csv", "a")))
	left = graph.NewDAG()
	left.Apply(left.AddSource("left.csv", &graph.DatasetArtifact{Frame: l}), ops.FillNA{})
	both = graph.NewDAG()
	lc := both.Apply(both.AddSource("left.csv", &graph.DatasetArtifact{Frame: l}), ops.FillNA{})
	rc := both.Apply(both.AddSource("right.csv", &graph.DatasetArtifact{Frame: r}), ops.FillNA{})
	both.Combine(ops.Concat{}, rc, lc)
	return left, both
}

// TestDownloadsAreTheParentsBytes: the server relays the column records it
// keeps, and every download is the bytes the server wrote when it decoded
// each upload and encoded each download (parentDownload) — after a cold
// W1–W3, for a frame whose held column travels under a second name, and on
// a tiered server after every artifact was demoted to disk, where the
// records come straight from the files.
func TestDownloadsAreTheParentsBytes(t *testing.T) {
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})
	for _, tiered := range []bool{false, true} {
		st := store.New(cost.Memory())
		if tiered {
			d, _, err := tier.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			st = store.NewTiered(cost.Memory(), store.Options{Disk: d})
		}
		srv := core.NewServer(st, core.WithBudget(1<<30), core.WithStrategy(materialize.NewAll()))
		ts := httptest.NewServer(NewHandler(srv))
		rc := NewClient(ts.URL, cost.Memory())
		runKaggle(t, rc, src, 1, 2, 3)
		left, both := concatClash()
		mustRun(t, rc, left)
		mustRun(t, rc, both)

		concat := both.Terminals()[0]
		if got := peek(t, srv.Store, concat.ID); got == nil || got.(*graph.DatasetArtifact).Frame.Column("a_1") == nil {
			t.Fatalf("tiered %v: the Concat frame is not stored with its renamed column", tiered)
		}
		want := "memory"
		if tiered {
			want = "disk"
			for _, id := range srv.Store.StoredIDs() {
				if err := srv.Store.Demote(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		frames := 0
		for _, id := range srv.Store.StoredIDs() {
			a := peek(t, srv.Store, id)
			resp, err := http.Get(ts.URL + "/v1/artifact?id=" + id)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get(TierHeader) != want {
				t.Fatalf("tiered %v: GET %s: %d from %q (%v)", tiered, id, resp.StatusCode, resp.Header.Get(TierHeader), err)
			}
			if !bytes.Equal(body, parentDownload(t, a)) {
				t.Errorf("tiered %v: the download of %s is not the parent's bytes", tiered, id)
			}
			if ds, ok := a.(*graph.DatasetArtifact); ok && ds.Frame.NumCols() > 0 {
				frames++
			}
		}
		ts.Close()
		if frames < 10 {
			t.Errorf("tiered %v: compared %d frames: the runs did not exercise the downloads", tiered, frames)
		}
	}
}

// exchangeRecorder is a client-side http.RoundTripper that keeps every POST
// a client makes, in order, so that a run can be replayed into a fresh
// server without running it.
type exchangeRecorder struct {
	mu    sync.Mutex
	posts []recordedPost
}

type recordedPost struct {
	path string
	body []byte
}

func (e *exchangeRecorder) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodPost {
		body, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		e.mu.Lock()
		e.posts = append(e.posts, recordedPost{req.URL.Path, body})
		e.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(req)
}

// recordPosts runs the given Table-1 workloads cold against a fresh server
// and returns every POST they made.
func recordPosts(t testing.TB, src *kaggle.Sources, ids ...int) []recordedPost {
	t.Helper()
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	rc := NewClient(ts.URL, cost.Memory())
	rec := &exchangeRecorder{}
	rc.http.Transport = rec
	runKaggle(t, rc, src, ids...)
	return rec.posts
}

// replay POSTs each recorded body to h in order, calling around for the
// uploads (nil: post them as the rest) and failing on any answer the
// protocol does not give.
func replay(t testing.TB, h http.Handler, posts []recordedPost, around func(post func())) {
	t.Helper()
	for _, p := range posts {
		post := func() {
			if code := postBody(h, p.path, p.body).Code; code != http.StatusOK && code != http.StatusNoContent {
				t.Fatalf("replayed %s answered %d", p.path, code)
			}
		}
		if p.path == "/v1/artifact" && around != nil {
			around(post)
		} else {
			post()
		}
	}
}

// TestUploadAdmissionAllocationBound gates what admitting an upload costs
// the server in allocations: one cold W1's upload body (Kaggle scale 1),
// admitted through the handler into a server that holds none of it, is
// validated record by record into scratch and kept, so it allocates per
// column only its store entry — not the values, strings and slices a
// decoded column is made of — and per column table entry its ID and name,
// which every manifest naming it and the record of its column share.
// (Before the column table, each of the body's 1 713 manifest entries was
// two fresh strings: 5 053 allocations. Before records took the table's
// strings, each record's ID and name were two more: about 1 780.) Under
// the race detector the same admission reads about 1 880 (2 180 before).
func TestUploadAdmissionAllocationBound(t *testing.T) {
	bound := 1600.0
	if raceEnabled {
		bound = 2070
	}
	posts := recordPosts(t, kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42}), 1)
	var body []byte
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	h := NewHandler(srv)
	replay(t, h, posts, func(func()) {})
	for _, p := range posts {
		if p.path == "/v1/artifact" {
			body = p.body
		}
	}
	items, err := readUpload(body)
	if err != nil || len(items) == 0 {
		t.Fatalf("W1 uploaded %d items (%v)", len(items), err)
	}
	columns := 0
	for _, up := range items {
		columns += len(up.Records)
	}
	admit := func() {
		if code := postBody(h, "/v1/artifact", body).Code; code != http.StatusNoContent {
			t.Fatalf("upload answered %d", code)
		}
		for _, up := range items {
			if !srv.Store.Has(up.ID) {
				t.Fatalf("%s was not admitted", up.ID)
			}
			srv.Store.Evict(up.ID)
		}
	}
	allocs := testing.AllocsPerRun(20, admit)
	t.Logf("admitting %d items of %d columns (%d bytes): %.0f allocations", len(items), columns, len(body), allocs)
	if allocs > bound {
		t.Errorf("admitting W1's upload allocates %.0f times, more than %.0f", allocs, bound)
	}
}

// TestUpdateDecodeAllocationBound gates what reading an update body costs
// the server in allocations: W3's update of a cold W1→W3 pass (Kaggle scale
// 1), which names its columns about ten thousand times and about two
// hundred distinct ones. Its column table makes one string per distinct
// lineage ID, which every node naming it shares, so a node's lineage costs
// two slices, not a string per entry. (Before the table, the body was
// 207 614 bytes and its decoding made 11 448 allocations.)
func TestUpdateDecodeAllocationBound(t *testing.T) {
	const bound = 1500
	var body []byte
	for _, p := range recordPosts(t, kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42}), 1, 2, 3) {
		if p.path == "/v1/update" {
			body = p.body // the last is W3's
		}
	}
	var req UpdateRequest
	if err := req.unmarshal(body); err != nil {
		t.Fatal(err)
	}
	entries, distinct := 0, map[string]bool{}
	for _, n := range req.DAG.Nodes() {
		entries += len(n.Columns)
		for _, id := range n.Columns {
			distinct[id] = true
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := (&UpdateRequest{}).unmarshal(body); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decoding W3's update of %d nodes, %d column entries of %d columns, %d inline artifacts (%d bytes): %.0f allocations",
		req.DAG.Len(), entries, len(distinct), len(req.Inline), len(body), allocs)
	if allocs > bound {
		t.Errorf("decoding W3's update allocates %.0f times, more than %d", allocs, bound)
	}
}

// BenchmarkUploadAdmit is what the server spends admitting a kaggle_cold
// pass's uploads: the POSTs of a cold W1–W8 at Kaggle scale 2 are replayed
// into a fresh server per iteration, and only the upload bodies are timed.
func BenchmarkUploadAdmit(b *testing.B) {
	posts := recordPosts(b, kaggle.Generate(kaggle.Config{Scale: 2, Seed: 42}), 1, 2, 3, 4, 5, 6, 7, 8)
	var uploaded int64
	for _, p := range posts {
		if p.path == "/v1/artifact" {
			uploaded += int64(len(p.body))
		}
	}
	if uploaded == 0 {
		b.Fatal("the pass uploaded nothing")
	}
	b.SetBytes(uploaded)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h := NewHandler(core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30)))
		replay(b, h, posts, func(post func()) {
			b.StartTimer()
			post()
			b.StopTimer()
		})
	}
}

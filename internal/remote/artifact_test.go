package remote

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/ops"
	"repro/internal/store"
	"repro/internal/tier"
	"repro/internal/workloads/kaggle"
	"repro/internal/workloads/openml"
)

// sameContent reports whether two artifacts are equal: a dataset column by
// column as the tier's column record, which is canonical — lineage ID, name,
// dtype, representation and every value, NaN payloads and −0 included — and
// anything else as a value.
func sameContent(t testing.TB, a, b graph.Artifact) bool {
	t.Helper()
	da, oka := a.(*graph.DatasetArtifact)
	db, okb := b.(*graph.DatasetArtifact)
	if !oka || !okb || da.Frame == nil || db.Frame == nil {
		return reflect.DeepEqual(a, b)
	}
	return sameColumns(t, da.Frame.Columns(), db.Frame.Columns())
}

// sameColumns compares two column lists record by record.
func sameColumns(t testing.TB, a, b []*data.Column) bool {
	t.Helper()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ra, err := tier.EncodeColumn(a[i])
		if err != nil {
			t.Fatal(err)
		}
		rb, err := tier.EncodeColumn(b[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ra, rb) {
			return false
		}
	}
	return true
}

// trickyFrame holds what a column record must carry exactly: a NaN payload,
// −0 and ±Inf, one-hot and count floats, ints, plain and dictionary strings,
// bools, and one lineage ID under two names.
func trickyFrame() *data.Frame {
	const rows = 64
	special := make([]float64, rows)
	onehot := make([]float64, rows)
	counts := make([]float64, rows)
	ints := make([]int64, rows)
	strs := make([]string, rows)
	codes := make([]uint32, rows)
	bools := make([]bool, rows)
	for i := range special {
		special[i] = []float64{math.Float64frombits(0x7ff8000000000bad), math.Copysign(0, -1), math.Inf(1), 2.5}[i%4]
		onehot[i] = float64(i % 2)
		counts[i] = float64(i * 37 % 1000)
		ints[i] = int64(i) - 32
		strs[i] = strconv.Itoa(i % 5)
		codes[i] = uint32(i % 3)
		bools[i] = i%3 == 0
	}
	c := data.NewFloatColumn("counts", counts)
	alias := c.WithID(c.ID)
	alias.Name = "counts_again"
	return data.MustNewFrame(
		data.NewFloatColumn("special", special), data.NewFloatColumn("onehot", onehot), c,
		data.NewIntColumn("ints", ints), data.NewStringColumn("strs", strs),
		data.NewDictColumn("dict", []string{"", "north", "south"}, codes),
		data.NewBoolColumn("bools", bools), alias,
	)
}

// TestArtifactMessagesRoundTrip: a download decodes to the content that was
// encoded — a frame column for column, with the column sent once under its
// lineage ID and named as the manifest names it, a model as its value — and
// so do an upload body and the answer listing what it refused.
func TestArtifactMessagesRoundTrip(t *testing.T) {
	frame := &graph.DatasetArtifact{Frame: trickyFrame()}
	model := &graph.ModelArtifact{Model: &ml.LogisticRegression{Weights: []float64{1, -2}, Bias: 0.5}, Quality: 0.75, Features: []string{"a", "b"}}
	for _, content := range []graph.Artifact{frame, model, &graph.AggregateArtifact{Value: math.NaN(), Text: "mean"}} {
		body, err := (&downloadResponse{Content: content}).marshal()
		if err != nil {
			t.Fatal(err)
		}
		var got downloadResponse
		if err := got.unmarshal(body); err != nil {
			t.Fatalf("%T: %v", content, err)
		}
		if agg, ok := content.(*graph.AggregateArtifact); ok {
			if g := got.Content.(*graph.AggregateArtifact); math.Float64bits(g.Value) != math.Float64bits(agg.Value) || g.Text != agg.Text {
				t.Errorf("aggregate decoded as %+v", g)
			}
		} else if !sameContent(t, got.Content, content) {
			t.Errorf("%T decoded as something else", content)
		}
	}
	var got downloadResponse
	body, _ := (&downloadResponse{Content: frame}).marshal()
	_ = got.unmarshal(body)
	if cols := got.Content.(*graph.DatasetArtifact).Frame.Columns(); &cols[2].Floats[0] != &cols[7].Floats[0] {
		t.Error("one lineage ID under two names arrived as two columns")
	}

	f := frame.Frame
	items := []artifactUpload{
		{ID: "m", Blob: model},
		{ID: "v", ColIDs: f.ColumnIDs(), Names: f.ColumnNames(), Columns: distinctColumns(f.Columns(), nil)},
	}
	var up uploadRequest
	if err := up.unmarshal(uploadBody(t, items...)); err != nil {
		t.Fatal(err)
	}
	if len(up.Items) != 2 || up.Items[0].ID != "m" || !reflect.DeepEqual(up.Items[0].Blob, model) ||
		up.Items[1].ID != "v" || !slices.Equal(up.Items[1].ColIDs, f.ColumnIDs()) || !slices.Equal(up.Items[1].Names, f.ColumnNames()) ||
		!sameColumns(t, up.Items[1].Columns, items[1].Columns) {
		t.Fatalf("upload decoded as %+v", up.Items)
	}
	absent := uploadResponse{Absent: []string{"v", "not-a-hex-id"}}
	b, err := absent.marshal()
	if err != nil {
		t.Fatal(err)
	}
	var back uploadResponse
	if err := back.unmarshal(b); err != nil || !reflect.DeepEqual(back, absent) {
		t.Errorf("answer decoded as %+v (%v)", back, err)
	}
}

// TestArtifactAnswersCarryTheirLength: a download and the answer listing
// what an upload refused are encoded whole before they are sent, and say how
// long they are.
func TestArtifactAnswersCarryTheirLength(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	knownTo(t, srv, "v", "w")
	h := NewHandler(srv)
	frame := testFrame(50, 2)
	if err := srv.PutArtifact("v", &graph.DatasetArtifact{Frame: frame}, nil); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/artifact?id=v", nil))
	absent := postUploads(t, h, artifactUpload{ID: "w", ColIDs: []string{"held-by-nobody"}, Names: []string{"a"}})
	for name, rec := range map[string]*httptest.ResponseRecorder{"download": rec, "refused upload": absent} {
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
			t.Errorf("%s: status %d, Content-Length %q for %d bytes", name, rec.Code, rec.Header().Get("Content-Length"), rec.Body.Len())
		}
	}
}

// TestColdPassStoresWhatTheClientHolds runs Table-1 W1–W8 against an empty
// server: every artifact the server then holds equals the client's bit for
// bit, and a second collaborator downloads each of them as the server holds
// it.
func TestColdPassStoresWhatTheClientHolds(t *testing.T) {
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	ts := httptest.NewServer(NewHandler(srv))
	defer ts.Close()
	rc := NewClient(ts.URL, cost.Memory())
	dags := runKaggle(t, rc, kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42}), 1, 2, 3, 4, 5, 6, 7, 8)

	held := make(map[string]graph.Artifact)
	for _, dag := range dags {
		for _, n := range dag.Nodes() {
			if n.Content != nil {
				held[n.ID] = n.Content
			}
		}
	}
	other := anotherClient(rc)
	frames := 0
	for _, id := range srv.Store.StoredIDs() {
		stored, _ := srv.Store.Peek(id)
		if mine := held[id]; mine == nil || !sameContent(t, stored, mine) {
			t.Errorf("stored %s is not the client's content", id)
		}
		if got := other.Fetch(id); got == nil || !sameContent(t, got, stored) {
			t.Errorf("downloaded %s is not what the server holds (%v)", id, other.Err())
		}
		if _, ok := stored.(*graph.DatasetArtifact); ok {
			frames++
		}
	}
	if frames == 0 {
		t.Fatal("the server holds no frame: the pass did not exercise the protocol")
	}
}

// learnerKinds are the learners ops.ModelSpec builds.
var learnerKinds = []string{"logreg", "linreg", "tree", "gbt", "rf", "knn", "nb", "svm"}

// learnerRuns executes a small OpenML pipeline per learner kind: each DAG
// holds the trained model and its score, as a run carries them inline.
func learnerRuns(tb testing.TB) []*graph.DAG {
	tb.Helper()
	frame := openml.GenerateDataset(openml.Config{Rows: 40, Features: 4, Seed: 31})
	var dags []*graph.DAG
	for _, kind := range learnerKinds {
		dag := openml.Pipeline{Scaler: "std", Spec: ops.ModelSpec{Kind: kind, Params: map[string]float64{"n_trees": 3}, Seed: 1}}.Build(frame)
		if _, err := core.Execute(dag, nil, nil); err != nil {
			tb.Fatalf("%s: %v", kind, err)
		}
		dags = append(dags, dag)
	}
	return dags
}

// learnerModels returns the trained model of each learnerRuns DAG.
func learnerModels(tb testing.TB) []graph.Artifact {
	var out []graph.Artifact
	for _, dag := range learnerRuns(tb) {
		for _, n := range dag.Nodes() {
			if ma, ok := n.Content.(*graph.ModelArtifact); ok {
				out = append(out, ma)
			}
		}
	}
	if len(out) != len(learnerKinds) {
		tb.Fatalf("%d models of %d learners", len(out), len(learnerKinds))
	}
	return out
}

// FuzzArtifactDecode feeds the client's download decoder arbitrary bytes. It
// must never panic, and whatever it accepts it must refuse with one more
// byte after it: a download is one whole message.
func FuzzArtifactDecode(f *testing.F) {
	model := &graph.ModelArtifact{Model: &ml.LogisticRegression{Weights: []float64{1, -2}, Bias: 0.5}, Quality: 0.75}
	for _, content := range []graph.Artifact{
		&graph.DatasetArtifact{Frame: trickyFrame()},
		&graph.DatasetArtifact{Frame: testFrame(10, 1)},
		model,
		&graph.AggregateArtifact{Value: 1, Text: "count"},
	} {
		body, err := (&downloadResponse{Content: content}).marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)/2]) // truncated
		f.Add(append(slices.Clone(body), 0))
	}
	f.Add([]byte(downloadResponseMagic))
	f.Add([]byte{})
	for _, model := range learnerModels(f) {
		body, err := (&downloadResponse{Content: model}).marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
		f.Add(body[:len(body)/2])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var m downloadResponse
		if m.unmarshal(body) != nil {
			return
		}
		if m.Content == nil {
			t.Fatal("decoded a download without content")
		}
		if (&downloadResponse{}).unmarshal(append(slices.Clone(body), 0)) == nil {
			t.Fatal("accepted a byte after the message")
		}
	})
}

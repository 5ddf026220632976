package remote

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/workloads/kaggle"
)

// W3's interaction features repeat their column pair and combiner every 52
// steps, so FE_052–FE_099 are FE_000–FE_047 under other names: 48 pairs.
const (
	w3Features     = 100
	w3FeaturePairs = 48
)

// w3FeatureVertex returns the vertex of W3's last interaction feature.
func w3FeatureVertex(t *testing.T, dag *graph.DAG) *graph.Node {
	t.Helper()
	last := fmt.Sprintf("derive:FE_%03d", w3Features-1)
	for _, n := range dag.Nodes() {
		if n.Name == last {
			return n
		}
	}
	t.Fatalf("W3 has no vertex %s", last)
	return nil
}

// feNumber returns k for a column named FE_k, and -1 for any other.
func feNumber(name string) int {
	var k int
	if _, err := fmt.Sscanf(name, "FE_%03d", &k); err != nil {
		return -1
	}
	return k
}

// TestAColumnUnderTwoNamesTravelsAndIsKeptOnce: a cold W3 over HTTP sends
// each of its 48 re-derived features' columns once — one record per lineage
// ID, under the name the feature first had, so 52 records for 100 features
// — and the server keeps it once: the feature frame's physical bytes are
// its logical bytes less the 48 second names. A download of the frame
// rebuilds every name, bit for bit, each pair from one record.
func TestAColumnUnderTwoNamesTravelsAndIsKeptOnce(t *testing.T) {
	src := kaggle.Generate(kaggle.Config{Scale: 1, Seed: 42})
	srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
	h := NewHandler(srv)
	ts := httptest.NewServer(h)
	defer ts.Close()
	rc, meter := meteredClient(ts.URL)
	dag := runKaggle(t, rc, src, 3)[0]

	sent := map[string]int{} // records, by lineage ID
	features := 0
	for _, p := range meter.posts {
		for _, up := range p.items {
			for _, r := range up.Records {
				sent[r.ID]++
				switch k := feNumber(r.Name); {
				case k >= w3Features-w3FeaturePairs:
					t.Errorf("%s travelled under its second name", r.Name)
				case k >= 0:
					features++
				}
			}
		}
	}
	for id, n := range sent {
		if n > 1 {
			t.Errorf("column %s travelled %d times", id, n)
		}
	}
	if want := w3Features - w3FeaturePairs; features != want {
		t.Errorf("%d feature records travelled, want %d", features, want)
	}

	v := w3FeatureVertex(t, dag)
	frame := v.Content.(*graph.DatasetArtifact).Frame
	if !srv.Store.Has(v.ID) {
		t.Fatal("the server did not keep W3's feature frame")
	}
	for _, id := range srv.Store.StoredIDs() {
		if id != v.ID {
			srv.Store.Evict(id)
		}
	}
	var second int64 // the bytes of the pairs' second names
	for _, c := range frame.Columns() {
		if feNumber(c.Name) >= w3Features-w3FeaturePairs {
			second += c.SizeBytes()
		}
	}
	if logical, physical := srv.Store.LogicalBytes(), srv.Store.PhysicalBytes(); second == 0 || physical != logical-second {
		t.Errorf("the feature frame holds %d logical and %d physical bytes, want the physical %d less",
			logical, physical, second)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/artifact?id="+v.ID, nil))
	var got downloadResponse
	if rec.Code != http.StatusOK || got.unmarshal(rec.Body.Bytes()) != nil {
		t.Fatalf("download of the feature frame answered %d", rec.Code)
	}
	if !sameBits(got.Content, v.Content) {
		t.Fatal("the downloaded feature frame is not the client's, bit for bit")
	}
	g := got.Content.(*graph.DatasetArtifact).Frame
	for k := 0; k < w3FeaturePairs; k++ {
		a, b := g.Column(fmt.Sprintf("FE_%03d", k)), g.Column(fmt.Sprintf("FE_%03d", k+w3Features-w3FeaturePairs))
		if &a.Floats[0] != &b.Floats[0] {
			t.Errorf("%s and %s arrived as two columns", a.Name, b.Name)
		}
	}
	if recs, _ := srv.Store.PeekRecords(v.ID); recs == nil || len(recs.Columns) != distinctIDs(frame) || distinctIDs(frame) != frame.NumCols()-w3FeaturePairs {
		t.Errorf("the download carries the records of %d distinct columns of %d; want %d", distinctIDs(frame), frame.NumCols(), frame.NumCols()-w3FeaturePairs)
	}
}

// distinctIDs counts the lineage IDs of a frame's columns.
func distinctIDs(f *data.Frame) int {
	seen := map[string]bool{}
	for _, c := range f.Columns() {
		seen[c.ID] = true
	}
	return len(seen)
}

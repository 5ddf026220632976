package remote

import (
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/graph"
	"repro/internal/rec"
	"repro/internal/store"
	"repro/internal/tier"
)

// tableUpdate writes an update of two dataset nodes, a source and its
// child, around the column table ids and sizes, each node's lineage the
// table indices of its refs entry: the canonical table and every way of
// breaking it that the encoder cannot write.
func tableUpdate(t testing.TB, ids []string, sizes []int64, refs [][]int) []byte {
	t.Helper()
	s := &graph.Node{ID: "s", Kind: graph.DatasetKind, Name: "s.csv"}
	d := &graph.Node{ID: "d", Kind: graph.DatasetKind, Name: "d", Parents: []*graph.Node{s}, Op: wireOp{hash: "hd"}}
	l := &nodeList{nodes: []*graph.Node{s, d}, frontier: make([]bool, 2), at: map[string]int{"s": 0, "d": 1}, hashes: []string{"", "hd"},
		columns: columnTable{ids: firstUse[string]{keys: ids}, sizes: sizes, refs: refs}}
	body, err := marshal(updateRequestMagic, func(w *rec.Writer) {
		l.write(w, true)
		w.Uvarint(0) // wall time
		w.Uvarint(0) // no inline artifact
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// tableUpload writes an upload of a blob item and then a dataset item of
// two columns, around the column table pairs, the dataset's manifest the
// table indices refs.
func tableUpload(t testing.TB, pairs []columnPair, refs []int) []byte {
	t.Helper()
	frame := testFrame(10, 4)
	var records [][]byte
	for _, c := range frame.Columns()[:2] {
		r, err := tier.EncodeColumn(c)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, r)
	}
	blob, err := encodeArtifact(&graph.AggregateArtifact{Value: 1}, nil, nil, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := marshal(uploadRequestMagic, func(w *rec.Writer) {
		w.Uvarint(uint64(len(pairs)))
		for _, p := range pairs {
			w.ID(p.id)
			w.ID(p.name)
		}
		w.Uvarint(2)
		w.ID("m")
		writeArtifact(w, &blob, true)
		w.ID("v")
		writeArtifact(w, &encodedArtifact{form: datasetForm, refs: refs, records: records}, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// tableCases are the column tables of both requests: the canonical ones —
// among them one column under two names, which a node's lineage lists twice
// and an upload's table pairs with each name while one record carries it —
// and one broken each way the decoders refuse — an index past the table, an
// entry repeated, an entry never named, entries out of first-use order.
func tableCases(t testing.TB) (updates, uploads map[string][]byte) {
	const a, b, c = "0123456789abcdef0123456789abcdef", "plain column", "fedcba9876543210fedcba9876543210"
	updates = map[string][]byte{
		"canonical":          tableUpdate(t, []string{a, b}, []int64{8, 16}, [][]int{{0, 1}, {1}}),
		"canonical, aliased": tableUpdate(t, []string{a, b}, []int64{8, 16}, [][]int{{0, 1, 0}, {1}}),
		"index past":         tableUpdate(t, []string{a, b}, []int64{8, 16}, [][]int{{0, 1}, {2}}),
		"repeated entry":     tableUpdate(t, []string{a, b, a}, []int64{8, 16, 8}, [][]int{{0, 1}, {2}}),
		"unused entry":       tableUpdate(t, []string{a, b, c}, []int64{8, 16, 4}, [][]int{{0, 1}, {1}}),
		"out of first use":   tableUpdate(t, []string{a, b}, []int64{8, 16}, [][]int{{1, 0}, {1}}),
		"repeated, resized":  tableUpdate(t, []string{a, b, a}, []int64{8, 16, 9}, [][]int{{0, 1}, {2}}),
		"unused, after uses": tableUpdate(t, []string{a, b, c}, []int64{8, 16, 4}, [][]int{{0}, {1, 0}}),
	}
	frame := testFrame(10, 4)
	cols := frame.Columns()
	p0, p1 := columnPair{cols[0].ID, cols[0].Name}, columnPair{cols[1].ID, cols[1].Name}
	uploads = map[string][]byte{
		"canonical":          tableUpload(t, []columnPair{p0, p1}, []int{0, 1}),
		"canonical, aliased": tableUpload(t, []columnPair{p0, {cols[0].ID, "a again"}, p1}, []int{0, 1, 2}),
		"index past":         tableUpload(t, []columnPair{p0, p1}, []int{0, 2}),
		"repeated entry":     tableUpload(t, []columnPair{p0, p1, p0}, []int{0, 1, 2}),
		"unused entry":       tableUpload(t, []columnPair{p0, p1, {cols[2].ID, cols[2].Name}}, []int{0, 1}),
		"out of first use":   tableUpload(t, []columnPair{p0, p1}, []int{1, 0}),
	}
	return updates, uploads
}

// TestColumnTablesAreCanonical: each request's column table has one form.
// An update or an upload whose table is broken — an index past it, an entry
// repeated, an entry no node or manifest names, entries out of the order
// they are first named — is a 400 that merges, stores and admits nothing,
// even what came before the break; the canonical tables are taken, a
// column under two names included. So what the decoders accept is what the
// encoders write.
func TestColumnTablesAreCanonical(t *testing.T) {
	updates, uploads := tableCases(t)
	for name, body := range updates {
		srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
		got := postBody(NewHandler(srv), "/v1/update", body)
		if strings.HasPrefix(name, "canonical") {
			if got.Code != http.StatusOK || srv.EG.Len() != 2 {
				t.Errorf("update, canonical table: status %d (%s), EG %d vertices; want 200 and 2", got.Code, got.Body, srv.EG.Len())
			}
			continue
		}
		if got.Code != http.StatusBadRequest || !strings.Contains(got.Body.String(), "column") {
			t.Errorf("update, %s: status %d %q; want 400 naming the column table", name, got.Code, got.Body)
		}
		if srv.EG.Len() != 0 || srv.Store.Len() != 0 || srv.Stats().UpdateCount != 0 {
			t.Errorf("update, %s: the refused body reached the server (EG %d, store %d)", name, srv.EG.Len(), srv.Store.Len())
		}
	}
	for name, body := range uploads {
		srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
		knownTo(t, srv, "m", "v")
		got := postBody(NewHandler(srv), "/v1/artifact", body)
		if strings.HasPrefix(name, "canonical") {
			if got.Code != http.StatusNoContent || !srv.Store.Has("m") || !srv.Store.Has("v") {
				t.Errorf("upload, canonical table: status %d (%s); want 204 and both items stored", got.Code, got.Body)
			}
			continue
		}
		if got.Code != http.StatusBadRequest || !strings.Contains(got.Body.String(), "column") {
			t.Errorf("upload, %s: status %d %q; want 400 naming the column table", name, got.Code, got.Body)
		}
		if srv.Store.Len() != 0 || srv.Store.PhysicalBytes() != 0 {
			t.Errorf("upload, %s: the refused body admitted %d items", name, srv.Store.Len())
		}
	}
}

// TestEarlierRequestVersionsAreRefusedByMagic: an update or an upload of
// the layouts before the column tables (CUQ3, CPQ2) is a 400 that names the
// magic it came with, and changes nothing; so does an optimize request whose
// node carries column lineage, which only an update has.
func TestEarlierRequestVersionsAreRefusedByMagic(t *testing.T) {
	updates, uploads := tableCases(t)
	for _, tc := range []struct {
		route, old string
		body       []byte
	}{
		{"/v1/update", "CUQ3", updates["canonical"]},
		{"/v1/artifact", "CPQ2", uploads["canonical"]},
	} {
		body := slices.Concat([]byte(tc.old), tc.body[4:])
		srv := core.NewServer(store.New(cost.Memory()), core.WithBudget(1<<30))
		knownTo(t, srv, "m", "v")
		got := postBody(NewHandler(srv), tc.route, body)
		if got.Code != http.StatusBadRequest || !strings.Contains(got.Body.String(), tc.old) {
			t.Errorf("%s of a %s body: status %d %q; want 400 naming %s", tc.route, tc.old, got.Code, got.Body, tc.old)
		}
		if srv.EG.Len() != 2 || srv.Store.Len() != 0 || srv.Stats().UpdateCount != 0 {
			t.Errorf("%s of a %s body changed the server", tc.route, tc.old)
		}
	}
	optimize, err := marshal(optimizeRequestMagic, func(w *rec.Writer) {
		w.Uvarint(1)
		w.Uvarint(hasID | hasColumns)
		w.ID("a")
		w.Uvarint(1)
		w.Uvarint(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := core.NewServer(store.New(cost.Memory()))
	if got := postBody(NewHandler(srv), "/v1/optimize", optimize); got.Code != http.StatusBadRequest || srv.Stats().OptimizeCount != 0 {
		t.Errorf("an optimize request with column lineage: status %d, %d optimizations; want 400 and none", got.Code, srv.Stats().OptimizeCount)
	}
}

// decodedUpdate re-encodes a decoded update: its nodes in the order they
// were read, each as it travelled — a frontier node as one — with the
// encoder's column table, wall time and inline section. A canonical
// decoder's input is exactly these bytes.
func decodedUpdate(req *UpdateRequest) ([]byte, error) {
	nodes := req.DAG.Nodes()
	l := &nodeList{nodes: nodes, frontier: make([]bool, len(nodes)), at: make(map[string]int, len(nodes)), hashes: make([]string, len(nodes))}
	for i, n := range nodes {
		l.at[n.ID], l.frontier[i] = i, n.Frontier
		if n.Op != nil {
			l.hashes[i] = n.Op.Hash()
		}
	}
	return req.marshalList(l)
}

// goldenSeeds adds the golden body of magic to f's corpus.
func goldenSeeds(f *testing.F, magic string) {
	b, err := os.ReadFile(filepath.Join("testdata", "golden", magic+".bin"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
}

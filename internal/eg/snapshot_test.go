package eg

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// TestSnapshotGobRoundTrip serializes a graph the way the persistence layer
// does — gob over a Snapshot — and demands the reconstructed graph produce
// identical recreation costs and potentials: the two values every optimizer
// decision (and every explain record) is derived from, which do not travel
// in the snapshot and are rebuilt.
func TestSnapshotGobRoundTrip(t *testing.T) {
	g := New()
	w, _, a, b := buildChain()
	// Lineage and model kind as a meta-only update carries them.
	a.Columns, a.ColSizes = []string{"c1", "c2"}, []int64{400, 600}
	b.ModelKind = "logreg"
	g.Merge(w)
	g.SetMaterialized(a.ID, true)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g.Snapshot()); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var snap Snapshot
	if err := gob.NewDecoder(&buf).Decode(&snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	g2 := FromSnapshot(&snap)

	if g2.Len() != g.Len() {
		t.Fatalf("Len=%d after round-trip, want %d", g2.Len(), g.Len())
	}
	for _, v := range g.Vertices() {
		v2 := g2.Vertex(v.ID)
		if v2.RecreationCost() != v.RecreationCost() || v2.Potential() != v.Potential() {
			t.Errorf("%s: Cr/p after round-trip %v/%v, want %v/%v", v.Name,
				v2.RecreationCost(), v2.Potential(), v.RecreationCost(), v.Potential())
		}
	}
	if !reflect.DeepEqual(g2.MaterializedIDs(), g.MaterializedIDs()) {
		t.Errorf("MaterializedIDs differ: got %v, want %v",
			g2.MaterializedIDs(), g.MaterializedIDs())
	}
	if got := g2.ColumnSize("c1"); got != 400 {
		t.Errorf("ColumnSize(c1)=%d after round-trip, want 400", got)
	}
	v := g2.Vertex(b.ID)
	if v == nil || v.Meta["model"] != "logreg" {
		t.Errorf("vertex meta lost in round-trip: %+v", v)
	}
}

// TestSnapshotIsolation: mutating the live graph after Snapshot must not
// leak into the copy.
func TestSnapshotIsolation(t *testing.T) {
	g := New()
	w, _, a, _ := buildChain()
	g.Merge(w)
	snap := g.Snapshot()
	g.SetMaterialized(a.ID, true)
	g.Vertex(a.ID).Frequency = 99
	for _, v := range snap.Vertices {
		if v.ID == a.ID {
			if v.Materialized || v.Frequency == 99 {
				t.Fatal("snapshot shares state with the live graph")
			}
		}
	}
}

// TestTopoOrderDeterministic guards the property explain and DOT rendering
// rely on: repeated traversals of the same graph yield identical order.
func TestTopoOrderDeterministic(t *testing.T) {
	g := New()
	w, _, _, _ := buildChain()
	g.Merge(w)
	first := g.TopoOrder()
	for i := 0; i < 10; i++ {
		if got := g.TopoOrder(); !reflect.DeepEqual(got, first) {
			t.Fatalf("TopoOrder not deterministic: run %d got %v, want %v", i, got, first)
		}
	}
	ids := func(vs []*Vertex) []string {
		out := make([]string, len(vs))
		for i, v := range vs {
			out[i] = v.ID
		}
		return out
	}
	firstV := ids(g.Vertices())
	for i := 0; i < 10; i++ {
		if got := ids(g.Vertices()); !reflect.DeepEqual(got, firstV) {
			t.Fatalf("Vertices order not deterministic: run %d got %v, want %v", i, got, firstV)
		}
	}
}

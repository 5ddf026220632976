package kaggle

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/graph"
)

// featurePeriod is the number of steps after which W3's interaction
// generator repeats a column pair and combiner: the pair cycles with the
// pool's length, the combiner every four steps.
const featurePeriod = 52

// TestW3ReDerivedFeaturesShareTheirLineage: FE_k and FE_{k+52} (k < 48) are
// one derivation under two names, so they are one column — one lineage ID,
// equal values — in W3's feature frame, and they are the frame's only
// columns that share an ID. A column's name is not its lineage.
func TestW3ReDerivedFeaturesShareTheirLineage(t *testing.T) {
	if featurePeriod%len(wideFeaturePool) != 0 || featurePeriod%4 != 0 || wideFeatureCount <= featurePeriod {
		t.Fatalf("the generator no longer repeats after %d steps", featurePeriod)
	}
	f := w3FeatureFrame(t)
	names := map[string][]string{} // by lineage ID
	for _, c := range f.Columns() {
		names[c.ID] = append(names[c.ID], c.Name)
	}
	for k := 0; k+featurePeriod < wideFeatureCount; k++ {
		a, b := f.Column(fmt.Sprintf("FE_%03d", k)), f.Column(fmt.Sprintf("FE_%03d", k+featurePeriod))
		if a.ID != b.ID {
			t.Errorf("%s and %s: IDs %s and %s, want one", a.Name, b.Name, a.ID, b.ID)
			continue
		}
		for i := range a.Floats {
			if math.Float64bits(a.Floats[i]) != math.Float64bits(b.Floats[i]) {
				t.Fatalf("%s and %s share an ID and differ at row %d", a.Name, b.Name, i)
			}
		}
		if want := []string{a.Name, b.Name}; !slices.Equal(names[a.ID], want) {
			t.Errorf("ID %s names %v, want %v", a.ID, names[a.ID], want)
		}
	}
	shared := 0
	for _, ns := range names {
		if len(ns) > 1 {
			shared++
		}
	}
	if want := wideFeatureCount - featurePeriod; shared != want {
		t.Errorf("%d lineage IDs name more than one column, want the %d feature pairs", shared, want)
	}
}

// w3FeatureFrame executes W3 at scale 1 and returns the frame of its last
// interaction feature.
func w3FeatureFrame(t *testing.T) *data.Frame {
	t.Helper()
	w := Workload3(testSources(t))
	if _, err := core.Execute(w, nil, nil); err != nil {
		t.Fatal(err)
	}
	last := fmt.Sprintf("derive:FE_%03d", wideFeatureCount-1)
	for _, n := range w.Nodes() {
		if n.Name == last {
			return n.Content.(*graph.DatasetArtifact).Frame
		}
	}
	t.Fatalf("W3 has no vertex %s", last)
	return nil
}

package ops

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/graph"
)

var update = flag.Bool("update", false, "rewrite golden files")

// identityFrame is the one frame every operation of the identity golden
// reads: an int key, two float features (w with a missing cell), a binary
// label and a string column of tokens.
func identityFrame() *data.Frame {
	return data.MustNewFrame(
		data.NewIntColumn("id", []int64{1, 2, 3, 4, 5, 6, 7, 8}),
		data.NewFloatColumn("x", []float64{1, 2, 3, 4, 5, 6, 7, 8}),
		data.NewFloatColumn("w", []float64{4, math.NaN(), 1, 3, 2, 8, 6, 5}),
		data.NewFloatColumn("y", []float64{0, 0, 1, 1, 1, 0, 1, 0}),
		data.NewStringColumn("cat", []string{"a b", "b", "a", "b c", "a", "b", "c", "a"}),
	)
}

// identityRight is the second input of the two-input operations: it shares
// the key id and the column x with identityFrame and has the same rows.
func identityRight() *data.Frame {
	return data.MustNewFrame(
		data.NewIntColumn("id", []int64{8, 7, 6, 5, 4, 3, 2, 1}),
		data.NewFloatColumn("x", []float64{2, 4, 6, 8, 1, 3, 5, 7}),
		data.NewFloatColumn("z", []float64{1, 0, 1, 0, 1, 0, 1, 0}),
	)
}

// TestOpIdentitiesMatchTheGolden pins, for every operation type, the op's
// hash and the name and lineage ID of each column it outputs on one fixed
// frame (an aggregate's text and a model's features instead, for the ops
// that output no dataset): together the vertex IDs of the Experiment Graph
// and the column IDs the store, the wire and the disk tier key on. A change
// that is meant to move one of them rewrites testdata/identities.golden
// with -update and says why.
func TestOpIdentitiesMatchTheGolden(t *testing.T) {
	left := &graph.DatasetArtifact{Frame: identityFrame()}
	right := &graph.DatasetArtifact{Frame: identityRight()}
	model := runOp(t, &Train{Spec: ModelSpec{Kind: "tree", Seed: 1}, Label: "y"}, left)
	cases := []struct {
		op     graph.Operation
		inputs []graph.Artifact
	}{
		{Select{Cols: []string{"x", "y"}}, nil},
		{Drop{Cols: []string{"cat"}}, nil},
		{Filter{Col: "x", Op: GT, Value: 3}, nil},
		{MapCol{Col: "x", Fn: Log1p}, nil},
		{Derive{Out: "d", Inputs: []string{"x", "w"}, Fn: Ratio}, nil},
		{FillNA{}, nil},
		{FillNA{Cols: []string{"w"}}, nil},
		{OneHot{Col: "cat"}, nil},
		{Sample{N: 5, Seed: 3}, nil},
		{Sample{N: 8, Seed: 3}, nil},
		{GroupByAgg{Key: "cat", Aggs: []data.Agg{{Col: "x", Kind: data.AggSum}, {Col: "w", Kind: data.AggMean}}}, nil},
		{Join{Key: "id", Kind: data.Inner}, []graph.Artifact{left, right}},
		{Join{Key: "id", Kind: data.Left}, []graph.Artifact{left, right}},
		{Concat{}, []graph.Artifact{left, &graph.DatasetArtifact{Frame: data.MustNewFrame(identityRight().Column("z"))}}},
		{Align{Side: LeftSide}, []graph.Artifact{left, right}},
		{Align{Side: RightSide}, []graph.Artifact{left, right}},
		{AggregateCol{Col: "w", Kind: data.AggMean}, nil},
		{SortBy{Col: "w", Desc: true}, nil},
		{Distinct{Cols: []string{"y"}}, nil},
		{Distinct{}, nil},
		{AppendRows{}, []graph.Artifact{left, left}},
		{Bin{Col: "x", Bins: 3}, nil},
		{RollingMean{Col: "x", Out: "x_rm3", Window: 3}, nil},
		{CountVectorize{Col: "cat", MaxFeatures: 2}, nil},
		{ScaleTransform{Kind: StdScaler, Label: "y"}, nil},
		{ScaleTransform{Kind: MinMaxScaler, Label: "y"}, nil},
		{SelectKBest{K: 1, Label: "y"}, nil},
		{PCATransform{K: 2, Label: "y"}, nil},
		{KMeansTransform{K: 2, Label: "y", Seed: 1}, nil},
		{KDE2D{ColX: "x", ColY: "w", GridSize: 4}, nil},
		{&Train{Spec: ModelSpec{Kind: "logreg", Seed: 1}, Label: "y"}, nil},
		{&Train{Spec: ModelSpec{Kind: "tree", Seed: 1}, Label: "y"}, nil},
		{Predict{}, []graph.Artifact{model, left}},
		{Evaluate{Label: "y", Metric: AUC}, []graph.Artifact{model, left}},
	}
	var b bytes.Buffer
	for _, tc := range cases {
		in := tc.inputs
		if in == nil {
			in = []graph.Artifact{left}
		}
		fmt.Fprintf(&b, "%s\t%s\n", tc.op.Name(), tc.op.Hash())
		switch out := runOp(t, tc.op, in...).(type) {
		case *graph.DatasetArtifact:
			for _, c := range out.Frame.Columns() {
				fmt.Fprintf(&b, "\t%s\t%s\n", c.Name, c.ID)
			}
		case *graph.AggregateArtifact:
			fmt.Fprintf(&b, "\t= %s\n", out.Text)
		case *graph.ModelArtifact:
			fmt.Fprintf(&b, "\tmodel %s on %s\n", out.Model.Kind(), strings.Join(out.Features, ","))
		default:
			t.Fatalf("%s: output %T", tc.op.Name(), out)
		}
	}
	path := filepath.Join("testdata", "identities.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("identities differ from %s:\n%s", path, lineDiff(string(want), got))
	}
}

// lineDiff lists the lines of want and got that differ, position by
// position.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d: golden %q, got %q\n", i+1, wl, gl)
		}
	}
	return b.String()
}

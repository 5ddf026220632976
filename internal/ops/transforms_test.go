package ops

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/parallel"
	"repro/internal/tier"
)

// transformFrame is learnerFrame with a bool column and a constant float
// column beside its features: every cell type a transform converts.
func transformFrame() *data.Frame {
	f := learnerFrame()
	n := f.NumRows()
	flags, flat := make([]bool, n), make([]float64, n)
	for i := range flags {
		flags[i] = i%3 == 1
		flat[i] = 0.1
	}
	return data.MustNewFrame(append(f.Columns(),
		data.NewBoolColumn("flag", flags),
		data.NewFloatColumn("flat", flat))...)
}

// TestTransformsMatchTheGolden runs every feature transform on
// transformFrame, on a frame that holds only the label and on a frame of no
// rows, and pins, per output column, its name, its lineage ID and a digest
// of its column record — an error's text, or a panic's, where the transform
// refuses the frame. A change to how a transform is fed its features is
// meant to leave every line as it is; one that is meant to move an output
// rewrites testdata/transforms.golden with -update and says why.
func TestTransformsMatchTheGolden(t *testing.T) {
	whole := transformFrame()
	labelOnly, err := whole.Select("TARGET")
	if err != nil {
		t.Fatal(err)
	}
	frames := []struct {
		name string
		f    *data.Frame
	}{
		{"whole", whole},
		{"label-only", labelOnly},
		{"no-rows", whole.Gather([]int{}, "no-rows")},
	}
	ops := []graph.Operation{
		ScaleTransform{Kind: StdScaler, Label: "TARGET"},
		ScaleTransform{Kind: MinMaxScaler, Label: "TARGET"},
		SelectKBest{K: 3, Label: "TARGET"},
		SelectKBest{K: 0, Label: "TARGET"},
		PCATransform{K: 3, Label: "TARGET"},
		KMeansTransform{K: 3, Label: "TARGET", Seed: 0},
		KMeansTransform{K: 3, Label: "TARGET", Seed: 1},
		KMeansTransform{K: 3, Label: "TARGET", Seed: 2},
		CountVectorize{Col: "tag"},
	}
	var b bytes.Buffer
	for _, fr := range frames {
		for _, op := range ops {
			fmt.Fprintf(&b, "%s\t%s\n", fr.name, op.Name())
			out, err := runRecovered(op, fr.f)
			if err != nil {
				fmt.Fprintf(&b, "\terror: %v\n", err)
				continue
			}
			for _, c := range frameOut(t, out).Columns() {
				rec, err := tier.EncodeColumn(c)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "\t%s\t%s\t%s\n", c.Name, c.ID, digest(rec))
			}
		}
	}
	path := filepath.Join("testdata", "transforms.golden")
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("transforms differ from %s:\n%s", path, lineDiff(string(want), got))
	}
}

// runRecovered runs op on f, returning a panic as an error.
func runRecovered(op graph.Operation, f *data.Frame) (out graph.Artifact, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return op.Run([]graph.Artifact{&graph.DatasetArtifact{Frame: f}})
}

// TestTransformsOfALabelOnlyFrameReadNoFeature: the label is never a
// feature, also when the frame holds nothing else. SelectKBest keeps only
// the label, PCA projects onto no component, and k-means, whose centroids
// have no coordinate, gives every row a distance of zero to each of them.
func TestTransformsOfALabelOnlyFrameReadNoFeature(t *testing.T) {
	f := data.MustNewFrame(data.NewFloatColumn("y", []float64{0, 1, 1, 0, 1}))
	in := &graph.DatasetArtifact{Frame: f}
	for _, op := range []graph.Operation{SelectKBest{K: 2, Label: "y"}, PCATransform{K: 2, Label: "y"}} {
		if got := frameOut(t, runOp(t, op, in)).ColumnNames(); len(got) != 1 || got[0] != "y" {
			t.Errorf("%s: columns %v, want only the label", op.Name(), got)
		}
	}
	out := frameOut(t, runOp(t, KMeansTransform{K: 3, Label: "y"}, in))
	if got := out.ColumnNames(); len(got) != 4 || got[3] != "y" {
		t.Fatalf("kmeans: columns %v, want three distances and the label", got)
	}
	for _, c := range out.Columns()[:3] {
		for i, v := range c.Floats {
			if v != 0 {
				t.Errorf("kmeans: %s[%d] = %v, want 0", c.Name, i, v)
			}
		}
	}
}

// TestScaleAndSelectAllocateUnderTheirBounds is the count gate on the
// transforms the workloads run, on a 4000 × 40 frame. ScaleTransform
// gathers the features into one column-major block, scales it in place and
// cuts its output columns from it: it allocates less than one and a half
// rows × features float blocks. SelectKBest scores one column at a time in
// one scratch vector and shares the columns it keeps: it allocates less
// than half of one such block.
func TestScaleAndSelectAllocateUnderTheirBounds(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	const rows, features = 4000, 40
	block := float64(rows * features * 8)
	in := []graph.Artifact{&graph.DatasetArtifact{Frame: trainingFrame(3, rows, features)}}
	for _, tc := range []struct {
		op    graph.Operation
		bound float64
	}{
		{ScaleTransform{Kind: StdScaler, Label: "TARGET"}, 1.5},
		{ScaleTransform{Kind: MinMaxScaler, Label: "TARGET"}, 1.5},
		{SelectKBest{K: 8, Label: "TARGET"}, 0.5},
	} {
		got := allocatedBytes(func() {
			if _, err := tc.op.Run(in); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s allocates %d bytes, %.2f of a %d × %d block", tc.op.Name(), got, float64(got)/block, rows, features)
		if float64(got) >= tc.bound*block {
			t.Errorf("%s allocates %d bytes, %g of a %d × %d block is %.0f", tc.op.Name(), got, tc.bound, rows, features, tc.bound*block)
		}
	}
}

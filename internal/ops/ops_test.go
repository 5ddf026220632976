package ops

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/graph"
)

func testFrame() *data.Frame {
	return data.MustNewFrame(
		data.NewIntColumn("id", []int64{1, 2, 3, 4, 5, 6}),
		data.NewFloatColumn("x", []float64{1, 2, 3, 4, 5, 6}),
		data.NewFloatColumn("y", []float64{0, 0, 1, 1, 1, 0}),
		data.NewStringColumn("cat", []string{"a", "b", "a", "b", "a", "b"}),
	)
}

func dataset() *graph.DatasetArtifact {
	return &graph.DatasetArtifact{Frame: testFrame()}
}

func runOp(t *testing.T, op graph.Operation, inputs ...graph.Artifact) graph.Artifact {
	t.Helper()
	out, err := op.Run(inputs)
	if err != nil {
		t.Fatalf("%s: %v", op.Name(), err)
	}
	return out
}

// modelInput returns a trained model as the executor hands it to an
// operation: a copy carrying the ID of the vertex it is the content of,
// which Predict mints its column from.
func modelInput(a graph.Artifact, vertexID string) *graph.ModelArtifact {
	cp := *a.(*graph.ModelArtifact)
	cp.VertexID = vertexID
	return &cp
}

func frameOut(t *testing.T, a graph.Artifact) *data.Frame {
	t.Helper()
	ds, ok := a.(*graph.DatasetArtifact)
	if !ok {
		t.Fatalf("output is %T, want dataset", a)
	}
	return ds.Frame
}

func TestSelectDrop(t *testing.T) {
	f := frameOut(t, runOp(t, Select{Cols: []string{"x", "y"}}, dataset()))
	if f.NumCols() != 2 || !f.HasColumn("x") {
		t.Errorf("select wrong: %v", f.ColumnNames())
	}
	f = frameOut(t, runOp(t, Drop{Cols: []string{"cat"}}, dataset()))
	if f.HasColumn("cat") {
		t.Error("drop failed")
	}
}

func TestFilterAllComparators(t *testing.T) {
	cases := []struct {
		cmp  Cmp
		val  float64
		want int
	}{
		{GT, 3, 3}, {GE, 3, 4}, {LT, 3, 2}, {LE, 3, 3}, {EQ, 3, 1}, {NE, 3, 5},
	}
	for _, c := range cases {
		f := frameOut(t, runOp(t, Filter{Col: "x", Op: c.cmp, Value: c.val}, dataset()))
		if f.NumRows() != c.want {
			t.Errorf("filter %s %g: got %d rows, want %d", c.cmp, c.val, f.NumRows(), c.want)
		}
	}
}

func TestMapColFunctions(t *testing.T) {
	cases := []struct {
		fn   MapFn
		arg  float64
		in   float64
		want float64
	}{
		{Log1p, 0, math.E - 1, 1},
		{Sqrt, 0, 9, 3},
		{Square, 0, 3, 9},
		{Abs, 0, -2, 2},
		{Scale, 10, 3, 30},
		{ClipLo, 2, 1, 2},
		{Negate, 0, 5, -5},
		{ReplaceVal, 4, 4, 0},
		{ReplaceVal, 4, 5, 5},
	}
	for _, c := range cases {
		if got := c.fn.apply(c.in, c.arg); got != c.want {
			t.Errorf("%s(%g, arg=%g)=%g, want %g", c.fn, c.in, c.arg, got, c.want)
		}
	}
	f := frameOut(t, runOp(t, MapCol{Col: "x", Fn: Square}, dataset()))
	if f.Column("x").Floats[2] != 9 {
		t.Errorf("mapcol square wrong: %v", f.Column("x").Floats)
	}
}

func TestDeriveFunctions(t *testing.T) {
	cases := []struct {
		fn   DeriveFn
		args []float64
		want float64
	}{
		{Ratio, []float64{6, 2}, 3},
		{Ratio, []float64{6, 0}, 0}, // guarded division
		{Diff, []float64{6, 2}, 4},
		{Sum, []float64{1, 2, 3}, 6},
		{Product, []float64{2, 3, 4}, 24},
		{Mean, []float64{2, 4}, 3},
	}
	for _, c := range cases {
		if got := c.fn.apply(c.args); got != c.want {
			t.Errorf("%s(%v)=%g, want %g", c.fn, c.args, got, c.want)
		}
	}
}

func TestSampleDeterministicBySeed(t *testing.T) {
	a := frameOut(t, runOp(t, Sample{N: 3, Seed: 1}, dataset()))
	b := frameOut(t, runOp(t, Sample{N: 3, Seed: 1}, dataset()))
	if a.NumRows() != 3 {
		t.Fatalf("sample rows=%d", a.NumRows())
	}
	for i := 0; i < 3; i++ {
		if a.Column("x").Floats[i] != b.Column("x").Floats[i] {
			t.Fatal("same seed must give same sample")
		}
	}
}

// TestSampleOfEveryRowKeepsLineage: a sample as large as its input selects
// every row in order, so its columns are the input's, IDs included; a
// smaller one re-derives them.
func TestSampleOfEveryRowKeepsLineage(t *testing.T) {
	in := dataset()
	all := frameOut(t, runOp(t, Sample{N: in.Frame.NumRows() + 1, Seed: 1}, in))
	some := frameOut(t, runOp(t, Sample{N: in.Frame.NumRows() - 1, Seed: 1}, in))
	for _, c := range in.Frame.Columns() {
		if all.Column(c.Name) != c {
			t.Errorf("a sample of every row copied column %s", c.Name)
		}
		if some.Column(c.Name).ID == c.ID {
			t.Errorf("a sample that drops a row kept the ID of column %s", c.Name)
		}
	}
}

func TestAggregateCol(t *testing.T) {
	cases := []struct {
		kind data.AggKind
		want float64
	}{
		{data.AggMean, 3.5}, {data.AggSum, 21}, {data.AggMin, 1}, {data.AggMax, 6}, {data.AggCount, 6},
	}
	for _, c := range cases {
		out := runOp(t, AggregateCol{Col: "x", Kind: c.kind}, dataset())
		agg := out.(*graph.AggregateArtifact)
		if agg.Value != c.want {
			t.Errorf("%s: got %g, want %g", c.kind, agg.Value, c.want)
		}
	}
}

func TestCountVectorizeOp(t *testing.T) {
	f := data.MustNewFrame(data.NewStringColumn("txt", []string{"red car", "blue car", "red red"}))
	out := frameOut(t, runOp(t, CountVectorize{Col: "txt", MaxFeatures: 8}, &graph.DatasetArtifact{Frame: f}))
	if !out.HasColumn("cv_red") || !out.HasColumn("cv_car") {
		t.Fatalf("vocab columns missing: %v", out.ColumnNames())
	}
	if out.Column("cv_red").Floats[2] != 2 {
		t.Errorf("count wrong: %v", out.Column("cv_red").Floats)
	}
}

func TestScaleTransformKeepsLabel(t *testing.T) {
	out := frameOut(t, runOp(t, ScaleTransform{Kind: StdScaler, Label: "y"}, dataset()))
	// label column untouched (shared)
	if out.Column("y").Floats[2] != 1 {
		t.Error("label was scaled")
	}
	var mean float64
	for _, v := range out.Column("x").Floats {
		mean += v
	}
	if math.Abs(mean) > 1e-9 {
		t.Errorf("x not standardized: mean=%g", mean/6)
	}
}

func TestSelectKBestOpSharesColumns(t *testing.T) {
	in := dataset()
	out := frameOut(t, runOp(t, SelectKBest{K: 1, Label: "y"}, in))
	if out.NumCols() != 2 || !out.HasColumn("y") {
		t.Fatalf("kbest wrong: %v", out.ColumnNames())
	}
	// selected column keeps its lineage ID (pure projection).
	for _, c := range out.Columns() {
		if in.Frame.Column(c.Name).ID != c.ID {
			t.Errorf("column %s lost lineage", c.Name)
		}
	}
}

func TestPCAOp(t *testing.T) {
	out := frameOut(t, runOp(t, PCATransform{K: 2, Label: "y"}, dataset()))
	if !out.HasColumn("pc0") || !out.HasColumn("pc1") || !out.HasColumn("y") {
		t.Fatalf("pca output wrong: %v", out.ColumnNames())
	}
}

func TestKMeansTransformOp(t *testing.T) {
	out := frameOut(t, runOp(t, KMeansTransform{K: 2, Label: "y", Seed: 1}, dataset()))
	if !out.HasColumn("km0") || !out.HasColumn("km1") || !out.HasColumn("y") {
		t.Fatalf("kmeans output wrong: %v", out.ColumnNames())
	}
	if out.NumRows() != 6 {
		t.Errorf("rows=%d", out.NumRows())
	}
}

func TestTrainNBAndSVM(t *testing.T) {
	for _, kind := range []string{"nb", "svm"} {
		train := &Train{Spec: ModelSpec{Kind: kind, Seed: 1}, Label: "y"}
		ma := runOp(t, train, dataset()).(*graph.ModelArtifact)
		if ma.Model.Kind() != kind {
			t.Errorf("built %s, want %s", ma.Model.Kind(), kind)
		}
	}
}

func TestKDE2DIsExternalAggregate(t *testing.T) {
	op := KDE2D{ColX: "x", ColY: "y", GridSize: 8}
	if !op.External() {
		t.Fatal("KDE must be external")
	}
	out := runOp(t, op, dataset())
	if agg := out.(*graph.AggregateArtifact); agg.Value <= 0 {
		t.Errorf("density should be positive: %v", agg.Value)
	}
}

func TestTrainPredictEvaluate(t *testing.T) {
	train := &Train{
		Spec:  ModelSpec{Kind: "tree", Params: map[string]float64{"depth": 3}, Seed: 1},
		Label: "y",
	}
	ma := modelInput(runOp(t, train, dataset()), "tree-vertex")
	if ma.Model == nil || len(ma.Features) == 0 {
		t.Fatal("train produced empty model")
	}
	if ma.Quality < 0 || ma.Quality > 1 {
		t.Errorf("quality out of range: %v", ma.Quality)
	}
	pred := frameOut(t, runOp(t, Predict{}, ma, dataset()))
	if !pred.HasColumn("prediction") {
		t.Fatal("prediction column missing")
	}
	ev := runOp(t, Evaluate{Label: "y", Metric: Acc}, ma, dataset()).(*graph.AggregateArtifact)
	if ev.Value < 0 || ev.Value > 1 {
		t.Errorf("accuracy out of range: %v", ev.Value)
	}
}

func TestTrainAllModelKinds(t *testing.T) {
	for _, kind := range []string{"logreg", "linreg", "tree", "gbt", "rf", "knn"} {
		train := &Train{Spec: ModelSpec{Kind: kind, Seed: 1}, Label: "y"}
		ma := runOp(t, train, dataset()).(*graph.ModelArtifact)
		if ma.Model.Kind() != kind {
			t.Errorf("built %s, want %s", ma.Model.Kind(), kind)
		}
	}
	bad := &Train{Spec: ModelSpec{Kind: "nope"}, Label: "y"}
	if _, err := bad.Run([]graph.Artifact{dataset()}); err == nil {
		t.Error("unknown model kind should error")
	}
}

func TestPredictZeroFillsMissingFeatures(t *testing.T) {
	for _, kind := range []string{"knn", "logreg", "gbt"} {
		train := &Train{Spec: ModelSpec{Kind: kind, Seed: 1}, Label: "y"}
		ma := modelInput(runOp(t, train, dataset()), kind+"-vertex")
		// Score a frame missing the "x" feature entirely.
		small := data.MustNewFrame(data.NewIntColumn("id", []int64{9}))
		out := frameOut(t, runOp(t, Predict{}, ma, &graph.DatasetArtifact{Frame: small}))
		if out.NumRows() != 1 || !out.HasColumn("prediction") {
			t.Fatalf("%s: predict on reduced frame failed", kind)
		}
	}
}

// TestColumnScoringNeedsOneFeaturePresent: a model learns the row count
// from the feature columns it scores, so a dataset with none of its features
// is refused, by Predict and by Evaluate, instead of scored as all zeros —
// whichever learner the model is.
func TestColumnScoringNeedsOneFeaturePresent(t *testing.T) {
	other := &graph.DatasetArtifact{Frame: data.MustNewFrame(
		data.NewFloatColumn("z", []float64{1, 2}), data.NewFloatColumn("y", []float64{0, 1}))}
	for _, kind := range []string{"gbt", "linreg", "knn", "nb", "svm"} {
		ma := modelInput(runOp(t, &Train{Spec: ModelSpec{Kind: kind, Seed: 1}, Label: "y"}, dataset()), kind+"-vertex")
		for _, op := range []graph.Operation{Predict{}, Evaluate{Label: "y", Metric: Acc}} {
			if _, err := op.Run([]graph.Artifact{ma, other}); err == nil || !strings.Contains(err.Error(), "none of the model's 2 features") {
				t.Errorf("%s: %s on a dataset without the model's features: error %v", kind, op.Name(), err)
			}
		}
	}
}

func TestHashDeterminismAndSensitivity(t *testing.T) {
	opPairs := []struct {
		a, b graph.Operation
	}{
		{Select{Cols: []string{"x"}}, Select{Cols: []string{"y"}}},
		{Filter{Col: "x", Op: GT, Value: 1}, Filter{Col: "x", Op: GT, Value: 2}},
		{MapCol{Col: "x", Fn: Log1p}, MapCol{Col: "x", Fn: Sqrt}},
		{Derive{Out: "d", Inputs: []string{"x"}, Fn: Sum}, Derive{Out: "e", Inputs: []string{"x"}, Fn: Sum}},
		{GroupByAgg{Key: "cat", Aggs: []data.Agg{{Col: "x", Kind: data.AggSum}}},
			GroupByAgg{Key: "cat", Aggs: []data.Agg{{Col: "x", Kind: data.AggMean}}}},
		{Join{Key: "id", Kind: data.Inner}, Join{Key: "id", Kind: data.Left}},
		{Sample{N: 5, Seed: 1}, Sample{N: 5, Seed: 2}},
		{&Train{Spec: ModelSpec{Kind: "gbt", Params: map[string]float64{"n_trees": 10}}, Label: "y"},
			&Train{Spec: ModelSpec{Kind: "gbt", Params: map[string]float64{"n_trees": 20}}, Label: "y"}},
	}
	for _, p := range opPairs {
		if p.a.Hash() != p.a.Hash() {
			t.Errorf("%s hash not deterministic", p.a.Name())
		}
		if p.a.Hash() == p.b.Hash() {
			t.Errorf("%s: different params must hash differently", p.a.Name())
		}
	}
}

func TestTrainHashIgnoresWarmstartFlag(t *testing.T) {
	spec := ModelSpec{Kind: "logreg", Params: map[string]float64{"lr": 0.1}, Seed: 1}
	a := &Train{Spec: spec, Label: "y", Warmstart: false}
	b := &Train{Spec: spec, Label: "y", Warmstart: true}
	if a.Hash() != b.Hash() {
		t.Error("warmstart opt-in must not change artifact identity")
	}
}

func TestModelSpecCanonicalOrderIndependent(t *testing.T) {
	a := ModelSpec{Kind: "gbt", Params: map[string]float64{"n_trees": 10, "depth": 3, "lr": 0.1}}
	b := ModelSpec{Kind: "gbt", Params: map[string]float64{"lr": 0.1, "depth": 3, "n_trees": 10}}
	if a.canonical() != b.canonical() {
		t.Error("param map order must not affect the canonical rendering")
	}
	if !strings.Contains(a.canonical(), "n_trees=10") {
		t.Errorf("canonical rendering incomplete: %s", a.canonical())
	}
}

// TestOpsRejectWrongInputs runs every operation type on inputs of the
// wrong number or kind: each must fail, never panic or compute.
func TestOpsRejectWrongInputs(t *testing.T) {
	agg := &graph.AggregateArtifact{Value: 1}
	noFrame := &graph.DatasetArtifact{}
	ma := modelInput(runOp(t, &Train{Spec: ModelSpec{Kind: "tree", Seed: 1}, Label: "y"}, dataset()), "tree-vertex")
	singleInput := []graph.Operation{
		Select{Cols: []string{"x"}}, Drop{Cols: []string{"x"}},
		Filter{Col: "x", Op: GT}, MapCol{Col: "x", Fn: Log1p},
		Derive{Out: "d", Inputs: []string{"x", "y"}, Fn: Sum},
		FillNA{}, OneHot{Col: "cat"}, Sample{N: 1},
		GroupByAgg{Key: "cat"}, AggregateCol{Col: "x", Kind: data.AggSum},
		SortBy{Col: "x"}, Distinct{Cols: []string{"cat"}},
		Bin{Col: "x", Bins: 2}, RollingMean{Col: "x", Out: "r", Window: 2},
		CountVectorize{Col: "cat"}, ScaleTransform{Kind: StdScaler},
		SelectKBest{K: 1, Label: "y"}, PCATransform{K: 1},
		KMeansTransform{K: 1, Seed: 1}, KDE2D{ColX: "x", ColY: "y", GridSize: 4},
		&Train{Spec: ModelSpec{Kind: "tree", Seed: 1}, Label: "y"},
	}
	for _, op := range singleInput {
		for _, in := range [][]graph.Artifact{{agg}, {noFrame}, {ma}, nil, {dataset(), dataset()}} {
			if _, err := op.Run(in); err == nil {
				t.Errorf("%s should reject inputs %s", op.Name(), kinds(in))
			}
		}
	}
	frames := []graph.Operation{Join{Key: "id"}, Align{Side: LeftSide}, Align{Side: RightSide}, AppendRows{}, Concat{}}
	for _, op := range frames {
		for _, in := range [][]graph.Artifact{nil, {dataset()}, {dataset(), agg}, {agg, dataset()}, {dataset(), noFrame}, {ma, dataset()}} {
			if _, err := op.Run(in); err == nil {
				t.Errorf("%s should reject inputs %s", op.Name(), kinds(in))
			}
		}
	}
	for _, op := range []graph.Operation{Join{Key: "id"}, Align{}, AppendRows{}} {
		if _, err := op.Run([]graph.Artifact{dataset(), dataset(), dataset()}); err == nil {
			t.Errorf("%s should require exactly two inputs", op.Name())
		}
	}
	if _, err := (Concat{}).Run([]graph.Artifact{dataset(), dataset(), agg}); err == nil {
		t.Error("concat should reject a third input that is not a dataset")
	}
	for _, op := range []graph.Operation{Predict{}, Evaluate{Label: "y"}} {
		for _, in := range [][]graph.Artifact{nil, {ma}, {ma, dataset(), dataset()}, {dataset(), dataset()}, {agg, dataset()}, {ma, agg}, {ma, noFrame}, {dataset(), ma}} {
			if _, err := op.Run(in); err == nil {
				t.Errorf("%s should reject inputs %s", op.Name(), kinds(in))
			}
		}
	}
	if _, err := (Select{Cols: []string{"missing"}}).Run([]graph.Artifact{dataset()}); err == nil {
		t.Error("select of a missing column should error")
	}
	if _, err := (Predict{}).Run([]graph.Artifact{modelInput(ma, ""), dataset()}); err == nil {
		t.Error("predict should reject a model input that names no vertex")
	}
	if _, err := (OneHot{Col: "x"}).Run([]graph.Artifact{dataset()}); err == nil {
		t.Error("one-hot of a numeric column should error")
	}
}

// kinds names the artifact type of each input, for a failure message.
func kinds(in []graph.Artifact) string {
	names := make([]string, len(in))
	for i, a := range in {
		names[i] = fmt.Sprintf("%T", a)
	}
	return "[" + strings.Join(names, ", ") + "]"
}

func TestAlignSides(t *testing.T) {
	left := dataset()
	rf := data.MustNewFrame(
		data.NewFloatColumn("x", []float64{1}),
		data.NewFloatColumn("z", []float64{2}),
	)
	right := &graph.DatasetArtifact{Frame: rf}
	l := frameOut(t, runOp(t, Align{Side: LeftSide}, left, right))
	r := frameOut(t, runOp(t, Align{Side: RightSide}, left, right))
	if l.NumCols() != 1 || !l.HasColumn("x") {
		t.Errorf("left align wrong: %v", l.ColumnNames())
	}
	if r.NumCols() != 1 || r.NumRows() != 1 {
		t.Errorf("right align wrong: %v", r.ColumnNames())
	}
}

func TestConcatOp(t *testing.T) {
	a := &graph.DatasetArtifact{Frame: data.MustNewFrame(data.NewFloatColumn("p", []float64{1, 2}))}
	b := &graph.DatasetArtifact{Frame: data.MustNewFrame(data.NewFloatColumn("q", []float64{3, 4}))}
	f := frameOut(t, runOp(t, Concat{}, a, b))
	if f.NumCols() != 2 {
		t.Errorf("concat wrong: %v", f.ColumnNames())
	}
	if _, err := (Concat{}).Run([]graph.Artifact{a}); err == nil {
		t.Error("concat should require >= 2 inputs")
	}
}

package ops

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/parallel"
)

// trainingFrame draws rows × features numeric columns — continuous, one-hot
// and small-integer by turns — and a TARGET that depends on the first three.
// Feature columns are named f0, f1, ...: built through NewFloatColumn, their
// lineage IDs depend on the name alone.
func trainingFrame(seed int64, rows, features int) *data.Frame {
	rng := rand.New(rand.NewSource(seed))
	cols := make([]*data.Column, 0, features+1)
	target := make([]float64, rows)
	for f := 0; f < features; f++ {
		vals := make([]float64, rows)
		for i := range vals {
			switch f % 3 {
			case 0:
				vals[i] = rng.NormFloat64()
			case 1:
				vals[i] = float64(rng.Intn(2))
			default:
				vals[i] = float64(rng.Intn(9))
			}
			if f < 3 {
				target[i] += vals[i]
			}
		}
		cols = append(cols, data.NewFloatColumn(fmt.Sprint("f", f), vals))
	}
	for i, s := range target {
		target[i] = 0
		if s+rng.NormFloat64() > 4.5 {
			target[i] = 1
		}
	}
	return data.MustNewFrame(append(cols, data.NewFloatColumn("TARGET", target))...)
}

func gbtSpec(seed int64) ModelSpec {
	return ModelSpec{Kind: "gbt", Params: map[string]float64{"n_trees": 8, "depth": 3}, Seed: seed}
}

func trainOn(t testing.TB, f *data.Frame, spec ModelSpec) *graph.ModelArtifact {
	t.Helper()
	out, err := (&Train{Spec: spec, Label: "TARGET"}).Run([]graph.Artifact{&graph.DatasetArtifact{Frame: f}})
	if err != nil {
		t.Fatal(err)
	}
	return out.(*graph.ModelArtifact)
}

// sameModel compares two tree models by what they predict on f.
func sameModel(f *data.Frame, a, b *graph.ModelArtifact) bool {
	x := f.NumericRows(a.Features, nil)
	pa, pb := a.Model.Predict(x), b.Model.Predict(x)
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	return a.Quality == b.Quality
}

// TestTrainKeepsFramesWithCollidingColumnIDsApart: two frames whose columns
// share lineage IDs — same names — but differ in length and content train
// independently. Bins memoised per ID would hand the second frame the
// first's (and index out of range); bins kept with the column object cannot.
func TestTrainKeepsFramesWithCollidingColumnIDsApart(t *testing.T) {
	long, short := trainingFrame(1, 900, 6), trainingFrame(2, 300, 6)
	if long.Column("f0").ID != short.Column("f0").ID {
		t.Fatal("the two frames were meant to collide on column IDs")
	}
	for _, kind := range []string{"gbt", "rf", "tree"} {
		spec := ModelSpec{Kind: kind, Seed: 4}
		first, second := trainOn(t, long, spec), trainOn(t, short, spec)
		// Each equals the model a frame of its own, never seen beside the
		// other, yields.
		if !sameModel(long, first, trainOn(t, trainingFrame(1, 900, 6), spec)) {
			t.Errorf("%s: the long frame's model depends on what else was trained", kind)
		}
		if !sameModel(short, second, trainOn(t, trainingFrame(2, 300, 6), spec)) {
			t.Errorf("%s: the short frame's model depends on what else was trained", kind)
		}
	}
}

// binnedAlready reports whether every feature column of f (all but TARGET)
// has its quantile view built: asking for a built view allocates nothing,
// building one takes a float per row.
func binnedAlready(f *data.Frame) bool {
	for _, c := range f.Columns() {
		if c.Name != "TARGET" && allocatedBytes(func() { c.Quantiles() }) >= uint64(c.Len()) {
			return false
		}
	}
	return true
}

// TestConcurrentTrainsBuildBinsOnce runs, under -race, Train vertices of
// every tree kind at once on one frame: the fits bin the frame's own feature
// columns — one view per column, by whichever fit reaches it first, shared
// by the rest — and every fit yields the model it yields alone.
func TestConcurrentTrainsBuildBinsOnce(t *testing.T) {
	const features = 12
	f := trainingFrame(7, 2000, features)
	specs := []ModelSpec{gbtSpec(1), gbtSpec(2), {Kind: "rf", Seed: 3}, {Kind: "tree", Seed: 4}}
	models := make([]*graph.ModelArtifact, len(specs))
	var wg sync.WaitGroup
	for k := range specs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			out, err := (&Train{Spec: specs[k], Label: "TARGET"}).Run([]graph.Artifact{&graph.DatasetArtifact{Frame: f}})
			if err != nil {
				t.Error(err)
				return
			}
			models[k] = out.(*graph.ModelArtifact)
		}(k)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if !binnedAlready(f) {
		t.Error("after four fits a feature column of the frame still has no view: the fits binned copies")
	}
	alone := trainingFrame(7, 2000, features)
	for k, spec := range specs {
		if !sameModel(f, models[k], trainOn(t, alone, spec)) {
			t.Errorf("%s seed %d: the concurrent fit differs from the same fit alone", spec.Kind, spec.Seed)
		}
	}
}

// TestTrainTreeFamilyTrainsOnColumns pins which learners take the column
// path — the tree learners and logistic regression — and that the label
// never becomes a feature on it.
func TestTrainTreeFamilyTrainsOnColumns(t *testing.T) {
	f := trainingFrame(5, 400, 5)
	for kind, want := range map[string]bool{"gbt": true, "rf": true, "tree": true, "logreg": true, "knn": false} {
		m, err := ModelSpec{Kind: kind}.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.(ml.ColumnFitter); ok != want {
			t.Errorf("%s: trains on columns = %v, want %v", kind, ok, want)
		}
		ma := trainOn(t, f, ModelSpec{Kind: kind, Seed: 1})
		if len(ma.Features) != 5 {
			t.Errorf("%s: features %v", kind, ma.Features)
		}
		if ma.Quality < 0.5 {
			t.Errorf("%s: held-out quality %v on a learnable target", kind, ma.Quality)
		}
	}
}

// allocatedBytes is the heap fn allocates, averaged over a few calls.
func allocatedBytes(fn func()) uint64 {
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestColumnModelsTrainAndScoreWithoutAMatrix is the count gate on training
// and scoring from the columns. Training a GBT on a 4000 × 40 frame — the
// Kaggle variants' shape — with its held-out quality, or scoring it on the
// whole frame, allocates less than one rows × features float matrix would
// take. Training a logistic regression gathers its training rows, three
// quarters of such a matrix, and nothing more of that size; scoring it
// allocates less than a tenth of one. (The logistic frame is 64 features
// wide because Evaluate's own vectors — labels, scores and AUC's rank pairs —
// are five floats per row, more than a tenth of a 40-feature matrix.)
func TestColumnModelsTrainAndScoreWithoutAMatrix(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	for _, tc := range []struct {
		features  int
		spec      func(seed int64) ModelSpec
		scoreFrac float64
	}{
		{40, gbtSpec, 1},
		{64, func(seed int64) ModelSpec { return ModelSpec{Kind: "logreg", Seed: seed} }, 0.1},
	} {
		const rows = 4000
		matrix := uint64(rows * tc.features * 8)
		f := trainingFrame(3, rows, tc.features)
		in := &graph.DatasetArtifact{Frame: f}
		ma := trainOn(t, f, tc.spec(0)) // builds the quantile views of a tree model
		kind := tc.spec(0).Kind
		if got := allocatedBytes(func() { trainOn(t, f, tc.spec(1)) }); got >= matrix {
			t.Errorf("%s: Train.Run allocates %d bytes, a %d × %d matrix is %d", kind, got, rows, tc.features, matrix)
		}
		for _, op := range []graph.Operation{Evaluate{Label: "TARGET", Metric: AUC}, Predict{}} {
			got := allocatedBytes(func() {
				if _, err := op.Run([]graph.Artifact{ma, in}); err != nil {
					t.Fatal(err)
				}
			})
			if bound := uint64(tc.scoreFrac * float64(matrix)); got >= bound {
				t.Errorf("%s: %s allocates %d bytes, %g of a %d × %d matrix is %d", kind, op.Name(), got, tc.scoreFrac, rows, tc.features, bound)
			}
		}
	}
}

// TestTrainOnAnInfiniteCellReturns: a logistic model trained on a frame with
// one +Inf cell has NaN weights and scores NaN everywhere; its held-out AUC
// is still computed, and Train returns.
func TestTrainOnAnInfiniteCellReturns(t *testing.T) {
	f := trainingFrame(4, 40, 2)
	train, _ := ml.TrainTestSplit(40, 0.25, 0)
	f.Column("f0").Floats[train[0]] = math.Inf(1)
	done := make(chan error, 1)
	go func() {
		_, err := (&Train{Spec: ModelSpec{Kind: "logreg", Params: map[string]float64{"max_iter": 5}}, Label: "TARGET"}).
			Run([]graph.Artifact{&graph.DatasetArtifact{Frame: f}})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("Train.Run on a frame with an infinite cell has not returned after a minute")
	}
}

// TestTrainOnNoRowsIsAnError: a frame with no rows has no split to train and
// score on; Train says so instead of panicking.
func TestTrainOnNoRowsIsAnError(t *testing.T) {
	f := trainingFrame(5, 0, 3)
	_, err := (&Train{Spec: gbtSpec(1), Label: "TARGET"}).Run([]graph.Artifact{&graph.DatasetArtifact{Frame: f}})
	if err == nil || !strings.Contains(err.Error(), "has no rows") {
		t.Errorf("Train on a 0-row frame: error %v, want one saying it has no rows", err)
	}
}

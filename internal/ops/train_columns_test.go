package ops

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/obs"
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

// TestConcurrentTrainsBuildBinsOnce runs, under -race, Train vertices of
// every tree kind at once on one frame, and counts: each feature column is
// binned once, by whichever fit reaches it first, and every fit yields the
// model it yields alone.
func TestConcurrentTrainsBuildBinsOnce(t *testing.T) {
	reg := obs.NewRegistry()
	data.RegisterMetrics(reg)
	builds := reg.Counter("collab_data_op_quantile_builds_total", "")

	const features = 12
	f := trainingFrame(7, 2000, features)
	specs := []ModelSpec{gbtSpec(1), gbtSpec(2), {Kind: "rf", Seed: 3}, {Kind: "tree", Seed: 4}}
	models := make([]*graph.ModelArtifact, len(specs))
	before := builds.Value()
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
	if n := builds.Value() - before; n != features {
		t.Errorf("%d quantile views built for %d feature columns trained on %d times", n, features, len(specs))
	}
	alone := trainingFrame(7, 2000, features)
	for k, spec := range specs {
		if !sameModel(f, models[k], trainOn(t, alone, spec)) {
			t.Errorf("%s seed %d: the concurrent fit differs from the same fit alone", spec.Kind, spec.Seed)
		}
	}
	if n := builds.Value() - before; n != 2*features {
		t.Errorf("the second frame's columns were binned %d times, want %d", n-features, features)
	}
}

// TestTrainTreeFamilyTrainsOnColumns pins which learners take the column
// path, and that the label never becomes a feature on it.
func TestTrainTreeFamilyTrainsOnColumns(t *testing.T) {
	f := trainingFrame(5, 400, 5)
	for kind, want := range map[string]bool{"gbt": true, "rf": true, "tree": true, "logreg": false, "knn": false} {
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

// TestTreeModelsTrainAndScoreWithoutAMatrix is the count gate on scoring from
// the columns: on a 4000 × 40 frame — the Kaggle variants' shape — neither
// training a GBT with its held-out quality nor scoring it on the whole frame
// allocates as much as one rows × features float matrix would take, let
// alone builds one.
func TestTreeModelsTrainAndScoreWithoutAMatrix(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	const rows, features = 4000, 40
	const matrix = rows * features * 8
	f := trainingFrame(3, rows, features)
	in := &graph.DatasetArtifact{Frame: f}
	ma := trainOn(t, f, gbtSpec(0)) // builds the quantile views
	if got := allocatedBytes(func() { trainOn(t, f, gbtSpec(1)) }); got >= matrix {
		t.Errorf("Train.Run allocates %d bytes, a %d × %d matrix is %d", got, rows, features, matrix)
	}
	for _, op := range []graph.Operation{Evaluate{Label: "TARGET", Metric: AUC}, Predict{}} {
		got := allocatedBytes(func() {
			if _, err := op.Run([]graph.Artifact{ma, in}); err != nil {
				t.Fatal(err)
			}
		})
		if got >= matrix {
			t.Errorf("%s allocates %d bytes, a %d × %d matrix is %d", op.Name(), got, rows, features, matrix)
		}
	}
}

package ml

import (
	"testing"

	"repro/internal/parallel"
)

// fitPredictAt fits the given fresh model under the given pool width and
// returns its predictions on the training matrix.
func fitPredictAt(t *testing.T, workers int, mk func() Model, x [][]float64, y []float64) []float64 {
	t.Helper()
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	m := mk()
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	return m.Predict(x)
}

// fitColumnsPredictAt is fitPredictAt on the column path: the model trains on
// the odd rows of fresh columns over x, so the columns are binned at this
// pool width too, and predicts every row, through the columns and — with the
// same result — through the matrix.
func fitColumnsPredictAt(t *testing.T, workers int, mk func() Model, x [][]float64, y []float64) []float64 {
	t.Helper()
	cf, ok := mk().(ColumnFitter)
	if !ok {
		return nil
	}
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	var rows []int
	for i := 1; i < len(x); i += 2 {
		rows = append(rows, i)
	}
	cols := columnsOf(x)
	if err := cf.FitColumns(cols, rows, y); err != nil {
		t.Fatal(err)
	}
	out := cf.PredictColumns(cols, nil)
	for i, p := range cf.Predict(x) {
		if p != out[i] {
			t.Fatalf("width %d: prediction %d is %v from the matrix, %v from the columns", workers, i, p, out[i])
		}
	}
	return out
}

// TestEnsemblesDeterministicAcrossPoolWidths requires that the parallelized
// tree/forest/GBT/k-NN kernels produce bit-identical models and predictions
// at pool widths 1, 2 and 8 for a fixed seed, through Fit and, for the tree
// learners, through FitColumns and PredictColumns. The tree learners' shape
// puts the upper nodes of a tree above parallelSplitWork and the lower ones
// below it, so a tree mixes histograms filled on the pool, filled on the
// caller and derived by subtraction.
func TestEnsemblesDeterministicAcrossPoolWidths(t *testing.T) {
	cases := []struct {
		name       string
		rows, cols int
		mk         func() Model
	}{
		{"tree", 3000, 40, func() Model { return NewDecisionTree(3) }},
		{"rf", 3000, 40, func() Model {
			r := NewRandomForest(3)
			r.NTrees = 8
			return r
		}},
		{"gbt", 3000, 40, func() Model {
			g := NewGBT(3)
			g.NTrees = 8
			return g
		}},
		{"knn", 1500, 25, func() Model { return NewKNN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x, y := synthLinear(tc.rows, tc.cols, 11)
			for _, fit := range []func(*testing.T, int, func() Model, [][]float64, []float64) []float64{fitPredictAt, fitColumnsPredictAt} {
				seq := fit(t, 1, tc.mk, x, y)
				for _, width := range []int{2, 8} {
					par := fit(t, width, tc.mk, x, y)
					for i := range seq {
						if seq[i] != par[i] {
							t.Fatalf("prediction %d differs between pool widths 1 and %d: %v vs %v", i, width, seq[i], par[i])
						}
					}
				}
			}
		})
	}
}

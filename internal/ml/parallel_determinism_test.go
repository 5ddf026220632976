package ml

import (
	"testing"

	"repro/internal/parallel"
)

// fitPredictAt fits the given fresh model under the given pool width on the
// given rows of fresh columns over x, so the columns are binned at this pool
// width too, and returns its predictions on every row.
func fitPredictAt(t *testing.T, workers int, mk func() Model, x [][]float64, y []float64, rows []int) []float64 {
	t.Helper()
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)
	m := mk()
	cols, _ := matrixColumns(x)
	if err := m.Fit(cols, rows, y); err != nil {
		t.Fatal(err)
	}
	return m.Predict(cols, nil)
}

// TestEnsemblesDeterministicAcrossPoolWidths requires that the parallelized
// tree/forest/GBT/k-NN kernels produce bit-identical models and predictions
// at pool widths 1, 2 and 8 for a fixed seed, fitted on every row and on the
// odd rows. The tree learners' shape
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
			_, all := matrixColumns(x)
			var odd []int
			for i := 1; i < len(x); i += 2 {
				odd = append(odd, i)
			}
			for _, rows := range [][]int{all, odd} {
				seq := fitPredictAt(t, 1, tc.mk, x, y, rows)
				for _, width := range []int{2, 8} {
					par := fitPredictAt(t, width, tc.mk, x, y, rows)
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

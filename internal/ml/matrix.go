// Package ml is the from-scratch machine-learning substrate of this
// repository — the scikit-learn stand-in. It provides linear models
// (warmstartable gradient descent: logistic and linear regression, a linear
// SVM), decision trees, gradient-boosted trees, random forests, k-NN and
// Gaussian naive Bayes, which all train on and score a frame's columns
// (Model); preprocessing transforms, which read a frame's columns too and
// return their output column-major (scalers, SelectKBest, count-vectorizer,
// PCA, k-means); and evaluation metrics (AUC-ROC, accuracy, log-loss, RMSE).
//
// All learners are deterministic given their Seed parameter, which the
// experiment harness relies on for reproducibility.
package ml

import (
	"fmt"
	"math"

	"repro/internal/data"
)

// checkRows validates the arguments of Fit: there are rows to train on, and
// every column present is as long as y.
func checkRows(kind string, cols []*data.Column, rows []int, y []float64) error {
	if len(rows) == 0 {
		return fmt.Errorf("ml: %s: no training rows", kind)
	}
	for _, c := range cols {
		if c != nil && c.Len() != len(y) {
			return fmt.Errorf("ml: %s: a feature column and the target differ in length", kind)
		}
	}
	return nil
}

// gather returns the given rows of cols (every row when rows is nil), n of
// them, as one column-major block: feature j is block[j*n : (j+1)*n],
// converted as data.Column.FillNumeric converts it, and a nil column reads
// as zeros.
func gather(cols []*data.Column, rows []int, n int) []float64 {
	block := make([]float64, n*len(cols))
	for j, c := range cols {
		if c != nil {
			c.FillNumeric(block[j*n:], 1, rows)
		}
	}
	return block
}

// eachColumn calls fn with every row of each of cols in turn, n floats
// converted as gather converts them, in one scratch vector.
func eachColumn(cols []*data.Column, n int, fn func(j int, x []float64)) {
	x := make([]float64, n)
	for j, c := range cols {
		if c == nil {
			clear(x)
		} else {
			c.FillNumeric(x, 1, nil)
		}
		fn(j, x)
	}
}

// rowAt copies row i of the column-major block x of n rows into dst, one
// value per feature.
func rowAt(dst, x []float64, n, i int) {
	for j := range dst {
		dst[j] = x[j*n+i]
	}
}

// targets returns the target of each of rows, in their order.
func targets(y []float64, rows []int) []float64 {
	out := make([]float64, len(rows))
	for k, i := range rows {
		out[k] = y[i]
	}
	return out
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		e := math.Exp(-z)
		return 1 / (1 + e)
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// columnStats returns the mean and the standard deviation of x, each sum
// taken in order. A standard deviation below 1e-12 reads as 1, so a
// constant feature, whose computed deviation is 0 or a rounding residue of
// its mean, is only centred by those who divide by it.
func columnStats(x []float64) (mean, std float64) {
	for _, v := range x {
		mean += v
	}
	n := float64(len(x))
	mean /= n
	for _, v := range x {
		d := v - mean
		std += d * d
	}
	if std = math.Sqrt(std / n); std < 1e-12 {
		std = 1
	}
	return mean, std
}

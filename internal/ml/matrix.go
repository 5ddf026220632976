// Package ml is the from-scratch machine-learning substrate of this
// repository — the scikit-learn stand-in. It provides linear models
// (warmstartable gradient descent: logistic and linear regression, a linear
// SVM), decision trees, gradient-boosted trees, random forests, k-NN and
// Gaussian naive Bayes, which all train on and score a frame's columns
// (Model); preprocessing transforms on a row-major matrix (scalers,
// SelectKBest, count-vectorizer, PCA, k-means); and evaluation metrics
// (AUC-ROC, accuracy, log-loss, RMSE).
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

// trainingRows is the training set of a learner that fits a row-major
// matrix: the given rows of cols as data.NumericRows converts them, and
// their targets.
func trainingRows(kind string, cols []*data.Column, rows []int, y []float64) ([][]float64, []float64, error) {
	if err := checkRows(kind, cols, rows, y); err != nil {
		return nil, nil, err
	}
	return data.NumericRows(cols, rows), targets(y, rows), nil
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

func clone2D(m [][]float64) [][]float64 {
	out := make([][]float64, len(m))
	flat := make([]float64, 0, len(m)*cols2D(m))
	for i, row := range m {
		flat = append(flat, row...)
		out[i] = flat[len(flat)-len(row):]
	}
	return out
}

func cols2D(m [][]float64) int {
	if len(m) == 0 {
		return 0
	}
	return len(m[0])
}

// mean and std per column; std floor avoids division by zero.
func columnStats(x [][]float64) (mean, std []float64) {
	if len(x) == 0 {
		return nil, nil
	}
	d := len(x[0])
	mean = make([]float64, d)
	std = make([]float64, d)
	for _, row := range x {
		for j, v := range row {
			mean[j] += v
		}
	}
	n := float64(len(x))
	for j := range mean {
		mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			dlt := v - mean[j]
			std[j] += dlt * dlt
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / n)
		if std[j] < 1e-12 {
			std[j] = 1
		}
	}
	return mean, std
}

package ml

import "repro/internal/data"

// Model is the common interface of every trainable learner in the package.
// Fit trains on a dense feature matrix X and target vector y; Predict
// returns one prediction per row (a probability of the positive class for
// classifiers, a real value for regressors).
type Model interface {
	// Kind returns a short type label ("logreg", "gbt", ...). Warmstart
	// candidate search matches on Kind (§6.2).
	Kind() string
	// Fit trains the model. It must be callable repeatedly; each call
	// retrains from the current state (which matters for warmstarted
	// models).
	Fit(x [][]float64, y []float64) error
	// Predict scores each row of x.
	Predict(x [][]float64) []float64
	// SizeBytes reports the storage footprint of the fitted parameters.
	SizeBytes() int64
}

// ColumnFitter is implemented by the learners that train on a frame's columns
// instead of on a row-major float matrix: cols are the feature columns, rows
// the frame rows to train on, and y the target of every row of the frame,
// indexed like the columns. The tree learners train on the columns' quantile
// views (data.Column.Quantiles), built once and kept with the column, so
// every fit after the first on the same columns starts from bins that
// already exist; logistic regression gathers the training rows into one
// column-major block per fit. Fit on such a model calls FitColumns on the
// matrix's columns and all of its rows.
//
// PredictColumns scores the given rows of cols, in their order (every row
// when rows is nil), reading the columns where they lie: it returns what
// Predict returns on data.Frame.NumericRows of the same columns and rows,
// bit for bit, without that matrix. A nil column — a feature the frame lacks
// — reads as zeros, as a missing value does; with rows nil at least one
// column must be present to say how many rows there are.
type ColumnFitter interface {
	Model
	FitColumns(cols []*data.Column, rows []int, y []float64) error
	PredictColumns(cols []*data.Column, rows []int) []float64
}

// Warmstarter is implemented by models whose training can be initialized
// from a previously fitted model of the same kind instead of from scratch
// (§6.2 of the paper). WarmstartFrom reports whether the donor was
// compatible and the state was adopted.
type Warmstarter interface {
	WarmstartFrom(donor Model) bool
}

// Transformer is a fitted feature transform (scaler, selector, PCA, ...):
// Fit learns the transform parameters, Transform applies them.
type Transformer interface {
	Kind() string
	Fit(x [][]float64, y []float64) error
	Transform(x [][]float64) [][]float64
	SizeBytes() int64
}

package ml

import "repro/internal/data"

// Model is the common interface of every trainable learner in the package.
// A learner trains on and scores a frame's columns: cols are the feature
// columns, in the order of the model's features, and rows the frame rows to
// read. A nil column — a feature the frame lacks — reads as zeros, as a
// missing value and a non-numeric cell do (data.Column.FillNumeric); only
// the tree learners, which bin every feature they train on, refuse one in
// Fit.
type Model interface {
	// Kind returns a short type label ("logreg", "gbt", ...). Warmstart
	// candidate search matches on Kind (§6.2).
	Kind() string
	// Fit trains the model on the given rows of cols, against y, the
	// target of every row of the frame, indexed like the columns. It must
	// be callable repeatedly; each call retrains from the current state
	// (which matters for warmstarted models). The tree learners train on
	// the columns' quantile views (data.Column.Quantiles), built once and
	// kept with the column, so every fit after the first on the same
	// columns starts from bins that already exist; the linear models and
	// naive Bayes gather the training rows into one column-major block per
	// fit, and k-NN copies them into its row-major TrainX, the parameter it
	// keeps.
	Fit(cols []*data.Column, rows []int, y []float64) error
	// Predict scores the given rows of cols, in their order (every row
	// when rows is nil): a probability of the positive class for
	// classifiers, a real value for regressors. With rows nil the first
	// column present says how many rows there are, so columns that are
	// all nil score no row.
	Predict(cols []*data.Column, rows []int) []float64
	// SizeBytes reports the storage footprint of the fitted parameters.
	SizeBytes() int64
}

// Warmstarter is implemented by models whose training can be initialized
// from a previously fitted model of the same kind instead of from scratch
// (§6.2 of the paper). WarmstartFrom reports whether the donor was
// compatible and the state was adopted.
type Warmstarter interface {
	WarmstartFrom(donor Model) bool
}

// Transformer is a feature transform fitted on a frame's columns (a scaler,
// PCA, k-means): Fit learns its parameters from cols, the feature columns,
// and Transform returns its output on cols column-major, n rows per output
// feature. n is the frame's row count, which a frame holding none of the
// features still has. Cells convert as data.Column.FillNumeric converts
// them, and a nil column reads as zeros.
type Transformer interface {
	Fit(cols []*data.Column, n int) error
	Transform(cols []*data.Column, n int) []float64
}

package ml

import (
	"errors"
	"math"
	"math/rand"
)

// LogisticRegression is a binary classifier trained by full-batch gradient
// descent on the regularized log-loss. It supports warmstarting: training
// initialized from a previously fitted weight vector converges in fewer
// epochs, which is the mechanism behind Figure 10 of the paper.
type LogisticRegression struct {
	// LearningRate is the gradient-descent step size. Default 0.1.
	LearningRate float64
	// MaxIter caps the number of epochs. Default 100.
	MaxIter int
	// Tol stops training when the absolute loss improvement drops below
	// it. Default 1e-6.
	Tol float64
	// L2 is the ridge penalty coefficient. Default 0.
	L2 float64
	// Seed controls weight initialization.
	Seed int64

	// Weights and Bias are the fitted parameters (d weights + intercept).
	Weights []float64
	Bias    float64

	// EpochsRun records how many epochs the last Fit call performed;
	// exposed so experiments can demonstrate the warmstart saving.
	EpochsRun int
}

// NewLogisticRegression returns a logistic regression with the package
// defaults and the given seed.
func NewLogisticRegression(seed int64) *LogisticRegression {
	return &LogisticRegression{LearningRate: 0.1, MaxIter: 100, Tol: 1e-6, Seed: seed}
}

// Kind implements Model.
func (m *LogisticRegression) Kind() string { return "logreg" }

// WarmstartFrom adopts the donor's weights when it is a fitted
// LogisticRegression of the same dimensionality-to-be (checked lazily at
// Fit). It implements Warmstarter.
func (m *LogisticRegression) WarmstartFrom(donor Model) bool {
	d, ok := donor.(*LogisticRegression)
	if !ok || d.Weights == nil {
		return false
	}
	m.Weights = append([]float64(nil), d.Weights...)
	m.Bias = d.Bias
	return true
}

// Fit implements Model.
func (m *LogisticRegression) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return errors.New("ml: logreg: empty or mismatched training data")
	}
	d := len(x[0])
	if m.LearningRate == 0 {
		m.LearningRate = 0.1
	}
	if m.MaxIter == 0 {
		m.MaxIter = 100
	}
	if m.Tol == 0 {
		m.Tol = 1e-6
	}
	if m.Weights == nil || len(m.Weights) != d {
		rng := rand.New(rand.NewSource(m.Seed))
		m.Weights = make([]float64, d)
		for j := range m.Weights {
			m.Weights[j] = rng.NormFloat64() * 0.01
		}
		m.Bias = 0
	}
	n := float64(len(x))
	grad := make([]float64, d)
	prevLoss := math.Inf(1)
	m.EpochsRun = 0
	for epoch := 0; epoch < m.MaxIter; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		var gradB, loss float64
		for i, row := range x {
			p := sigmoid(dot(m.Weights, row) + m.Bias)
			e := p - y[i]
			for j, v := range row {
				grad[j] += e * v
			}
			gradB += e
			loss += crossEntropy(y[i], p)
		}
		loss /= n
		for j := range m.Weights {
			loss += 0.5 * m.L2 * m.Weights[j] * m.Weights[j]
			m.Weights[j] -= m.LearningRate * (grad[j]/n + m.L2*m.Weights[j])
		}
		m.Bias -= m.LearningRate * gradB / n
		m.EpochsRun++
		if math.Abs(prevLoss-loss) < m.Tol {
			break
		}
		prevLoss = loss
	}
	return nil
}

// Predict implements Model, returning P(y=1) per row.
func (m *LogisticRegression) Predict(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = sigmoid(dot(m.Weights, row) + m.Bias)
	}
	return out
}

// SizeBytes implements Model.
func (m *LogisticRegression) SizeBytes() int64 {
	return int64(len(m.Weights))*8 + 8
}

// LinearRegression is ordinary least squares trained by full-batch gradient
// descent, warmstartable like LogisticRegression.
type LinearRegression struct {
	LearningRate float64
	MaxIter      int
	Tol          float64
	L2           float64
	Seed         int64

	Weights []float64
	Bias    float64
	// EpochsRun records the epoch count of the last Fit call.
	EpochsRun int
}

// NewLinearRegression returns a linear regression with package defaults.
func NewLinearRegression(seed int64) *LinearRegression {
	return &LinearRegression{LearningRate: 0.05, MaxIter: 200, Tol: 1e-8, Seed: seed}
}

// Kind implements Model.
func (m *LinearRegression) Kind() string { return "linreg" }

// WarmstartFrom implements Warmstarter.
func (m *LinearRegression) WarmstartFrom(donor Model) bool {
	d, ok := donor.(*LinearRegression)
	if !ok || d.Weights == nil {
		return false
	}
	m.Weights = append([]float64(nil), d.Weights...)
	m.Bias = d.Bias
	return true
}

// Fit implements Model.
func (m *LinearRegression) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return errors.New("ml: linreg: empty or mismatched training data")
	}
	d := len(x[0])
	if m.LearningRate == 0 {
		m.LearningRate = 0.05
	}
	if m.MaxIter == 0 {
		m.MaxIter = 200
	}
	if m.Tol == 0 {
		m.Tol = 1e-8
	}
	if m.Weights == nil || len(m.Weights) != d {
		m.Weights = make([]float64, d)
		m.Bias = 0
	}
	n := float64(len(x))
	grad := make([]float64, d)
	prevLoss := math.Inf(1)
	m.EpochsRun = 0
	for epoch := 0; epoch < m.MaxIter; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		var gradB, loss float64
		for i, row := range x {
			e := dot(m.Weights, row) + m.Bias - y[i]
			for j, v := range row {
				grad[j] += e * v
			}
			gradB += e
			loss += e * e
		}
		loss /= 2 * n
		for j := range m.Weights {
			m.Weights[j] -= m.LearningRate * (grad[j]/n + m.L2*m.Weights[j])
		}
		m.Bias -= m.LearningRate * gradB / n
		m.EpochsRun++
		if math.Abs(prevLoss-loss) < m.Tol {
			break
		}
		prevLoss = loss
	}
	return nil
}

// Predict implements Model.
func (m *LinearRegression) Predict(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = dot(m.Weights, row) + m.Bias
	}
	return out
}

// SizeBytes implements Model.
func (m *LinearRegression) SizeBytes() int64 {
	return int64(len(m.Weights))*8 + 8
}

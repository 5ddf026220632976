package ml

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/data"
)

// GaussianNB is a Gaussian naive-Bayes binary classifier: per-class
// feature means/variances with a shared prior.
type GaussianNB struct {
	// VarSmoothing is added to every variance for stability. Default
	// 1e-9 of the largest feature variance.
	VarSmoothing float64

	// Fitted parameters (exported for serialization): index 0 = class 0.
	Mean  [2][]float64
	Var   [2][]float64
	Prior [2]float64
}

// NewGaussianNB returns a Gaussian naive-Bayes classifier.
func NewGaussianNB() *GaussianNB { return &GaussianNB{} }

// Kind implements Model.
func (m *GaussianNB) Kind() string { return "nb" }

// Fit implements Model.
func (m *GaussianNB) Fit(cols []*data.Column, rows []int, y []float64) error {
	x, y, err := trainingRows(m.Kind(), cols, rows, y)
	if err != nil {
		return err
	}
	d := len(cols)
	var count [2]float64
	for c := 0; c < 2; c++ {
		m.Mean[c] = make([]float64, d)
		m.Var[c] = make([]float64, d)
	}
	for i, row := range x {
		c := 0
		if y[i] >= 0.5 {
			c = 1
		}
		count[c]++
		for j, v := range row {
			m.Mean[c][j] += v
		}
	}
	for c := 0; c < 2; c++ {
		if count[c] == 0 {
			count[c] = 1
		}
		for j := range m.Mean[c] {
			m.Mean[c][j] /= count[c]
		}
	}
	var maxVar float64
	for i, row := range x {
		c := 0
		if y[i] >= 0.5 {
			c = 1
		}
		for j, v := range row {
			dlt := v - m.Mean[c][j]
			m.Var[c][j] += dlt * dlt
		}
	}
	for c := 0; c < 2; c++ {
		for j := range m.Var[c] {
			m.Var[c][j] /= count[c]
			if m.Var[c][j] > maxVar {
				maxVar = m.Var[c][j]
			}
		}
	}
	smooth := m.VarSmoothing
	if smooth == 0 {
		smooth = 1e-9 * math.Max(maxVar, 1)
	}
	for c := 0; c < 2; c++ {
		for j := range m.Var[c] {
			m.Var[c][j] += smooth
		}
	}
	total := count[0] + count[1]
	m.Prior[0] = count[0] / total
	m.Prior[1] = count[1] / total
	return nil
}

// Predict implements Model, returning P(y=1|x).
func (m *GaussianNB) Predict(cols []*data.Column, rows []int) []float64 {
	x := data.NumericRows(cols, rows)
	out := make([]float64, len(x))
	for i, row := range x {
		var logp [2]float64
		for c := 0; c < 2; c++ {
			lp := math.Log(math.Max(m.Prior[c], 1e-12))
			for j, v := range row {
				dlt := v - m.Mean[c][j]
				lp += -0.5*math.Log(2*math.Pi*m.Var[c][j]) - dlt*dlt/(2*m.Var[c][j])
			}
			logp[c] = lp
		}
		// stable softmax over two classes
		mx := math.Max(logp[0], logp[1])
		e0 := math.Exp(logp[0] - mx)
		e1 := math.Exp(logp[1] - mx)
		out[i] = e1 / (e0 + e1)
	}
	return out
}

// SizeBytes implements Model.
func (m *GaussianNB) SizeBytes() int64 {
	return int64(len(m.Mean[0])+len(m.Mean[1])+len(m.Var[0])+len(m.Var[1]))*8 + 16
}

// LinearSVM is a linear support-vector classifier trained with
// sub-gradient descent on the L2-regularized hinge loss (Pegasos-style).
// It is warmstartable like the other linear models.
type LinearSVM struct {
	// Lambda is the regularization strength. Default 1e-3.
	Lambda float64
	// MaxIter caps the number of epochs. Default 100.
	MaxIter int
	// Tol stops training when the objective improvement drops below it.
	// Default 1e-6.
	Tol float64
	// Seed controls initialization.
	Seed int64

	Weights []float64
	Bias    float64
	// EpochsRun records the epoch count of the last Fit call.
	EpochsRun int
}

// NewLinearSVM returns a linear SVM with package defaults.
func NewLinearSVM(seed int64) *LinearSVM {
	return &LinearSVM{Lambda: 1e-3, MaxIter: 100, Tol: 1e-6, Seed: seed}
}

// Kind implements Model.
func (m *LinearSVM) Kind() string { return "svm" }

// WarmstartFrom implements Warmstarter.
func (m *LinearSVM) WarmstartFrom(donor Model) bool {
	d, ok := donor.(*LinearSVM)
	if !ok || d.Weights == nil {
		return false
	}
	m.Weights = append([]float64(nil), d.Weights...)
	m.Bias = d.Bias
	return true
}

// Fit implements Model.
func (m *LinearSVM) Fit(cols []*data.Column, rows []int, y []float64) error {
	x, y, err := trainingRows(m.Kind(), cols, rows, y)
	if err != nil {
		return err
	}
	d := len(cols)
	if m.Lambda == 0 {
		m.Lambda = 1e-3
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
	prevObj := math.Inf(1)
	m.EpochsRun = 0
	for epoch := 0; epoch < m.MaxIter; epoch++ {
		lr := 1 / (m.Lambda * float64(epoch+2))
		for j := range grad {
			grad[j] = m.Lambda * m.Weights[j]
		}
		var gradB, obj float64
		for i, row := range x {
			// labels in {-1, +1}
			t := 2*y[i] - 1
			margin := t * (dot(m.Weights, row) + m.Bias)
			if margin < 1 {
				obj += 1 - margin
				for j, v := range row {
					grad[j] -= t * v / n
				}
				gradB -= t / n
			}
		}
		obj = obj/n + 0.5*m.Lambda*dot(m.Weights, m.Weights)
		for j := range m.Weights {
			m.Weights[j] -= lr * grad[j]
		}
		m.Bias -= lr * gradB
		m.EpochsRun++
		if math.Abs(prevObj-obj) < m.Tol {
			break
		}
		prevObj = obj
	}
	return nil
}

// Predict implements Model, mapping the margin through a sigmoid so the
// score is a probability-like value in (0,1).
func (m *LinearSVM) Predict(cols []*data.Column, rows []int) []float64 {
	return linearScores(m.Weights, m.Bias, cols, rows, sigmoid)
}

// SizeBytes implements Model.
func (m *LinearSVM) SizeBytes() int64 { return int64(len(m.Weights))*8 + 8 }

// KMeans clusters rows into K groups (Lloyd's algorithm) and doubles as a
// feature transform: Transform returns the distance of each row to every
// centroid.
type KMeans struct {
	// K is the cluster count. Default 4.
	K int
	// MaxIter caps Lloyd iterations. Default 50.
	MaxIter int
	// Seed drives centroid initialization.
	Seed int64

	// Centroids are the fitted cluster centers.
	Centroids [][]float64
}

// NewKMeans returns a K-means transform with package defaults.
func NewKMeans(k int, seed int64) *KMeans { return &KMeans{K: k, MaxIter: 50, Seed: seed} }

// Kind implements Transformer.
func (m *KMeans) Kind() string { return "kmeans" }

// Fit implements Transformer (the label is ignored).
func (m *KMeans) Fit(x [][]float64, _ []float64) error {
	if len(x) == 0 {
		return errors.New("ml: kmeans: empty data")
	}
	if m.K <= 0 {
		m.K = 4
	}
	if m.K > len(x) {
		m.K = len(x)
	}
	if m.MaxIter == 0 {
		m.MaxIter = 50
	}
	rng := rand.New(rand.NewSource(m.Seed))
	d := len(x[0])
	// init: distinct random rows
	perm := rng.Perm(len(x))
	m.Centroids = make([][]float64, m.K)
	for c := 0; c < m.K; c++ {
		m.Centroids[c] = append([]float64(nil), x[perm[c]]...)
	}
	assign := make([]int, len(x))
	counts := make([]float64, m.K)
	for it := 0; it < m.MaxIter; it++ {
		changed := false
		for i, row := range x {
			best, bestD := 0, math.Inf(1)
			for c, cent := range m.Centroids {
				dist := sqDist(row, cent)
				if dist < bestD {
					best, bestD = c, dist
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && it > 0 {
			break
		}
		for c := range m.Centroids {
			counts[c] = 0
			for j := 0; j < d; j++ {
				m.Centroids[c][j] = 0
			}
		}
		for i, row := range x {
			c := assign[i]
			counts[c]++
			for j, v := range row {
				m.Centroids[c][j] += v
			}
		}
		for c := range m.Centroids {
			if counts[c] == 0 {
				// re-seed an empty cluster
				copy(m.Centroids[c], x[rng.Intn(len(x))])
				continue
			}
			for j := range m.Centroids[c] {
				m.Centroids[c][j] /= counts[c]
			}
		}
	}
	return nil
}

// Transform implements Transformer: each row becomes its distances to the
// K centroids.
func (m *KMeans) Transform(x [][]float64) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		dists := make([]float64, len(m.Centroids))
		for c, cent := range m.Centroids {
			dists[c] = math.Sqrt(sqDist(row, cent))
		}
		out[i] = dists
	}
	return out
}

// Assign returns the nearest-centroid index per row.
func (m *KMeans) Assign(x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		best, bestD := 0, math.Inf(1)
		for c, cent := range m.Centroids {
			if dist := sqDist(row, cent); dist < bestD {
				best, bestD = c, dist
			}
		}
		out[i] = best
	}
	return out
}

// SizeBytes implements Transformer.
func (m *KMeans) SizeBytes() int64 {
	var n int64
	for _, c := range m.Centroids {
		n += int64(len(c)) * 8
	}
	return n
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

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

// Fit implements Model. Means and variances are taken feature by feature
// over the block of training rows, each sum in row order.
func (m *GaussianNB) Fit(cols []*data.Column, rows []int, y []float64) error {
	if err := checkRows(m.Kind(), cols, rows, y); err != nil {
		return err
	}
	n, d := len(rows), len(cols)
	x, y := gather(cols, rows, n), targets(y, rows)
	class := make([]int, n)
	var count [2]float64
	for i, yi := range y {
		if yi >= 0.5 {
			class[i] = 1
		}
		count[class[i]]++
	}
	for c := 0; c < 2; c++ {
		m.Mean[c] = make([]float64, d)
		m.Var[c] = make([]float64, d)
		if count[c] == 0 {
			count[c] = 1
		}
	}
	for j := 0; j < d; j++ {
		col := x[j*n:][:n]
		for i, v := range col {
			m.Mean[class[i]][j] += v
		}
		for c := 0; c < 2; c++ {
			m.Mean[c][j] /= count[c]
		}
		for i, v := range col {
			dlt := v - m.Mean[class[i]][j]
			m.Var[class[i]][j] += dlt * dlt
		}
	}
	var maxVar float64
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

// Predict implements Model, returning P(y=1|x). A row's log-likelihood
// adds its features in order, reading the cells where they lie.
func (m *GaussianNB) Predict(cols []*data.Column, rows []int) []float64 {
	return scoreColumns(cols, rows, func(i int) float64 {
		var logp [2]float64
		for c := 0; c < 2; c++ {
			lp := math.Log(math.Max(m.Prior[c], 1e-12))
			for j := range cols {
				dlt := valueAt(cols, j, i) - m.Mean[c][j]
				lp += -0.5*math.Log(2*math.Pi*m.Var[c][j]) - dlt*dlt/(2*m.Var[c][j])
			}
			logp[c] = lp
		}
		// stable softmax over two classes
		mx := math.Max(logp[0], logp[1])
		e0 := math.Exp(logp[0] - mx)
		e1 := math.Exp(logp[1] - mx)
		return e1 / (e0 + e1)
	})
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

// Fit implements Model. The margins of an epoch are logistic regression's
// (margins); each weight's sub-gradient starts at λ·w[j] and subtracts
// t·v/n for each row inside the margin, in row order.
func (m *LinearSVM) Fit(cols []*data.Column, rows []int, y []float64) error {
	if err := checkRows(m.Kind(), cols, rows, y); err != nil {
		return err
	}
	n, d := len(rows), len(cols)
	x, y := gather(cols, rows, n), targets(y, rows)
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
	nf := float64(n)
	grad := make([]float64, d)
	z := make([]float64, n)
	active := make([]int, 0, n) // the rows inside the margin
	prevObj := math.Inf(1)
	m.EpochsRun = 0
	for epoch := 0; epoch < m.MaxIter; epoch++ {
		lr := 1 / (m.Lambda * float64(epoch+2))
		margins(z, x, m.Weights)
		var gradB, obj float64
		active = active[:0]
		for i, zi := range z {
			// labels in {-1, +1}
			t := 2*y[i] - 1
			margin := t * (zi + m.Bias)
			if margin < 1 {
				obj += 1 - margin
				gradB -= t / nf
				active = append(active, i)
			}
		}
		for j := range grad {
			g, c := m.Lambda*m.Weights[j], x[j*n:][:n]
			for _, i := range active {
				g -= (2*y[i] - 1) * c[i] / nf
			}
			grad[j] = g
		}
		obj = obj/nf + 0.5*m.Lambda*dot(m.Weights, m.Weights)
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

// Fit implements Transformer.
func (m *KMeans) Fit(cols []*data.Column, n int) error {
	if n == 0 {
		return errors.New("ml: kmeans: empty data")
	}
	if m.K <= 0 {
		m.K = 4
	}
	if m.K > n {
		m.K = n
	}
	if m.MaxIter == 0 {
		m.MaxIter = 50
	}
	rng := rand.New(rand.NewSource(m.Seed))
	d := len(cols)
	x := gather(cols, nil, n)
	// init: distinct random rows
	perm := rng.Perm(n)
	m.Centroids = make([][]float64, m.K)
	for c := range m.Centroids {
		m.Centroids[c] = make([]float64, d)
		rowAt(m.Centroids[c], x, n, perm[c])
	}
	assign := make([]int, n)
	counts := make([]float64, m.K)
	dist := make([]float64, m.K*n)
	for it := 0; it < m.MaxIter; it++ {
		m.sqDists(dist, x, n)
		changed := false
		for i := range assign {
			best, bestD := 0, math.Inf(1)
			for c := range m.Centroids {
				if dd := dist[c*n+i]; dd < bestD {
					best, bestD = c, dd
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
		clear(counts)
		for c := range m.Centroids {
			clear(m.Centroids[c])
		}
		for _, c := range assign {
			counts[c]++
		}
		for j := 0; j < d; j++ {
			for i, v := range x[j*n:][:n] {
				m.Centroids[assign[i]][j] += v
			}
		}
		for c := range m.Centroids {
			if counts[c] == 0 {
				// re-seed an empty cluster
				rowAt(m.Centroids[c], x, n, rng.Intn(n))
				continue
			}
			for j := range m.Centroids[c] {
				m.Centroids[c][j] /= counts[c]
			}
		}
	}
	return nil
}

// Transform implements Transformer: output feature c is each row's distance
// to centroid c.
func (m *KMeans) Transform(cols []*data.Column, n int) []float64 {
	out := make([]float64, len(m.Centroids)*n)
	m.sqDists(out, gather(cols, nil, n), n)
	for i, v := range out {
		out[i] = math.Sqrt(v)
	}
	return out
}

// sqDists sets out[c*n+i] to the squared distance of row i of the
// column-major block x of n rows to centroid c, its features added in order.
func (m *KMeans) sqDists(out, x []float64, n int) {
	for c, cent := range m.Centroids {
		o := out[c*n:][:n]
		clear(o)
		for j, cj := range cent {
			for i, v := range x[j*n:][:n] {
				dd := v - cj
				o[i] += dd * dd
			}
		}
	}
}

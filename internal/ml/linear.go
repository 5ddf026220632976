package ml

import (
	"math"
	"math/rand"

	"repro/internal/data"
)

// LogisticRegression is a binary classifier trained by full-batch gradient
// descent on the regularized log-loss. It supports warmstarting: training
// initialized from a previously fitted weight vector converges in fewer
// epochs, which is the mechanism behind Figure 10 of the paper. It trains
// and scores on a frame's columns with no row-major float matrix.
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

// Fit implements Model. The training rows are gathered once into one
// column-major block; a nil column trains as zeros.
func (m *LogisticRegression) Fit(cols []*data.Column, rows []int, y []float64) error {
	if err := checkRows(m.Kind(), cols, rows, y); err != nil {
		return err
	}
	m.fit(gather(cols, rows, len(rows)), len(cols), targets(y, rows))
	return nil
}

// fit is the epoch loop of Fit on the len(y) training rows of d
// features held column-major in x: feature j is x[j*n : (j+1)*n]. An epoch
// is three passes over x — margins, residuals, gradient — and takes every sum
// of the row-major loop it replaced in that loop's order, so weights, bias
// and predictions are bit for bit that loop's whenever the fit stops at the
// same epoch. Only the loss, which feeds nothing but the stopping test, is
// taken differently (see residuals).
func (m *LogisticRegression) fit(x []float64, d int, y []float64) {
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
	n := float64(len(y))
	grad := make([]float64, d)
	z := make([]float64, len(y)) // margins, then residuals
	prevLoss := math.Inf(1)
	m.EpochsRun = 0
	for epoch := 0; epoch < m.MaxIter; epoch++ {
		margins(z, x, m.Weights)
		gradB, loss := residuals(z, y, m.Bias)
		gradient(grad, x, z)
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
}

// margins sets z[i] to Σ_j w[j]·x_j[i], the features added in order as dot
// adds them, four columns per pass over z.
func margins(z, x, w []float64) {
	n := len(z)
	clear(z)
	j := 0
	for ; j+4 <= len(w); j += 4 {
		c0, c1, c2, c3 := x[j*n:][:n], x[(j+1)*n:][:n], x[(j+2)*n:][:n], x[(j+3)*n:][:n]
		w0, w1, w2, w3 := w[j], w[j+1], w[j+2], w[j+3]
		for i := range z {
			z[i] = z[i] + w0*c0[i] + w1*c1[i] + w2*c2[i] + w3*c3[i]
		}
	}
	for ; j < len(w); j++ {
		c, wj := x[j*n:][:n], w[j]
		for i := range z {
			z[i] += wj * c[i]
		}
	}
}

// residuals replaces each margin z[i] with the residual σ(z[i]+b) − y[i] and
// returns the residuals' sum, in row order, and the rows' summed log-loss.
// That loss takes one log per call, not one per row: the clamped likelihood
// factors of 0/1 labels are multiplied together and the product is logged
// once. Every 16 rows math.Frexp moves the product's exponent out; each
// factor is at least 1e-12, so sixteen of them on a mantissa in [0.5, 1)
// never reach a subnormal. Any other label adds its crossEntropy.
func residuals(z, y []float64, b float64) (sum, loss float64) {
	prod, exp := 1.0, 0
	var soft float64
	for lo := 0; lo < len(z); lo += 16 {
		hi := min(lo+16, len(z))
		zs, ys := z[lo:hi], y[lo:hi]
		for i, yi := range ys {
			p := sigmoid(zs[i] + b)
			e := p - yi
			zs[i] = e
			sum += e
			switch yi {
			case 1:
				prod *= clampProb(p)
			case 0:
				prod *= 1 - clampProb(p)
			default:
				soft += crossEntropy(yi, p)
			}
		}
		var k int
		prod, k = math.Frexp(prod)
		exp += k
	}
	return sum, soft - (math.Log(prod) + float64(exp)*math.Ln2)
}

// gradient sets g[j] to Σ_i r[i]·x_j[i], the rows added in order, as four
// interleaved column dot products per pass over r.
func gradient(g, x, r []float64) {
	n := len(r)
	j := 0
	for ; j+4 <= len(g); j += 4 {
		c0, c1, c2, c3 := x[j*n:][:n], x[(j+1)*n:][:n], x[(j+2)*n:][:n], x[(j+3)*n:][:n]
		var g0, g1, g2, g3 float64
		for i, e := range r {
			g0 += e * c0[i]
			g1 += e * c1[i]
			g2 += e * c2[i]
			g3 += e * c3[i]
		}
		g[j], g[j+1], g[j+2], g[j+3] = g0, g1, g2, g3
	}
	for ; j < len(g); j++ {
		c := x[j*n:][:n]
		var s float64
		for i, e := range r {
			s += e * c[i]
		}
		g[j] = s
	}
}

// Predict implements Model, returning P(y=1) per row.
func (m *LogisticRegression) Predict(cols []*data.Column, rows []int) []float64 {
	return linearScores(m.Weights, m.Bias, cols, rows, sigmoid)
}

// linearScores scores rows of cols with the linear model (w, b), reading the
// cells where they lie: a row's margin adds its features in order, as dot
// does, and link maps the margin plus b to the score.
func linearScores(w []float64, b float64, cols []*data.Column, rows []int, link func(float64) float64) []float64 {
	return scoreColumns(cols, rows, func(i int) float64 {
		var s float64
		for j, wj := range w {
			s += wj * valueAt(cols, j, i)
		}
		return link(s + b)
	})
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

// Fit implements Model. The descent runs on the features standardized over
// the training rows, so that one step size suits features of any scale, and
// the fitted weights are folded back into raw feature space: Weights, Bias,
// Predict and a warmstart donor's weights all read raw features. A feature
// whose standard deviation is below columnStats' floor is only centred.
// An epoch is logistic regression's three passes over the block: margins,
// residuals, gradient.
func (m *LinearRegression) Fit(cols []*data.Column, rows []int, y []float64) error {
	if err := checkRows(m.Kind(), cols, rows, y); err != nil {
		return err
	}
	n, d := len(rows), len(cols)
	x, y := gather(cols, rows, n), targets(y, rows)
	mean, scale := make([]float64, d), make([]float64, d)
	for j := range mean {
		c := x[j*n:][:n]
		mean[j], scale[j] = columnStats(c)
		for i, v := range c {
			c[i] = (v - mean[j]) / scale[j]
		}
	}
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
	// w, b are the model in standardized space, starting from the current
	// (a donor's, or zero) raw-space weights.
	w, b := make([]float64, d), m.Bias
	for j := range w {
		w[j] = m.Weights[j] * scale[j]
		b += m.Weights[j] * mean[j]
	}
	nf := float64(n)
	grad := make([]float64, d)
	z := make([]float64, n) // margins, then residuals
	prevLoss := math.Inf(1)
	m.EpochsRun = 0
	for epoch := 0; epoch < m.MaxIter; epoch++ {
		margins(z, x, w)
		var gradB, loss float64
		for i, zi := range z {
			e := zi + b - y[i]
			z[i] = e
			gradB += e
			loss += e * e
		}
		gradient(grad, x, z)
		loss /= 2 * nf
		for j := range w {
			w[j] -= m.LearningRate * (grad[j]/nf + m.L2*w[j])
		}
		b -= m.LearningRate * gradB / nf
		m.EpochsRun++
		if math.Abs(prevLoss-loss) < m.Tol {
			break
		}
		prevLoss = loss
	}
	for j := range w {
		m.Weights[j] = w[j] / scale[j]
		b -= m.Weights[j] * mean[j]
	}
	m.Bias = b
	return nil
}

// Predict implements Model.
func (m *LinearRegression) Predict(cols []*data.Column, rows []int) []float64 {
	return linearScores(m.Weights, m.Bias, cols, rows, func(z float64) float64 { return z })
}

// SizeBytes implements Model.
func (m *LinearRegression) SizeBytes() int64 {
	return int64(len(m.Weights))*8 + 8
}

package ml

import (
	"errors"
	"math"
	"sort"

	"repro/internal/data"
)

// StandardScaler standardizes features to zero mean and unit variance.
type StandardScaler struct {
	Mean []float64
	Std  []float64
}

// Fit implements Transformer.
func (s *StandardScaler) Fit(cols []*data.Column, n int) error {
	if n == 0 {
		return errors.New("ml: scaler: empty data")
	}
	s.Mean, s.Std = make([]float64, len(cols)), make([]float64, len(cols))
	eachColumn(cols, n, func(j int, x []float64) {
		s.Mean[j], s.Std[j] = columnStats(x)
	})
	return nil
}

// Transform implements Transformer.
func (s *StandardScaler) Transform(cols []*data.Column, n int) []float64 {
	x := gather(cols, nil, n)
	for j := range cols {
		c := x[j*n:][:n]
		for i, v := range c {
			c[i] = (v - s.Mean[j]) / s.Std[j]
		}
	}
	return x
}

// MinMaxScaler rescales features into [0,1].
type MinMaxScaler struct {
	Min []float64
	Max []float64
}

// Fit implements Transformer.
func (s *MinMaxScaler) Fit(cols []*data.Column, n int) error {
	if n == 0 {
		return errors.New("ml: minmax: empty data")
	}
	s.Min, s.Max = make([]float64, len(cols)), make([]float64, len(cols))
	eachColumn(cols, n, func(j int, x []float64) {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range x {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		s.Min[j], s.Max[j] = lo, hi
	})
	return nil
}

// Transform implements Transformer. A constant feature maps to 0.
func (s *MinMaxScaler) Transform(cols []*data.Column, n int) []float64 {
	x := gather(cols, nil, n)
	for j := range cols {
		c, span := x[j*n:][:n], s.Max[j]-s.Min[j]
		for i, v := range c {
			if span <= 0 {
				c[i] = 0
			} else {
				c[i] = (v - s.Min[j]) / span
			}
		}
	}
	return x
}

// SelectKBest keeps the K features with the highest absolute Pearson
// correlation with the target (a univariate filter like sklearn's).
type SelectKBest struct {
	// K is the number of features to keep.
	K int
	// Indices are the selected feature indices after Fit, ascending.
	Indices []int
	// Scores are the per-feature absolute correlations after Fit.
	Scores []float64
}

// Fit scores each of cols, one at a time, against y, the target of every
// row, and selects the K best.
func (s *SelectKBest) Fit(cols []*data.Column, y []float64) error {
	n, d := len(y), len(cols)
	mismatched := false
	for _, c := range cols {
		mismatched = mismatched || c != nil && c.Len() != n
	}
	if n == 0 || mismatched {
		return errors.New("ml: selectkbest: empty or mismatched data")
	}
	if s.K <= 0 || s.K > d {
		s.K = d
	}
	my, sy := columnStats(y)
	s.Scores = make([]float64, d)
	eachColumn(cols, n, func(j int, x []float64) {
		mean, std := columnStats(x)
		var cov float64
		for i, v := range x {
			cov += (v - mean) * (y[i] - my)
		}
		cov /= float64(n)
		s.Scores[j] = math.Abs(cov / (std * sy))
	})
	order := make([]int, d)
	for j := range order {
		order[j] = j
	}
	sort.Slice(order, func(a, b int) bool {
		if s.Scores[order[a]] != s.Scores[order[b]] {
			return s.Scores[order[a]] > s.Scores[order[b]]
		}
		return order[a] < order[b]
	})
	s.Indices = append([]int(nil), order[:s.K]...)
	sort.Ints(s.Indices)
	return nil
}

// PCA projects onto the top-K principal components, computed by power
// iteration with deflation on the covariance matrix.
type PCA struct {
	// K is the number of components.
	K int
	// Components holds K row vectors after Fit.
	Components [][]float64
	// Mean is the per-feature training mean.
	Mean []float64
	// Iterations bounds power iteration. Default 50.
	Iterations int
}

// Fit implements Transformer.
func (p *PCA) Fit(cols []*data.Column, n int) error {
	if n == 0 {
		return errors.New("ml: pca: empty data")
	}
	d := len(cols)
	if p.K <= 0 || p.K > d {
		p.K = d
	}
	if p.Iterations == 0 {
		p.Iterations = 50
	}
	x := gather(cols, nil, n)
	p.Mean = make([]float64, d)
	for j := range p.Mean {
		p.Mean[j], _ = columnStats(x[j*n:][:n])
	}
	// covariance matrix (d x d), each entry summed in row order
	cov := make([][]float64, d)
	for a := range cov {
		cov[a] = make([]float64, d)
		xa := x[a*n:][:n]
		for b := a; b < d; b++ {
			xb := x[b*n:][:n]
			var s float64
			for i, v := range xa {
				s += (v - p.Mean[a]) * (xb[i] - p.Mean[b])
			}
			cov[a][b] = s
		}
	}
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			cov[a][b] /= float64(n)
			cov[b][a] = cov[a][b]
		}
	}
	p.Components = make([][]float64, 0, p.K)
	v := make([]float64, d)
	w := make([]float64, d)
	for k := 0; k < p.K; k++ {
		for j := range v {
			v[j] = 1 / math.Sqrt(float64(d))
		}
		var lambda float64
		for it := 0; it < p.Iterations; it++ {
			for a := 0; a < d; a++ {
				w[a] = dot(cov[a], v)
			}
			norm := math.Sqrt(dot(w, w))
			if norm < 1e-15 {
				break
			}
			for j := range v {
				v[j] = w[j] / norm
			}
			lambda = norm
		}
		comp := append([]float64(nil), v...)
		p.Components = append(p.Components, comp)
		// deflate: cov -= lambda * v v^T
		for a := 0; a < d; a++ {
			for b := 0; b < d; b++ {
				cov[a][b] -= lambda * comp[a] * comp[b]
			}
		}
	}
	return nil
}

// Transform implements Transformer: output feature k is each row's
// projection on component k, its centred features added in order.
func (p *PCA) Transform(cols []*data.Column, n int) []float64 {
	x := gather(cols, nil, n)
	out := make([]float64, len(p.Components)*n)
	for k, comp := range p.Components {
		o := out[k*n:][:n]
		for j, w := range comp {
			for i, v := range x[j*n:][:n] {
				o[i] += w * (v - p.Mean[j])
			}
		}
	}
	return out
}

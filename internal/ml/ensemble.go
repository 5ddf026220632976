package ml

import (
	"errors"
	"math"
	"math/rand"

	"repro/internal/data"
	"repro/internal/parallel"
)

// GradientBoostedTrees is a binary classifier boosting shallow regression
// trees on the logistic-loss gradient (a compact LightGBM/XGBoost stand-in
// for the paper's Kaggle workloads). Warmstarting adopts a donor ensemble
// and Fit then only grows the remaining trees, which shortens training the
// same way warmstarted SGD does.
type GradientBoostedTrees struct {
	// NTrees is the ensemble size. Default 50.
	NTrees int
	// LearningRate shrinks each tree's contribution. Default 0.1.
	LearningRate float64
	// MaxDepth bounds each tree. Default 3.
	MaxDepth int
	// Subsample, in (0,1], is the row fraction per tree. Default 1.
	Subsample float64
	// Seed drives subsampling.
	Seed int64

	// Trees and Base are the fitted ensemble (exported for
	// serialization).
	Trees []*TreeNode
	Base  float64

	// TreesGrown records how many new trees the last Fit call grew.
	TreesGrown int
}

// NewGBT returns a gradient-boosted-trees classifier with package defaults.
func NewGBT(seed int64) *GradientBoostedTrees {
	return &GradientBoostedTrees{NTrees: 50, LearningRate: 0.1, MaxDepth: 3, Subsample: 1, Seed: seed}
}

// Kind implements Model.
func (g *GradientBoostedTrees) Kind() string { return "gbt" }

// WarmstartFrom implements Warmstarter: adopt the donor's trees; Fit will
// grow only NTrees-len(donor.Trees) additional trees.
func (g *GradientBoostedTrees) WarmstartFrom(donor Model) bool {
	d, ok := donor.(*GradientBoostedTrees)
	if !ok || len(d.Trees) == 0 {
		return false
	}
	g.Trees = append([]*TreeNode(nil), d.Trees...)
	g.Base = d.Base
	return true
}

// Fit implements Model.
func (g *GradientBoostedTrees) Fit(x [][]float64, y []float64) error { return fitMatrix(g, x, y) }

// FitColumns implements ColumnFitter.
func (g *GradientBoostedTrees) FitColumns(cols []*data.Column, rows []int, y []float64) error {
	if err := checkColumns(g.Kind(), cols, rows, y); err != nil {
		return err
	}
	if g.NTrees == 0 {
		g.NTrees = 50
	}
	if g.LearningRate == 0 {
		g.LearningRate = 0.1
	}
	if g.MaxDepth == 0 {
		g.MaxDepth = 3
	}
	if g.Subsample == 0 {
		g.Subsample = 1
	}
	rng := rand.New(rand.NewSource(g.Seed))
	if len(g.Trees) == 0 {
		// prior log-odds
		var pos float64
		for _, i := range rows {
			pos += y[i]
		}
		p := math.Min(math.Max(pos/float64(len(rows)), 1e-6), 1-1e-6)
		g.Base = math.Log(p / (1 - p))
	}
	// score and grad are indexed like y, by frame row; only the training
	// rows' entries are used. Rows are scored in parallel; each accumulates
	// tree contributions in tree order, so the floating-point result matches
	// a sequential pass and Predict. One pass per round adds the tree just
	// grown to the scores and takes the negative gradient the next tree fits.
	score := make([]float64, len(y))
	grad := make([]float64, len(y))
	overRows := func(grain int, fn func(i int)) {
		parallel.For(len(rows), grain, func(lo, hi int) {
			for _, i := range rows[lo:hi] {
				fn(i)
			}
		})
	}
	if len(g.Trees) == 0 {
		p := sigmoid(g.Base) // every row starts from the prior
		overRows(256, func(i int) {
			score[i] = g.Base
			grad[i] = y[i] - p
		})
	} else {
		overRows(256, func(i int) {
			s := g.Base
			for _, tr := range g.Trees { // a warmstart donor's
				s += g.LearningRate * tr.predictAt(cols, i)
			}
			score[i] = s
			grad[i] = y[i] - sigmoid(s)
		})
	}
	g.TreesGrown = 0
	gr := newGrower(binColumns(cols), g.MaxDepth, 4)
	idx := make([]int, len(rows))
	for len(g.Trees) < g.NTrees {
		g.Trees = append(g.Trees, gr.grow(grad, g.sampleRows(rng, rows, idx)))
		g.TreesGrown++
		if len(g.Trees) == g.NTrees {
			break // nothing reads the scores the last tree leaves
		}
		overRows(1024, func(i int) {
			score[i] += g.LearningRate * gr.predict(i)
			grad[i] = y[i] - sigmoid(score[i])
		})
	}
	return nil
}

// sampleRows fills idx with this round's training rows: all of rows, or a
// Subsample fraction of them drawn with replacement.
func (g *GradientBoostedTrees) sampleRows(rng *rand.Rand, rows, idx []int) []int {
	if g.Subsample >= 1 {
		copy(idx, rows)
		return idx
	}
	k := int(g.Subsample * float64(len(rows)))
	if k < 1 {
		k = 1
	}
	idx = idx[:k]
	for i := range idx {
		idx[i] = rows[rng.Intn(len(rows))]
	}
	return idx
}

// Predict implements Model, returning P(y=1).
func (g *GradientBoostedTrees) Predict(x [][]float64) []float64 {
	out := make([]float64, len(x))
	parallel.For(len(x), 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s := g.Base
			for _, tr := range g.Trees {
				s += g.LearningRate * tr.predict(x[i])
			}
			out[i] = sigmoid(s)
		}
	})
	return out
}

// PredictColumns implements ColumnFitter.
func (g *GradientBoostedTrees) PredictColumns(cols []*data.Column, rows []int) []float64 {
	return scoreColumns(cols, rows, func(i int) float64 {
		s := g.Base
		for _, tr := range g.Trees {
			s += g.LearningRate * tr.predictAt(cols, i)
		}
		return sigmoid(s)
	})
}

// NumTrees returns the current ensemble size.
func (g *GradientBoostedTrees) NumTrees() int { return len(g.Trees) }

// SizeBytes implements Model.
func (g *GradientBoostedTrees) SizeBytes() int64 {
	var n int64 = 8
	for _, t := range g.Trees {
		n += t.count() * 32
	}
	return n
}

// RandomForest bags trees over bootstrap samples with
// feature sub-sampling.
type RandomForest struct {
	// NTrees is the forest size. Default 20.
	NTrees int
	// MaxDepth bounds each tree. Default 6.
	MaxDepth int
	// MaxFeatures candidate features per split; 0 means sqrt(d).
	MaxFeatures int
	// Seed drives bootstrapping.
	Seed int64

	// Trees is the fitted forest (exported for serialization).
	Trees []*DecisionTree
}

// NewRandomForest returns a random forest with package defaults.
func NewRandomForest(seed int64) *RandomForest {
	return &RandomForest{NTrees: 20, MaxDepth: 6, Seed: seed}
}

// Kind implements Model.
func (r *RandomForest) Kind() string { return "rf" }

// Fit implements Model.
func (r *RandomForest) Fit(x [][]float64, y []float64) error { return fitMatrix(r, x, y) }

// FitColumns implements ColumnFitter.
func (r *RandomForest) FitColumns(cols []*data.Column, rows []int, y []float64) error {
	if err := checkColumns(r.Kind(), cols, rows, y); err != nil {
		return err
	}
	if r.NTrees == 0 {
		r.NTrees = 20
	}
	if r.MaxDepth == 0 {
		r.MaxDepth = 6
	}
	mf := r.MaxFeatures
	if mf == 0 {
		mf = int(math.Sqrt(float64(len(cols))))
		if mf < 1 {
			mf = 1
		}
	}
	rng := rand.New(rand.NewSource(r.Seed))
	n := len(rows)
	// Draw every bootstrap sample and tree seed up front, consuming the
	// rng stream in the exact per-tree order of a sequential fit; the
	// trees then fit independently on the shared pool, and the forest is
	// bit-identical for a fixed Seed at any pool width.
	boots := make([][]int, r.NTrees)
	seeds := make([]int64, r.NTrees)
	for k := range boots {
		bi := make([]int, n)
		for i := range bi {
			bi[i] = rows[rng.Intn(n)]
		}
		boots[k] = bi
		seeds[k] = rng.Int63()
	}
	// A bootstrap sample is just a row multiset, so each tree grows from its
	// index multiset against the shared y and the shared read-only bins.
	b := binColumns(cols)
	trees := make([]*DecisionTree, r.NTrees)
	parallel.For(r.NTrees, 1, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			t := &DecisionTree{
				MaxDepth:       r.MaxDepth,
				MinSamplesLeaf: 2,
				MaxFeatures:    mf,
				Seed:           seeds[k],
			}
			t.Root = t.grower(b).grow(y, boots[k])
			trees[k] = t
		}
	})
	r.Trees = trees
	return nil
}

// Predict implements Model, returning the mean vote.
func (r *RandomForest) Predict(x [][]float64) []float64 {
	out := make([]float64, len(x))
	if len(r.Trees) == 0 {
		return out
	}
	// Per-row vote, accumulated in tree order so the floating-point sum
	// matches the sequential tree-major loop exactly.
	parallel.For(len(x), 256, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var s float64
			for _, t := range r.Trees {
				if t.Root != nil {
					s += t.Root.predict(x[i])
				}
			}
			out[i] = s / float64(len(r.Trees))
		}
	})
	return out
}

// PredictColumns implements ColumnFitter; the vote is taken as in Predict.
func (r *RandomForest) PredictColumns(cols []*data.Column, rows []int) []float64 {
	return scoreColumns(cols, rows, func(i int) float64 {
		if len(r.Trees) == 0 {
			return 0
		}
		var s float64
		for _, t := range r.Trees {
			if t.Root != nil {
				s += t.Root.predictAt(cols, i)
			}
		}
		return s / float64(len(r.Trees))
	})
}

// SizeBytes implements Model.
func (r *RandomForest) SizeBytes() int64 {
	var n int64
	for _, t := range r.Trees {
		n += t.SizeBytes()
	}
	return n
}

// KNN is a k-nearest-neighbours classifier (brute force, Euclidean). It
// memorizes the training set, making it a deliberately storage-heavy model
// for materialization experiments.
type KNN struct {
	// K is the neighbour count. Default 5.
	K int

	// TrainX and TrainY memorize the training set (exported for
	// serialization).
	TrainX [][]float64
	TrainY []float64
}

// NewKNN returns a k-NN model with K=5.
func NewKNN() *KNN { return &KNN{K: 5} }

// Kind implements Model.
func (k *KNN) Kind() string { return "knn" }

// Fit implements Model (memorizes the data).
func (k *KNN) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return errors.New("ml: knn: empty or mismatched training data")
	}
	if k.K == 0 {
		k.K = 5
	}
	k.TrainX = clone2D(x)
	k.TrainY = append([]float64(nil), y...)
	return nil
}

// Predict implements Model.
func (k *KNN) Predict(x [][]float64) []float64 {
	out := make([]float64, len(x))
	type nb struct{ d, y float64 }
	// The distance scan is the hot loop: queries are independent and the
	// training set is read-only, so rows fan out over the shared pool.
	parallel.For(len(x), 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			q := x[i]
			best := make([]nb, 0, k.K+1)
			for j, row := range k.TrainX {
				var d float64
				for c := range q {
					dd := q[c] - row[c]
					d += dd * dd
				}
				// insertion into a small sorted buffer
				pos := len(best)
				for pos > 0 && best[pos-1].d > d {
					pos--
				}
				if pos < k.K {
					best = append(best, nb{})
					copy(best[pos+1:], best[pos:])
					best[pos] = nb{d, k.TrainY[j]}
					if len(best) > k.K {
						best = best[:k.K]
					}
				}
			}
			var s float64
			for _, b := range best {
				s += b.y
			}
			if len(best) > 0 {
				out[i] = s / float64(len(best))
			}
		}
	})
	return out
}

// SizeBytes implements Model.
func (k *KNN) SizeBytes() int64 {
	return int64(len(k.TrainX))*int64(cols2D(k.TrainX))*8 + int64(len(k.TrainY))*8
}

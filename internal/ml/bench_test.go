package ml

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// benchWorkers runs the benchmark body under pool widths 1 (sequential)
// and 4, restoring the global width afterwards.
func benchWorkers(b *testing.B, body func(b *testing.B)) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			body(b)
		})
	}
}

func BenchmarkRandomForestFitParallel(b *testing.B) {
	x, y := synthLinear(4000, 30, 7)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := NewRandomForest(1)
			r.NTrees = 16
			if err := r.Fit(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGBTFitParallel(b *testing.B) {
	x, y := synthLinear(4000, 120, 8)
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := NewGBT(1)
			g.NTrees = 10
			g.MaxDepth = 3
			if err := g.Fit(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHistogram fills the root histogram of a tree at the Kaggle
// training-input shape, 3 000 rows × 41 features, at pool widths 1 and 2:
// the shape of a GBT variant's Train, where the pool's hand-off costs about
// what a second core saves (DESIGN.md "Parallel execution").
func BenchmarkHistogram(b *testing.B) {
	cols, y := mixedColumns(rand.New(rand.NewSource(5)), 3000, 41)
	g := newGrower(binColumns(cols), 3, 1)
	rows := make([]int, len(y))
	for i := range rows {
		rows[i] = i
	}
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			prev := parallel.SetWorkers(w)
			defer parallel.SetWorkers(prev)
			for i := 0; i < b.N; i++ {
				g.release(g.histogram(g.feats, y, rows))
			}
		})
	}
}

func BenchmarkKNNPredictParallel(b *testing.B) {
	x, y := synthLinear(3000, 20, 9)
	k := NewKNN()
	if err := k.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	queries := x[:500]
	benchWorkers(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k.Predict(queries)
		}
	})
}

// BenchmarkLogisticRegressionFit has the shape of the OpenML pipelines on the
// end-to-end ruler (openml_stream, shared_2c): the 750 training rows of a
// 1000 × 20 frame, the median max_iter of 300, the pipelines' tolerance.
func BenchmarkLogisticRegressionFit(b *testing.B) {
	x, y := synthLinear(750, 20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewLogisticRegression(1)
		m.MaxIter, m.Tol = 300, 1e-5
		if err := m.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGBTFit(b *testing.B) {
	for _, cols := range []int{20, 120} {
		x, y := synthLinear(2000, cols, 2)
		b.Run(fmt.Sprintf("cols=%d", cols), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := NewGBT(1)
				g.NTrees = 12
				g.MaxDepth = 3
				if err := g.Fit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGBTWarmstartedFit(b *testing.B) {
	x, y := synthLinear(2000, 20, 3)
	donor := NewGBT(1)
	donor.NTrees = 10
	if err := donor.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := NewGBT(1)
		g.NTrees = 12 // grows only 2 extra trees
		g.WarmstartFrom(donor)
		if err := g.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomForestFit(b *testing.B) {
	x, y := synthLinear(1000, 20, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewRandomForest(1)
		r.NTrees = 10
		if err := r.Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAUCROC(b *testing.B) {
	x, y := synthLinear(10000, 5, 5)
	m := NewLogisticRegression(1)
	if err := m.Fit(x, y); err != nil {
		b.Fatal(err)
	}
	scores := m.Predict(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AUCROC(y, scores)
	}
}

func BenchmarkCountVectorizer(b *testing.B) {
	docs := make([]string, 2000)
	for i := range docs {
		docs[i] = "the quick brown fox jumps over the lazy dog number " + fmt.Sprint(i%50)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := &CountVectorizer{MaxFeatures: 64}
		v.FitTransform(docs)
	}
}

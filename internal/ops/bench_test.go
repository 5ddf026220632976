package ops

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// BenchmarkTrainVariants is the hyperparameter-variant loop of the Kaggle
// workloads at the kernel: GBT specs that differ in seed, trained through
// Train on one 4000 × 120 frame. "first" pays for the frame's quantile views
// (a fresh frame per iteration, built off the clock); "later" finds them
// built, as every variant after the first does while the frame's columns
// stay alive in the client's session store.
func BenchmarkTrainVariants(b *testing.B) {
	const rows, features = 4000, 120
	b.Run("first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			f := trainingFrame(int64(i), rows, features)
			b.StartTimer()
			trainOn(b, f, gbtSpec(int64(i)))
		}
	})
	b.Run("later", func(b *testing.B) {
		f := trainingFrame(1, rows, features)
		trainOn(b, f, gbtSpec(0))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trainOn(b, f, gbtSpec(int64(i+1)))
		}
	})
}

// BenchmarkTrainLogreg is one OpenML pipeline's Train at the kernel
// (openml_stream, shared_2c): a logistic regression with the pipelines'
// median max_iter and their tolerance on a 1000 × 20 frame, so the gather of
// the training rows and the held-out scoring are in the profile beside the fit.
func BenchmarkTrainLogreg(b *testing.B) {
	f := trainingFrame(1, 1000, 20)
	spec := ModelSpec{Kind: "logreg", Params: map[string]float64{"max_iter": 300, "tol": 1e-5}, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainOn(b, f, spec)
	}
}

// BenchmarkEvaluateVariants is the other vertex every variant runs: the GBT a
// variant trained, scored by AUC on every row of a 4000 × 40 frame.
func BenchmarkEvaluateVariants(b *testing.B) {
	f := trainingFrame(1, 4000, 40)
	inputs := []graph.Artifact{trainOn(b, f, gbtSpec(0)), &graph.DatasetArtifact{Frame: f}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Evaluate{Label: "TARGET", Metric: AUC}).Run(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKDE2D is W1's external KDE at the kernel, which no reuse removes
// from a pass: 4 000 rows on a 32 × 32 grid, at pool widths 1 and 2.
func BenchmarkKDE2D(b *testing.B) {
	f := kdeFrame(1, 4000)
	op := KDE2D{ColX: "x", ColY: "y", GridSize: 32, Bandwidth: 0.5}
	for _, width := range []int{1, 2} {
		b.Run(fmt.Sprint("width=", width), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kdeAt(b, width, op, f)
			}
		})
	}
}

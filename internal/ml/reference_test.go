package ml

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The loops this file keeps are the ones linear.go and metrics.go had before
// the logistic loss stopped taking the log it multiplies by zero and AUCROC
// stopped sorting through reflection. Both changes claim bit-identical
// values; these are what they are identical to.

func refLogLoss(y, p []float64) float64 {
	var loss float64
	for i := range y {
		pc := math.Min(math.Max(p[i], 1e-12), 1-1e-12)
		loss -= y[i]*math.Log(pc) + (1-y[i])*math.Log(1-pc)
	}
	return loss / float64(len(y))
}

// refLogregFit is LogisticRegression.Fit on a model whose defaults are set
// and whose weights are initialized.
func refLogregFit(m *LogisticRegression, x [][]float64, y []float64) {
	n := float64(len(x))
	grad := make([]float64, len(m.Weights))
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
			pc := math.Min(math.Max(p, 1e-12), 1-1e-12)
			loss -= y[i]*math.Log(pc) + (1-y[i])*math.Log(1-pc)
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
}

func refAUCROC(y, scores []float64) float64 {
	type pair struct{ s, y float64 }
	ps := make([]pair, len(y))
	for i := range y {
		ps[i] = pair{scores[i], y[i]}
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].s < ps[b].s })
	ranks := make([]float64, len(ps))
	for i := 0; i < len(ps); {
		j := i
		for j < len(ps) && ps[j].s == ps[i].s {
			j++
		}
		avg := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			ranks[k] = avg
		}
		i = j
	}
	var sumPos, nPos float64
	for i, p := range ps {
		if p.y > 0.5 {
			sumPos += ranks[i]
			nPos++
		}
	}
	nNeg := float64(len(ps)) - nPos
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	return (sumPos - nPos*(nPos+1)/2) / (nPos * nNeg)
}

// TestLogisticLossIsTheGeneralFormBitForBit: with 0/1 labels, where one log
// is skipped, and with fractional labels, where none is, a fit ends on the
// weights, bias and epoch count of the old loop, and LogLoss on its value —
// including predictions of exactly 0 and 1, which the clamp catches.
func TestLogisticLossIsTheGeneralFormBitForBit(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		x, y := synthLinear(100+rng.Intn(400), 2+rng.Intn(10), seed)
		if seed%3 == 0 { // soft labels
			for i := range y {
				y[i] = 0.1 + 0.8*y[i] + 0.1*rng.Float64()
			}
		}
		fit := func(run func(m *LogisticRegression)) *LogisticRegression {
			m := NewLogisticRegression(seed)
			m.MaxIter, m.Tol, m.L2 = 150, 1e-5, 0.01*float64(seed%2)
			m.Weights = make([]float64, len(x[0]))
			for j := range m.Weights {
				m.Weights[j] = 0.01 * float64(j)
			}
			run(m)
			return m
		}
		got := fit(func(m *LogisticRegression) {
			if err := m.Fit(x, y); err != nil {
				t.Fatal(err)
			}
		})
		want := fit(func(m *LogisticRegression) { refLogregFit(m, x, y) })
		if got.EpochsRun != want.EpochsRun || got.Bias != want.Bias {
			t.Fatalf("seed %d: %d epochs, bias %v; the general form ran %d, to bias %v", seed, got.EpochsRun, got.Bias, want.EpochsRun, want.Bias)
		}
		for j := range want.Weights {
			if got.Weights[j] != want.Weights[j] {
				t.Fatalf("seed %d: weight %d is %v, the general form's %v", seed, j, got.Weights[j], want.Weights[j])
			}
		}
		p := got.Predict(x)
		p[0], p[1] = 0, 1
		if a, b := LogLoss(y, p), refLogLoss(y, p); a != b {
			t.Errorf("seed %d: LogLoss %v, the general form %v", seed, a, b)
		}
	}
}

// TestAUCROCDoesNotDependOnTieOrder: on scores with heavy ties — a shallow
// tree ensemble's — an unstable sort may leave tied pairs in any order; the
// rank average makes the statistic the same, bit for bit, as under the
// sort.Slice it replaced.
func TestAUCROCDoesNotDependOnTieOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, levels := 10+rng.Intn(3000), 1+rng.Intn(12)
		y, scores := make([]float64, n), make([]float64, n)
		for i := range y {
			scores[i] = float64(rng.Intn(levels)) / float64(levels)
			if rng.Float64() < scores[i]/2+0.25 {
				y[i] = 1
			}
		}
		if got, want := AUCROC(y, scores), refAUCROC(y, scores); got != want {
			t.Errorf("seed %d (%d rows, %d distinct scores): AUC %v, want %v", seed, n, levels, got, want)
		}
	}
}

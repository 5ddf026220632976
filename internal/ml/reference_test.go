package ml

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
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

// refLogregFit is the row-major loop of LogisticRegression.Fit, with two logs
// per row, on a model whose defaults are set and whose weights are
// initialized.
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

// TestLogisticLossIsTheGeneralFormBitForBit: the column-major epoch loop,
// which logs the likelihood once per epoch, ends on the epoch count, weights
// and bias of the row-major loop with a log per row — through Fit on every
// row of the training matrix's columns and on a row subset of wider columns.
// The cases cover 1 to 25 features, in fours and not, 1 to 600 rows, in
// sixteens and not, 0/1 and soft labels, L2 on and off, weights drawn from
// the seed and warmstarted ones, and features scaled until σ saturates and
// the clamp fires. LogLoss, which keeps a log per row, is the general form's
// too, on predictions of exactly 0 and 1.
func TestLogisticLossIsTheGeneralFormBitForBit(t *testing.T) {
	var clamped, cases int
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 1+rng.Intn(600), 1+rng.Intn(25)
		if rng.Intn(4) == 0 {
			n = 1 + rng.Intn(40)
		}
		all, yAll := synthLinear(n+rng.Intn(50), d, seed)
		scale := 1.0
		if rng.Intn(4) == 0 {
			scale = 40
		}
		for _, row := range all {
			for j := range row {
				row[j] *= scale
			}
		}
		switch rng.Intn(3) {
		case 0: // soft labels
			for i := range yAll {
				yAll[i] = 0.1 + 0.8*yAll[i] + 0.1*rng.Float64()
			}
		case 1: // mostly 0/1, some soft
			for i := range yAll {
				if rng.Intn(8) == 0 {
					yAll[i] = rng.Float64()
				}
			}
		}
		rows := rng.Perm(len(all))[:n]
		x, y := make([][]float64, n), make([]float64, n)
		for k, i := range rows {
			x[k], y[k] = all[i], yAll[i]
		}
		maxIter, l2, warm := 1+rng.Intn(120), 0.01*float64(rng.Intn(2)), rng.Intn(2) == 0
		fit := func(run func(m *LogisticRegression)) *LogisticRegression {
			m := NewLogisticRegression(seed)
			m.MaxIter, m.Tol, m.L2 = maxIter, 1e-5, l2
			if warm {
				m.Weights = make([]float64, d)
				for j := range m.Weights {
					m.Weights[j] = 0.01 * float64(j)
				}
				m.Bias = 0.1
			}
			run(m)
			return m
		}
		want := fit(func(m *LogisticRegression) {
			if m.Weights == nil { // what Fit draws from the seed
				init := rand.New(rand.NewSource(seed))
				m.Weights = make([]float64, d)
				for j := range m.Weights {
					m.Weights[j] = init.NormFloat64() * 0.01
				}
			}
			refLogregFit(m, x, y)
		})
		viaFit := fit(func(m *LogisticRegression) {
			if err := fitRows(m, x, y); err != nil {
				t.Fatal(err)
			}
		})
		viaColumns := fit(func(m *LogisticRegression) {
			cols, _ := matrixColumns(all)
			if err := m.Fit(cols, rows, yAll); err != nil {
				t.Fatal(err)
			}
		})
		for _, got := range []*LogisticRegression{viaFit, viaColumns} {
			if got.EpochsRun != want.EpochsRun {
				t.Logf("seed %d (%d × %d): %d epochs, the general form ran %d", seed, n, d, got.EpochsRun, want.EpochsRun)
				return false
			}
			if got.Bias != want.Bias {
				t.Logf("seed %d (%d × %d): bias %v, the general form's %v", seed, n, d, got.Bias, want.Bias)
				return false
			}
			for j := range want.Weights {
				if got.Weights[j] != want.Weights[j] {
					t.Logf("seed %d (%d × %d): weight %d is %v, the general form's %v", seed, n, d, j, got.Weights[j], want.Weights[j])
					return false
				}
			}
		}
		p := predictRows(viaFit, x)
		for _, v := range p {
			if v != clampProb(v) {
				clamped++
				break
			}
		}
		p[0], p[len(p)-1] = 0, 1
		if a, b := LogLoss(y, p), refLogLoss(y, p); a != b {
			t.Logf("seed %d: LogLoss %v, the general form %v", seed, a, b)
			return false
		}
		cases++
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if clamped == 0 {
		t.Errorf("none of %d fits predicted within 1e-12 of 0 or 1: the clamp was never exercised", cases)
	}
}

// TestResidualsLossIsTheSummedCrossEntropy: the one log residuals takes is,
// to the last few digits, the rows' crossEntropy summed — also when every
// row's likelihood factor sits at the 1e-12 clamp, where a product
// renormalised less often than every 16 rows would underflow to 0 — and its
// residuals and their sum are the general form's bit for bit.
func TestResidualsLossIsTheSummedCrossEntropy(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(600)
		z, y := make([]float64, n), make([]float64, n)
		wrong := rng.Intn(3) == 0 // every margin saturated against its label
		for i := range z {
			y[i] = float64(rng.Intn(2))
			if rng.Intn(10) == 0 {
				y[i] = rng.Float64()
			}
			z[i] = 4 * rng.NormFloat64()
			if wrong {
				z[i] = 50 * (0.5 - y[i])
			}
		}
		b := rng.NormFloat64()
		var wantSum, wantLoss float64
		want := make([]float64, n)
		for i := range z {
			p := sigmoid(z[i] + b)
			want[i] = p - y[i]
			wantSum += want[i]
			wantLoss += crossEntropy(y[i], p)
		}
		sum, loss := residuals(z, y, b)
		for i := range z {
			if z[i] != want[i] {
				return false
			}
		}
		return sum == wantSum && math.Abs(loss-wantLoss) <= 1e-12*wantLoss
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
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

package ml

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/data"
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

// The loops below are the row-major fits and transforms that read a
// row-major matrix of the frame's cells before every learner and transform
// read the columns through one column-major block; the column forms claim
// the same bits. The one change they do not claim is linear regression's
// floor: refLinregFit standardizes with refColumnStats, whose floor the
// fit now shares.

// refColumnStats is columnStats over the columns of a row-major matrix.
func refColumnStats(x [][]float64) (mean, std []float64) {
	d := len(x[0])
	mean = make([]float64, d)
	std = make([]float64, d)
	for _, row := range x {
		for j, v := range row {
			mean[j] += v
		}
	}
	n := float64(len(x))
	for j := range mean {
		mean[j] /= n
	}
	for _, row := range x {
		for j, v := range row {
			dlt := v - mean[j]
			std[j] += dlt * dlt
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / n)
		if std[j] < 1e-12 {
			std[j] = 1
		}
	}
	return mean, std
}

// refLinregFit is the row-major loop of LinearRegression.Fit on a model
// whose defaults are set.
func refLinregFit(m *LinearRegression, x [][]float64, y []float64) {
	d := len(x[0])
	mean, scale := refColumnStats(x)
	std := make([][]float64, len(x))
	for i, row := range x {
		std[i] = make([]float64, d)
		for j, v := range row {
			std[i][j] = (v - mean[j]) / scale[j]
		}
	}
	if m.Weights == nil || len(m.Weights) != d {
		m.Weights = make([]float64, d)
		m.Bias = 0
	}
	w, b := make([]float64, d), m.Bias
	for j := range w {
		w[j] = m.Weights[j] * scale[j]
		b += m.Weights[j] * mean[j]
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
		for i, row := range std {
			e := dot(w, row) + b - y[i]
			for j, v := range row {
				grad[j] += e * v
			}
			gradB += e
			loss += e * e
		}
		loss /= 2 * n
		for j := range w {
			w[j] -= m.LearningRate * (grad[j]/n + m.L2*w[j])
		}
		b -= m.LearningRate * gradB / n
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
}

// refNBFit is the row-major loop of GaussianNB.Fit.
func refNBFit(m *GaussianNB, x [][]float64, y []float64) {
	d := len(x[0])
	var count [2]float64
	for c := 0; c < 2; c++ {
		m.Mean[c] = make([]float64, d)
		m.Var[c] = make([]float64, d)
	}
	class := func(i int) int {
		if y[i] >= 0.5 {
			return 1
		}
		return 0
	}
	for i, row := range x {
		c := class(i)
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
		c := class(i)
		for j, v := range row {
			dlt := v - m.Mean[c][j]
			m.Var[c][j] += dlt * dlt
		}
	}
	for c := 0; c < 2; c++ {
		for j := range m.Var[c] {
			m.Var[c][j] /= count[c]
			maxVar = math.Max(maxVar, m.Var[c][j])
		}
	}
	smooth := 1e-9 * math.Max(maxVar, 1)
	for c := 0; c < 2; c++ {
		for j := range m.Var[c] {
			m.Var[c][j] += smooth
		}
	}
	total := count[0] + count[1]
	m.Prior[0] = count[0] / total
	m.Prior[1] = count[1] / total
}

// refNBPredict is the row-major loop of GaussianNB.Predict.
func refNBPredict(m *GaussianNB, x [][]float64) []float64 {
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
		mx := math.Max(logp[0], logp[1])
		e0 := math.Exp(logp[0] - mx)
		e1 := math.Exp(logp[1] - mx)
		out[i] = e1 / (e0 + e1)
	}
	return out
}

// refSVMFit is the row-major loop of LinearSVM.Fit on a model whose
// defaults are set.
func refSVMFit(m *LinearSVM, x [][]float64, y []float64) {
	d := len(x[0])
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
}

// refKNNPredict is the row-major loop of KNN.Predict, on one goroutine.
func refKNNPredict(k *KNN, x [][]float64) []float64 {
	out := make([]float64, len(x))
	type nb struct{ d, y float64 }
	for i, q := range x {
		best := make([]nb, 0, k.K+1)
		for j, row := range k.TrainX {
			var d float64
			for c := range q {
				dd := q[c] - row[c]
				d += dd * dd
			}
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
	return out
}

// refScale is the row-major fit and transform of StandardScaler, or of
// MinMaxScaler when minmax is set.
func refScale(x [][]float64, minmax bool) [][]float64 {
	d := len(x[0])
	lo, hi := make([]float64, d), make([]float64, d)
	for j := range lo {
		lo[j], hi[j] = math.Inf(1), math.Inf(-1)
	}
	for _, row := range x {
		for j, v := range row {
			if v < lo[j] {
				lo[j] = v
			}
			if v > hi[j] {
				hi[j] = v
			}
		}
	}
	mean, std := refColumnStats(x)
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = make([]float64, d)
		for j, v := range row {
			switch span := hi[j] - lo[j]; {
			case !minmax:
				out[i][j] = (v - mean[j]) / std[j]
			case span <= 0:
				out[i][j] = 0
			default:
				out[i][j] = (v - lo[j]) / span
			}
		}
	}
	return out
}

// refSelectScores is the row-major scoring of SelectKBest.Fit.
func refSelectScores(x [][]float64, y []float64) []float64 {
	mean, std := refColumnStats(x)
	var my, sy float64
	for _, v := range y {
		my += v
	}
	my /= float64(len(y))
	for _, v := range y {
		sy += (v - my) * (v - my)
	}
	if sy = math.Sqrt(sy / float64(len(y))); sy < 1e-12 {
		sy = 1
	}
	scores := make([]float64, len(mean))
	for j := range scores {
		var cov float64
		for i, row := range x {
			cov += (row[j] - mean[j]) * (y[i] - my)
		}
		cov /= float64(len(x))
		scores[j] = math.Abs(cov / (std[j] * sy))
	}
	return scores
}

// refPCA is the row-major fit of PCA, on a model whose defaults are set
// and whose K is at most the feature count, and its transform of x.
func refPCA(p *PCA, x [][]float64) [][]float64 {
	d := len(x[0])
	p.Mean, _ = refColumnStats(x)
	cov := make([][]float64, d)
	for j := range cov {
		cov[j] = make([]float64, d)
	}
	for _, row := range x {
		for a := 0; a < d; a++ {
			da := row[a] - p.Mean[a]
			for b := a; b < d; b++ {
				cov[a][b] += da * (row[b] - p.Mean[b])
			}
		}
	}
	n := float64(len(x))
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			cov[a][b] /= n
			cov[b][a] = cov[a][b]
		}
	}
	p.Components = nil
	v, w := make([]float64, d), make([]float64, d)
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
		for a := 0; a < d; a++ {
			for b := 0; b < d; b++ {
				cov[a][b] -= lambda * comp[a] * comp[b]
			}
		}
	}
	out := make([][]float64, len(x))
	centered := make([]float64, d)
	for i, row := range x {
		for j := range centered {
			centered[j] = row[j] - p.Mean[j]
		}
		out[i] = make([]float64, len(p.Components))
		for k, comp := range p.Components {
			out[i][k] = dot(comp, centered)
		}
	}
	return out
}

// refSqDist is the squared distance of rows a and b, features in order.
func refSqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// refKMeans is the row-major fit of KMeans, on a model whose defaults are
// set and whose K is at most the row count, and its transform of x.
func refKMeans(m *KMeans, x [][]float64) [][]float64 {
	rng := rand.New(rand.NewSource(m.Seed))
	perm := rng.Perm(len(x))
	m.Centroids = make([][]float64, m.K)
	for c := range m.Centroids {
		m.Centroids[c] = append([]float64(nil), x[perm[c]]...)
	}
	assign := make([]int, len(x))
	counts := make([]float64, m.K)
	for it := 0; it < m.MaxIter; it++ {
		changed := false
		for i, row := range x {
			best, bestD := 0, math.Inf(1)
			for c, cent := range m.Centroids {
				if dist := refSqDist(row, cent); dist < bestD {
					best, bestD = c, dist
				}
			}
			if assign[i] != best {
				assign[i], changed = best, true
			}
		}
		if !changed && it > 0 {
			break
		}
		for c := range m.Centroids {
			counts[c] = 0
			clear(m.Centroids[c])
		}
		for i, row := range x {
			counts[assign[i]]++
			for j, v := range row {
				m.Centroids[assign[i]][j] += v
			}
		}
		for c := range m.Centroids {
			if counts[c] == 0 {
				copy(m.Centroids[c], x[rng.Intn(len(x))])
				continue
			}
			for j := range m.Centroids[c] {
				m.Centroids[c][j] /= counts[c]
			}
		}
	}
	out := make([][]float64, len(x))
	for i, row := range x {
		out[i] = make([]float64, m.K)
		for c, cent := range m.Centroids {
			out[i][c] = math.Sqrt(refSqDist(row, cent))
		}
	}
	return out
}

// oracleColumns draws d feature columns of n rows with every shape a frame
// hands the model path: floats with missing cells (some constant, at a
// value its mean rounds off), ints, bools, strings and absent features
// (nil). The first is floats or ints, so some row count is known.
func oracleColumns(rng *rand.Rand, n, d int) []*data.Column {
	cols := make([]*data.Column, d)
	for f := range cols {
		kind := rng.Intn(6)
		if f == 0 {
			kind = rng.Intn(3)
		}
		switch kind {
		case 0, 1:
			vals, scale := make([]float64, n), math.Pow(10, float64(rng.Intn(7)-3))
			constant := rng.Intn(6) == 0
			for i := range vals {
				switch {
				case constant:
					vals[i] = 0.1
				case rng.Intn(8) == 0:
					vals[i] = math.NaN()
				default:
					vals[i] = scale * rng.NormFloat64()
				}
			}
			cols[f] = data.NewFloatColumn("", vals)
		case 2:
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = int64(rng.Intn(11) - 5)
			}
			cols[f] = data.NewIntColumn("", vals)
		case 3:
			vals := make([]bool, n)
			for i := range vals {
				vals[i] = rng.Intn(2) == 0
			}
			cols[f] = data.NewBoolColumn("", vals)
		case 4:
			vals := make([]string, n)
			for i := range vals {
				vals[i] = []string{"a", "", "b"}[rng.Intn(3)]
			}
			cols[f] = data.NewStringColumn("", vals)
		}
	}
	return cols
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameBlock reports whether the column-major block of n rows holds the
// row-major matrix want bit for bit.
func sameBlock(block []float64, n int, want [][]float64) bool {
	if len(want) != n {
		return false
	}
	for i, row := range want {
		if len(block) != n*len(row) {
			return false
		}
		for j, v := range row {
			if math.Float64bits(block[j*n+i]) != math.Float64bits(v) {
				return false
			}
		}
	}
	return true
}

// TestQuickColumnFormsAreTheRowLoopsBitForBit: linear regression, naive
// Bayes, the linear SVM and k-NN fitted on a frame's columns, and the
// scalers, SelectKBest, PCA and k-means fitted and applied on them, end on
// the parameters, predictions and outputs of the row-major loops, bit for
// bit — on 1 to 40 features of every cell type and absent ones, on every row
// and on a row subset.
func TestQuickColumnFormsAreTheRowLoopsBitForBit(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, d := 2+rng.Intn(150), 1+rng.Intn(40)
		cols := oracleColumns(rng, n, d)
		y := make([]float64, n)
		for i := range y {
			y[i] = float64(rng.Intn(2))
		}
		var rows []int
		if rng.Intn(2) == 0 {
			rows = rng.Perm(n)[:1+rng.Intn(n)]
		} else {
			rows = rng.Perm(n)
			sort.Ints(rows)
		}
		x, yt, all := cellRows(cols, rows), targets(y, rows), cellRows(cols, nil)
		fail := func(what string) bool {
			t.Logf("seed %d (%d rows, %d features): %s differs from the row-major loop", seed, n, d, what)
			return false
		}

		lin, refLin := NewLinearRegression(seed), NewLinearRegression(seed)
		if err := lin.Fit(cols, rows, y); err != nil {
			t.Fatal(err)
		}
		refLinregFit(refLin, x, yt)
		if lin.EpochsRun != refLin.EpochsRun || !sameBits([]float64{lin.Bias}, []float64{refLin.Bias}) || !sameBits(lin.Weights, refLin.Weights) {
			return fail("linreg")
		}

		nb, refNB := NewGaussianNB(), NewGaussianNB()
		if err := nb.Fit(cols, rows, y); err != nil {
			t.Fatal(err)
		}
		refNBFit(refNB, x, yt)
		for c := 0; c < 2; c++ {
			if !sameBits(nb.Mean[c], refNB.Mean[c]) || !sameBits(nb.Var[c], refNB.Var[c]) || !sameBits(nb.Prior[:], refNB.Prior[:]) {
				return fail("nb")
			}
		}
		if !sameBits(nb.Predict(cols, rows), refNBPredict(refNB, x)) {
			return fail("nb's predictions")
		}

		svm, refSVM := NewLinearSVM(seed), NewLinearSVM(seed)
		if err := svm.Fit(cols, rows, y); err != nil {
			t.Fatal(err)
		}
		refSVMFit(refSVM, x, yt)
		if svm.EpochsRun != refSVM.EpochsRun || !sameBits([]float64{svm.Bias}, []float64{refSVM.Bias}) || !sameBits(svm.Weights, refSVM.Weights) {
			return fail("svm")
		}

		knn := NewKNN()
		if err := knn.Fit(cols, rows, y); err != nil {
			t.Fatal(err)
		}
		for i, row := range x {
			if !sameBits(knn.TrainX[i], row) {
				return fail("knn's TrainX")
			}
		}
		if !sameBits(knn.Predict(cols, nil), refKNNPredict(knn, all)) {
			return fail("knn's predictions")
		}

		for _, minmax := range []bool{false, true} {
			var tr Transformer = &StandardScaler{}
			if minmax {
				tr = &MinMaxScaler{}
			}
			if err := tr.Fit(cols, n); err != nil {
				t.Fatal(err)
			}
			if !sameBlock(tr.Transform(cols, n), n, refScale(all, minmax)) {
				return fail("a scaler")
			}
		}

		sel := &SelectKBest{K: rng.Intn(d + 1)}
		if err := sel.Fit(cols, y); err != nil {
			t.Fatal(err)
		}
		if !sameBits(sel.Scores, refSelectScores(all, y)) {
			return fail("SelectKBest's scores")
		}

		pca, refP := &PCA{K: 1 + rng.Intn(min(d, 4))}, &PCA{Iterations: 50}
		if err := pca.Fit(cols, n); err != nil {
			t.Fatal(err)
		}
		refP.K = pca.K
		if want := refPCA(refP, all); !sameBlock(pca.Transform(cols, n), n, want) || !sameBits(pca.Mean, refP.Mean) {
			return fail("PCA")
		}
		for k := range refP.Components {
			if !sameBits(pca.Components[k], refP.Components[k]) {
				return fail("a PCA component")
			}
		}

		km, refKM := NewKMeans(1+rng.Intn(5), seed), NewKMeans(0, seed)
		if err := km.Fit(cols, n); err != nil {
			t.Fatal(err)
		}
		refKM.K = km.K
		if want := refKMeans(refKM, all); !sameBlock(km.Transform(cols, n), n, want) {
			return fail("k-means")
		}
		for c := range refKM.Centroids {
			if !sameBits(km.Centroids[c], refKM.Centroids[c]) {
				return fail("a k-means centroid")
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

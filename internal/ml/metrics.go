package ml

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
)

// AUCROC computes the area under the ROC curve of scores against binary
// labels (y ∈ {0,1}) via the rank statistic, handling ties by averaging.
// It is the paper's model-quality function q for classifiers.
func AUCROC(y, scores []float64) float64 {
	type pair struct{ s, y float64 }
	ps := make([]pair, len(y))
	for i := range y {
		ps[i] = pair{scores[i], y[i]}
	}
	// Tied scores share the average of their ranks, so the result does not
	// depend on the order an unstable sort leaves them in.
	slices.SortFunc(ps, func(a, b pair) int { return cmp.Compare(a.s, b.s) })
	// average ranks over tie groups; compared as the sort compares them, NaN
	// scores are one group, below every other.
	ranks := make([]float64, len(ps))
	for i := 0; i < len(ps); {
		j := i
		for j < len(ps) && cmp.Compare(ps[j].s, ps[i].s) == 0 {
			j++
		}
		avg := float64(i+j+1) / 2 // ranks are 1-based
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

// Accuracy computes the fraction of correct 0.5-thresholded predictions.
func Accuracy(y, scores []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	var correct float64
	for i := range y {
		pred := 0.0
		if scores[i] >= 0.5 {
			pred = 1
		}
		if pred == y[i] {
			correct++
		}
	}
	return correct / float64(len(y))
}

// LogLoss computes the mean negative log-likelihood of probabilities.
func LogLoss(y, p []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	var loss float64
	for i := range y {
		loss += crossEntropy(y[i], p[i])
	}
	return loss / float64(len(y))
}

// crossEntropy is -(y·log p + (1-y)·log(1-p)), with p clamped away from 0 and
// 1 so that neither log is infinite. A 0/1 label multiplies one of the two
// logs by zero; adding that ±0 changes nothing, so only the other is taken,
// and the value is bit for bit that of the general form.
func crossEntropy(y, p float64) float64 {
	pc := clampProb(p)
	switch y {
	case 1:
		return -math.Log(pc)
	case 0:
		return -math.Log(1 - pc)
	}
	return -(y*math.Log(pc) + (1-y)*math.Log(1-pc))
}

// clampProb keeps a probability at least 1e-12 away from 0 and 1. The
// built-in min and max treat NaN and signed zeros as math.Min and math.Max
// do, and are inlined.
func clampProb(p float64) float64 { return min(max(p, 1e-12), 1-1e-12) }

// RMSE computes root mean squared error.
func RMSE(y, pred []float64) float64 {
	if len(y) == 0 {
		return 0
	}
	var s float64
	for i := range y {
		e := pred[i] - y[i]
		s += e * e
	}
	return math.Sqrt(s / float64(len(y)))
}

// TrainTestSplit shuffles the row indices 0..n-1 with the given seed and
// splits them into train and test portions with testFrac in (0,1).
func TrainTestSplit(n int, testFrac float64, seed int64) (train, test []int) {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(n, func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
	nTest := int(testFrac * float64(n))
	if nTest < 1 {
		nTest = 1
	}
	if nTest >= n {
		nTest = n - 1
	}
	return idx[nTest:], idx[:nTest]
}

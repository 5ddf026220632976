package ml

import (
	"math"
	"math/rand"
	"testing"
)

// synthLinear builds a linearly separable binary dataset.
func synthLinear(n, d int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, d)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		row := make([]float64, d)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		x[i] = row
		if dot(w, row)+0.3*rng.NormFloat64() > 0 {
			y[i] = 1
		}
	}
	return x, y
}

// synthXOR builds a dataset only a non-linear model can fit.
func synthXOR(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x[i] = []float64{a, b}
		if (a > 0) != (b > 0) {
			y[i] = 1
		}
	}
	return x, y
}

func TestLogisticRegressionLearns(t *testing.T) {
	x, y := synthLinear(400, 5, 1)
	m := NewLogisticRegression(7)
	if err := m.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	auc := AUCROC(y, m.Predict(x))
	if auc < 0.9 {
		t.Errorf("train AUC=%.3f, want >= 0.9", auc)
	}
}

func TestLogisticRegressionWarmstartFewerEpochs(t *testing.T) {
	x, y := synthLinear(400, 5, 2)
	cold := NewLogisticRegression(7)
	cold.MaxIter = 2000
	cold.LearningRate = 0.5
	cold.Tol = 1e-5
	if err := cold.Fit(x, y); err != nil {
		t.Fatalf("cold fit: %v", err)
	}
	warm := NewLogisticRegression(7)
	warm.MaxIter = 2000
	warm.LearningRate = 0.5
	warm.Tol = 1e-5
	if !warm.WarmstartFrom(cold) {
		t.Fatal("WarmstartFrom should accept a fitted logreg")
	}
	if err := warm.Fit(x, y); err != nil {
		t.Fatalf("warm fit: %v", err)
	}
	if warm.EpochsRun >= cold.EpochsRun {
		t.Errorf("warmstart epochs=%d not fewer than cold=%d", warm.EpochsRun, cold.EpochsRun)
	}
}

func TestWarmstartRejectsWrongKind(t *testing.T) {
	lr := NewLogisticRegression(1)
	if lr.WarmstartFrom(NewGBT(1)) {
		t.Error("logreg must not warmstart from gbt")
	}
	g := NewGBT(1)
	if g.WarmstartFrom(NewLogisticRegression(1)) {
		t.Error("gbt must not warmstart from logreg")
	}
	// unfitted donors rejected too
	if g.WarmstartFrom(NewGBT(2)) {
		t.Error("gbt must not warmstart from an unfitted donor")
	}
}

func TestLinearRegressionLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 300
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		a := rng.Float64()
		x[i] = []float64{a}
		y[i] = 3*a + 1 + 0.01*rng.NormFloat64()
	}
	m := NewLinearRegression(1)
	m.MaxIter = 2000
	if err := m.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if rmse := RMSE(y, m.Predict(x)); rmse > 0.1 {
		t.Errorf("RMSE=%.4f, want <= 0.1", rmse)
	}
}

func TestDecisionTreeLearnsXOR(t *testing.T) {
	x, y := synthXOR(400, 4)
	tr := NewDecisionTree(1)
	tr.MaxDepth = 4
	if err := tr.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := Accuracy(y, tr.Predict(x)); acc < 0.9 {
		t.Errorf("XOR accuracy=%.3f, want >= 0.9", acc)
	}
}

func TestGBTLearnsXOR(t *testing.T) {
	x, y := synthXOR(400, 5)
	g := NewGBT(1)
	g.NTrees = 30
	if err := g.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if auc := AUCROC(y, g.Predict(x)); auc < 0.95 {
		t.Errorf("XOR AUC=%.3f, want >= 0.95", auc)
	}
}

func TestGBTWarmstartGrowsOnlyRemainingTrees(t *testing.T) {
	x, y := synthXOR(200, 6)
	donor := NewGBT(1)
	donor.NTrees = 20
	if err := donor.Fit(x, y); err != nil {
		t.Fatalf("donor fit: %v", err)
	}
	warm := NewGBT(1)
	warm.NTrees = 30
	if !warm.WarmstartFrom(donor) {
		t.Fatal("warmstart rejected")
	}
	if err := warm.Fit(x, y); err != nil {
		t.Fatalf("warm fit: %v", err)
	}
	if warm.TreesGrown != 10 {
		t.Errorf("TreesGrown=%d, want 10", warm.TreesGrown)
	}
	if warm.NumTrees() != 30 {
		t.Errorf("NumTrees=%d, want 30", warm.NumTrees())
	}
}

func TestRandomForestLearns(t *testing.T) {
	x, y := synthXOR(300, 7)
	rf := NewRandomForest(1)
	rf.NTrees = 15
	if err := rf.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if auc := AUCROC(y, rf.Predict(x)); auc < 0.9 {
		t.Errorf("AUC=%.3f, want >= 0.9", auc)
	}
}

func TestKNNLearns(t *testing.T) {
	x, y := synthXOR(200, 8)
	k := NewKNN()
	if err := k.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := Accuracy(y, k.Predict(x)); acc < 0.85 {
		t.Errorf("accuracy=%.3f, want >= 0.85", acc)
	}
}

func TestStandardScaler(t *testing.T) {
	x := [][]float64{{1, 10}, {2, 20}, {3, 30}}
	s := &StandardScaler{}
	if err := s.Fit(x, nil); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	out := s.Transform(x)
	for j := 0; j < 2; j++ {
		var mean float64
		for _, row := range out {
			mean += row[j]
		}
		if math.Abs(mean) > 1e-9 {
			t.Errorf("col %d mean=%v, want 0", j, mean/3)
		}
	}
	// input must be untouched
	if x[0][0] != 1 {
		t.Error("Transform mutated its input")
	}
}

func TestMinMaxScaler(t *testing.T) {
	x := [][]float64{{0, 5}, {10, 5}, {5, 5}}
	s := &MinMaxScaler{}
	if err := s.Fit(x, nil); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	out := s.Transform(x)
	if out[0][0] != 0 || out[1][0] != 1 || out[2][0] != 0.5 {
		t.Errorf("col0 wrong: %v", out)
	}
	if out[0][1] != 0 { // constant column maps to 0
		t.Errorf("constant col should map to 0, got %v", out[0][1])
	}
}

func TestSelectKBestPicksInformativeFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 200
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		informative := rng.NormFloat64()
		x[i] = []float64{rng.NormFloat64(), informative, rng.NormFloat64()}
		if informative > 0 {
			y[i] = 1
		}
	}
	s := &SelectKBest{K: 1}
	if err := s.Fit(x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if len(s.Indices) != 1 || s.Indices[0] != 1 {
		t.Errorf("selected %v, want [1]; scores=%v", s.Indices, s.Scores)
	}
	out := s.Transform(x)
	if len(out[0]) != 1 || out[3][0] != x[3][1] {
		t.Errorf("transform wrong: %v", out[3])
	}
}

func TestPCARecoversDominantDirection(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 300
	x := make([][]float64, n)
	for i := range x {
		tv := rng.NormFloat64() * 10
		x[i] = []float64{tv, tv + rng.NormFloat64()*0.1, rng.NormFloat64() * 0.1}
	}
	p := &PCA{K: 1}
	if err := p.Fit(x, nil); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	c := p.Components[0]
	// dominant direction ~ (1,1,0)/sqrt(2)
	if math.Abs(math.Abs(c[0])-math.Abs(c[1])) > 0.05 || math.Abs(c[2]) > 0.1 {
		t.Errorf("component=%v, want ~(±0.707,±0.707,0)", c)
	}
	out := p.Transform(x[:2])
	if len(out[0]) != 1 {
		t.Errorf("projection dims=%d, want 1", len(out[0]))
	}
}

func TestCountVectorizer(t *testing.T) {
	docs := []string{"red car red", "blue car", "green boat"}
	v := &CountVectorizer{MaxFeatures: 3}
	m := v.FitTransform(docs)
	if len(v.Tokens) != 3 {
		t.Fatalf("vocab=%v, want 3 tokens", v.Tokens)
	}
	// "car" and "red" are most frequent and must be in the vocab.
	if _, ok := v.Vocabulary["car"]; !ok {
		t.Errorf("vocab missing 'car': %v", v.Tokens)
	}
	if _, ok := v.Vocabulary["red"]; !ok {
		t.Errorf("vocab missing 'red': %v", v.Tokens)
	}
	if m[0][v.Vocabulary["red"]] != 2 {
		t.Errorf("count of 'red' in doc0 = %v, want 2", m[0][v.Vocabulary["red"]])
	}
}

func TestAUCPerfectAndRandom(t *testing.T) {
	y := []float64{0, 0, 1, 1}
	if auc := AUCROC(y, []float64{0.1, 0.2, 0.8, 0.9}); auc != 1 {
		t.Errorf("perfect AUC=%v, want 1", auc)
	}
	if auc := AUCROC(y, []float64{0.9, 0.8, 0.2, 0.1}); auc != 0 {
		t.Errorf("inverted AUC=%v, want 0", auc)
	}
	if auc := AUCROC(y, []float64{0.5, 0.5, 0.5, 0.5}); auc != 0.5 {
		t.Errorf("constant AUC=%v, want 0.5", auc)
	}
	if auc := AUCROC([]float64{1, 1}, []float64{0.1, 0.2}); auc != 0.5 {
		t.Errorf("single-class AUC=%v, want 0.5", auc)
	}
}

// TestAUCROCRanksNaNScoresLowest: NaN scores — a model trained on an
// infinite cell predicts them — are one tie group below every other score,
// so with no −Inf present the AUC is that of the NaNs read as −Inf. (The
// tie-group loop used to compare with ==, which never holds for a NaN, and
// spun forever.)
func TestAUCROCRanksNaNScoresLowest(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		y, scores, asInf := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range y {
			y[i] = float64(rng.Intn(2))
			scores[i] = float64(rng.Intn(5))
			if rng.Intn(3) == 0 {
				scores[i] = math.NaN()
			}
			asInf[i] = scores[i]
			if math.IsNaN(scores[i]) {
				asInf[i] = math.Inf(-1)
			}
		}
		if got, want := AUCROC(y, scores), AUCROC(y, asInf); got != want {
			t.Errorf("seed %d: AUC %v with NaN scores, %v with them read as −Inf", seed, got, want)
		}
	}
}

func TestMetricsBasics(t *testing.T) {
	y := []float64{0, 1, 1}
	if acc := Accuracy(y, []float64{0.2, 0.7, 0.4}); math.Abs(acc-2.0/3) > 1e-12 {
		t.Errorf("accuracy=%v", acc)
	}
	if ll := LogLoss(y, []float64{0.0, 1.0, 1.0}); ll > 1e-6 {
		t.Errorf("perfect logloss=%v, want ~0", ll)
	}
	if r := RMSE([]float64{1, 2}, []float64{1, 4}); math.Abs(r-math.Sqrt(2)) > 1e-12 {
		t.Errorf("rmse=%v", r)
	}
}

func TestTrainTestSplit(t *testing.T) {
	train, test := TrainTestSplit(100, 0.2, 42)
	if len(test) != 20 || len(train) != 80 {
		t.Fatalf("split sizes %d/%d", len(train), len(test))
	}
	seen := make(map[int]bool)
	for _, i := range append(append([]int(nil), train...), test...) {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatalf("row %d out of range or in both portions", i)
		}
		seen[i] = true
	}
	train2, _ := TrainTestSplit(100, 0.2, 42)
	for j := range train {
		if train[j] != train2[j] {
			t.Fatal("split not deterministic for equal seeds")
		}
	}
}

func TestModelSizeBytesPositive(t *testing.T) {
	x, y := synthLinear(50, 3, 12)
	models := []Model{NewLogisticRegression(1), NewLinearRegression(1), NewDecisionTree(1), NewGBT(1), NewRandomForest(1), NewKNN()}
	for _, m := range models {
		if err := m.Fit(x, y); err != nil {
			t.Fatalf("%s Fit: %v", m.Kind(), err)
		}
		if m.SizeBytes() <= 0 {
			t.Errorf("%s SizeBytes=%d, want > 0", m.Kind(), m.SizeBytes())
		}
	}
}

func TestFitRejectsEmptyData(t *testing.T) {
	models := []Model{NewLogisticRegression(1), NewLinearRegression(1), NewDecisionTree(1), NewGBT(1), NewRandomForest(1), NewKNN()}
	for _, m := range models {
		if err := m.Fit(nil, nil); err == nil {
			t.Errorf("%s Fit(nil) should error", m.Kind())
		}
		if err := m.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
			t.Errorf("%s Fit(mismatched) should error", m.Kind())
		}
	}
}

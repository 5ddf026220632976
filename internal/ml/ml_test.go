package ml

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/data"
)

// matrixColumns turns a row-major matrix into one float column per feature,
// as a frame would hold it, and the index of every row. A matrix of no rows
// has no columns.
func matrixColumns(x [][]float64) ([]*data.Column, []int) {
	if len(x) == 0 {
		return nil, nil
	}
	cols := make([]*data.Column, len(x[0]))
	for f := range cols {
		vals := make([]float64, len(x))
		for i, row := range x {
			vals[i] = row[f]
		}
		cols[f] = &data.Column{Type: data.Float64, Floats: vals}
	}
	rows := make([]int, len(x))
	for i := range rows {
		rows[i] = i
	}
	return cols, rows
}

// cellRows is the given rows of cols (every row of the first column present
// when rows is nil) as a row-major matrix, converted cell by cell: a
// missing value, a non-numeric cell and a nil column read as 0.
func cellRows(cols []*data.Column, rows []int) [][]float64 {
	if rows == nil {
		rows = []int{}
		for _, c := range cols {
			if c != nil {
				for i := 0; i < c.Len(); i++ {
					rows = append(rows, i)
				}
				break
			}
		}
	}
	m := make([][]float64, len(rows))
	for r, i := range rows {
		m[r] = make([]float64, len(cols))
		for j, c := range cols {
			if c != nil && c.Type.IsNumeric() && !c.IsMissing(i) {
				m[r][j] = c.Float(i)
			}
		}
	}
	return m
}

// fitRows fits m on every row of the matrix x.
func fitRows(m Model, x [][]float64, y []float64) error {
	cols, rows := matrixColumns(x)
	return m.Fit(cols, rows, y)
}

// predictRows scores every row of the matrix x with m.
func predictRows(m Model, x [][]float64) []float64 {
	cols, _ := matrixColumns(x)
	return m.Predict(cols, nil)
}

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
	if err := fitRows(m, x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	auc := AUCROC(y, predictRows(m, x))
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
	if err := fitRows(cold, x, y); err != nil {
		t.Fatalf("cold fit: %v", err)
	}
	warm := NewLogisticRegression(7)
	warm.MaxIter = 2000
	warm.LearningRate = 0.5
	warm.Tol = 1e-5
	if !warm.WarmstartFrom(cold) {
		t.Fatal("WarmstartFrom should accept a fitted logreg")
	}
	if err := fitRows(warm, x, y); err != nil {
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
	if err := fitRows(m, x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if rmse := RMSE(y, predictRows(m, x)); rmse > 0.1 {
		t.Errorf("RMSE=%.4f, want <= 0.1", rmse)
	}
}

// TestLinearRegressionLearnsUnscaledFeatures: with its default step size,
// the regression fits features whose scales differ by six orders of
// magnitude, one of them constant, and its raw-space weights recover the
// generating ones; a warmstart from it starts at that fit, and stops within
// a few epochs where the cold fit took many.
func TestLinearRegressionLearnsUnscaledFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 400
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		big, small := 1000*rng.Float64(), 0.001*rng.Float64()
		x[i] = []float64{big, small, 7}
		y[i] = 0.003*big + 2000*small + 1 + 0.01*rng.NormFloat64()
	}
	m := NewLinearRegression(1)
	m.MaxIter = 2000
	if err := fitRows(m, x, y); err != nil {
		t.Fatal(err)
	}
	if rmse := RMSE(y, predictRows(m, x)); !(rmse < 0.05) {
		t.Fatalf("RMSE=%v, want < 0.05", rmse)
	}
	if math.Abs(m.Weights[0]-0.003) > 1e-4 || math.Abs(m.Weights[1]-2000) > 50 {
		t.Errorf("weights %v, want about [0.003 2000 _]", m.Weights)
	}
	warm := NewLinearRegression(1)
	warm.MaxIter = 2000
	if !warm.WarmstartFrom(m) {
		t.Fatal("warmstart refused a fitted donor")
	}
	if err := fitRows(warm, x, y); err != nil {
		t.Fatal(err)
	}
	if warm.EpochsRun > 5 || warm.EpochsRun >= m.EpochsRun {
		t.Errorf("warmstarted fit ran %d epochs, the cold one %d", warm.EpochsRun, m.EpochsRun)
	}
}

// TestLinearRegressionFitsBesideAConstantFeature: a constant feature whose
// mean rounds off its value has a computed standard deviation of a rounding
// residue, not 0; it is only centred, as a deviation of exactly 0 is, and the
// fit recovers the other feature's line with a weight near 0 on it.
func TestLinearRegressionFitsBesideAConstantFeature(t *testing.T) {
	x, y := make([][]float64, 7), make([]float64, 7)
	for i := range x {
		x[i] = []float64{float64(i), 0.1}
		y[i] = 2*float64(i) + 1
	}
	m := NewLinearRegression(1)
	m.MaxIter = 2000
	if err := fitRows(m, x, y); err != nil {
		t.Fatal(err)
	}
	for i, p := range predictRows(m, x) {
		if math.Abs(p-y[i]) > 0.01 {
			t.Errorf("row %d: predicted %v, target %v", i, p, y[i])
		}
	}
	if w := m.Weights[1]; !(math.Abs(w) < 1) {
		t.Errorf("weight %v on the constant feature, want |w| < 1", w)
	}
}

func TestDecisionTreeLearnsXOR(t *testing.T) {
	x, y := synthXOR(400, 4)
	tr := NewDecisionTree(1)
	tr.MaxDepth = 4
	if err := fitRows(tr, x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := Accuracy(y, predictRows(tr, x)); acc < 0.9 {
		t.Errorf("XOR accuracy=%.3f, want >= 0.9", acc)
	}
}

func TestGBTLearnsXOR(t *testing.T) {
	x, y := synthXOR(400, 5)
	g := NewGBT(1)
	g.NTrees = 30
	if err := fitRows(g, x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if auc := AUCROC(y, predictRows(g, x)); auc < 0.95 {
		t.Errorf("XOR AUC=%.3f, want >= 0.95", auc)
	}
}

func TestGBTWarmstartGrowsOnlyRemainingTrees(t *testing.T) {
	x, y := synthXOR(200, 6)
	donor := NewGBT(1)
	donor.NTrees = 20
	if err := fitRows(donor, x, y); err != nil {
		t.Fatalf("donor fit: %v", err)
	}
	warm := NewGBT(1)
	warm.NTrees = 30
	if !warm.WarmstartFrom(donor) {
		t.Fatal("warmstart rejected")
	}
	if err := fitRows(warm, x, y); err != nil {
		t.Fatalf("warm fit: %v", err)
	}
	if warm.TreesGrown != 10 {
		t.Errorf("TreesGrown=%d, want 10", warm.TreesGrown)
	}
	if len(warm.Trees) != 30 {
		t.Errorf("%d trees, want 30", len(warm.Trees))
	}
}

func TestRandomForestLearns(t *testing.T) {
	x, y := synthXOR(300, 7)
	rf := NewRandomForest(1)
	rf.NTrees = 15
	if err := fitRows(rf, x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if auc := AUCROC(y, predictRows(rf, x)); auc < 0.9 {
		t.Errorf("AUC=%.3f, want >= 0.9", auc)
	}
}

func TestKNNLearns(t *testing.T) {
	x, y := synthXOR(200, 8)
	k := NewKNN()
	if err := fitRows(k, x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if acc := Accuracy(y, predictRows(k, x)); acc < 0.85 {
		t.Errorf("accuracy=%.3f, want >= 0.85", acc)
	}
}

func TestStandardScaler(t *testing.T) {
	x := [][]float64{{1, 10}, {2, 20}, {3, 30}}
	cols, _ := matrixColumns(x)
	s := &StandardScaler{}
	if err := s.Fit(cols, 3); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	out := s.Transform(cols, 3)
	for j := 0; j < 2; j++ {
		var mean float64
		for _, v := range out[j*3 : (j+1)*3] {
			mean += v
		}
		if math.Abs(mean) > 1e-9 {
			t.Errorf("col %d mean=%v, want 0", j, mean/3)
		}
	}
	// input must be untouched
	if cols[0].Floats[0] != 1 {
		t.Error("Transform mutated its input")
	}
}

func TestMinMaxScaler(t *testing.T) {
	cols, _ := matrixColumns([][]float64{{0, 5}, {10, 5}, {5, 5}})
	s := &MinMaxScaler{}
	if err := s.Fit(cols, 3); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	out := s.Transform(cols, 3)
	if out[0] != 0 || out[1] != 1 || out[2] != 0.5 {
		t.Errorf("col0 wrong: %v", out[:3])
	}
	if out[3] != 0 { // constant column maps to 0
		t.Errorf("constant col should map to 0, got %v", out[3])
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
	cols, _ := matrixColumns(x)
	s := &SelectKBest{K: 1}
	if err := s.Fit(cols, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if len(s.Indices) != 1 || s.Indices[0] != 1 {
		t.Errorf("selected %v, want [1]; scores=%v", s.Indices, s.Scores)
	}
	if err := s.Fit(cols, y[1:]); err == nil {
		t.Error("Fit on a target shorter than the columns should error")
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
	cols, _ := matrixColumns(x)
	p := &PCA{K: 1}
	if err := p.Fit(cols, n); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	c := p.Components[0]
	// dominant direction ~ (1,1,0)/sqrt(2)
	if math.Abs(math.Abs(c[0])-math.Abs(c[1])) > 0.05 || math.Abs(c[2]) > 0.1 {
		t.Errorf("component=%v, want ~(±0.707,±0.707,0)", c)
	}
	if out := p.Transform(cols, n); len(out) != n {
		t.Errorf("projection holds %d values, want one per row", len(out))
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
	// column-major: token j of document i is at j*len(docs)+i
	if got := m[v.Vocabulary["red"]*len(docs)]; got != 2 {
		t.Errorf("count of 'red' in doc0 = %v, want 2", got)
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
		if err := fitRows(m, x, y); err != nil {
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
		if err := m.Fit(nil, nil, nil); err == nil {
			t.Errorf("%s Fit(nil) should error", m.Kind())
		}
		if err := fitRows(m, [][]float64{{1}}, []float64{1, 2}); err == nil {
			t.Errorf("%s Fit(mismatched) should error", m.Kind())
		}
	}
}

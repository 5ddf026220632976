package ml

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/parallel"
)

// mixedColumns draws a training frame with the column shapes the workloads
// have: continuous, one-hot, small-integer and a float column with missing
// values; the target depends on the first three.
func mixedColumns(rng *rand.Rand, n, d int) ([]*data.Column, []float64) {
	cols := make([]*data.Column, d)
	score := make([]float64, n)
	for f := range cols {
		vals := make([]float64, n)
		for i := range vals {
			switch f % 4 {
			case 0:
				vals[i] = rng.NormFloat64()
			case 1:
				vals[i] = float64(rng.Intn(2))
			case 2:
				vals[i] = float64(rng.Intn(7))
			default:
				if vals[i] = rng.ExpFloat64(); rng.Intn(10) == 0 {
					vals[i] = math.NaN()
				}
			}
			if f < 3 {
				score[i] += vals[i] * float64(f+1)
			}
		}
		cols[f] = &data.Column{Type: data.Float64, Floats: vals}
	}
	y := make([]float64, n)
	for i, s := range score {
		if s+rng.NormFloat64() > 4 {
			y[i] = 1
		}
	}
	return cols, y
}

// predictByBins routes row i through an exported tree by bins alone: every
// threshold must be one of its feature's edges, and the row goes left when
// its bin is <= that edge's.
func predictByBins(t *testing.T, n *TreeNode, cols []*data.Column, i int) float64 {
	for n.Feature >= 0 {
		q := cols[n.Feature].Quantiles()
		b := sort.SearchFloat64s(q.Edges, n.Threshold)
		if b == len(q.Edges) || q.Edges[b] != n.Threshold {
			t.Fatalf("threshold %v of feature %d is not one of its bin edges %v", n.Threshold, n.Feature, q.Edges)
		}
		if int(q.Bins[i]) <= b {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Value
}

// TestQuickTreesPredictAlikeThroughBinsAndFloats: a tree, forest or boosted
// ensemble fitted on columns scores every row of the frame — trained on or
// held out — the same through its bins as through TreeNode.predictAt on the
// floats, which is what lets boosting update scores without the floats.
func TestQuickTreesPredictAlikeThroughBinsAndFloats(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols, y := mixedColumns(rng, 200+rng.Intn(400), 4+rng.Intn(8))
		train, _ := TrainTestSplit(len(y), 0.25, seed)

		tree := NewDecisionTree(seed)
		gbt := NewGBT(seed)
		gbt.NTrees, gbt.Subsample = 6, []float64{1, 0.7}[rng.Intn(2)]
		rf := NewRandomForest(seed)
		rf.NTrees = 4
		for _, m := range []Model{tree, gbt, rf} {
			if err := m.Fit(cols, train, y); err != nil {
				t.Fatal(err)
			}
		}
		roots := append([]*TreeNode{tree.Root}, gbt.Trees...)
		for _, dt := range rf.Trees {
			roots = append(roots, dt.Root)
		}
		for _, root := range roots {
			for i := range y {
				if predictByBins(t, root, cols, i) != root.predictAt(cols, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickPredictColumnsIsPredictOfNumericRows: every learner scores a
// frame's rows, bit for bit, as it scores float columns holding cellRows,
// the cell-by-cell conversion, of the same columns and rows — with missing
// cells, an int and a bool column, a row subset and every row, and a
// feature the frame lacks, which all read as zeros. For logistic regression
// the same holds of the fit: Fit on a row subset is Fit on float columns of
// those numeric rows.
func TestQuickPredictColumnsIsPredictOfNumericRows(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(300)
		cols, y := mixedColumns(rng, n, 6+rng.Intn(6))
		ints, bools := make([]int64, n), make([]bool, n)
		for i := range ints {
			ints[i], bools[i] = int64(rng.Intn(9)-4), rng.Intn(2) == 0
		}
		cols[4] = &data.Column{Type: data.Int64, Ints: ints}
		cols[5] = &data.Column{Type: data.Bool, Bools: bools}
		train, test := TrainTestSplit(n, 0.25, seed)

		tree := NewDecisionTree(seed)
		gbt := NewGBT(seed)
		gbt.NTrees = 6
		rf := NewRandomForest(seed)
		rf.NTrees = 4
		logreg := NewLogisticRegression(seed)
		fitted := []Model{tree, gbt, rf, logreg, NewLinearRegression(seed), NewKNN(), NewGaussianNB(), NewLinearSVM(seed)}
		for _, m := range fitted {
			if err := m.Fit(cols, train, y); err != nil {
				t.Fatal(err)
			}
		}
		// The scored frame lacks the feature the fit saw second.
		scored := append([]*data.Column(nil), cols...)
		scored[1] = nil

		// Logistic regression trains on what it scores: the same fit on the
		// frame without that feature is the fit on its numeric rows.
		viaColumns, viaRows := NewLogisticRegression(seed), NewLogisticRegression(seed)
		if err := viaColumns.Fit(scored, train, y); err != nil {
			t.Fatal(err)
		}
		yTrain := make([]float64, len(train))
		for k, i := range train {
			yTrain[k] = y[i]
		}
		if err := fitRows(viaRows, cellRows(scored, train), yTrain); err != nil {
			t.Fatal(err)
		}
		if viaColumns.EpochsRun != viaRows.EpochsRun || viaColumns.Bias != viaRows.Bias {
			return false
		}
		for j, w := range viaRows.Weights {
			if viaColumns.Weights[j] != w {
				return false
			}
		}

		// score zeros, or 0.5 everywhere, either way
		unfitted := []Model{&DecisionTree{}, &RandomForest{}, &LogisticRegression{}}
		for _, m := range append(unfitted, fitted...) {
			for _, rows := range [][]int{nil, test, {}} {
				got, want := m.Predict(scored, rows), predictRows(m, cellRows(scored, rows))
				if len(got) != len(want) {
					return false
				}
				for j := range got {
					if got[j] != want[j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestGBTWarmstartOnColumns: a warmstarted fit on columns scores the donor's
// trees before growing its own and ends where a cold fit of the full size
// does — the donor was its prefix.
func TestGBTWarmstartOnColumns(t *testing.T) {
	cols, y := mixedColumns(rand.New(rand.NewSource(9)), 500, 8)
	train, _ := TrainTestSplit(len(y), 0.25, 9)
	fit := func(trees int, donor Model) *GradientBoostedTrees {
		g := NewGBT(1)
		g.NTrees = trees
		if donor != nil && !g.WarmstartFrom(donor) {
			t.Fatal("donor rejected")
		}
		if err := g.Fit(cols, train, y); err != nil {
			t.Fatal(err)
		}
		return g
	}
	donor := fit(5, nil)
	warm, cold := fit(8, donor), fit(8, nil)
	if warm.TreesGrown != 3 {
		t.Errorf("warmstarted fit grew %d trees, want 3", warm.TreesGrown)
	}
	a, b := warm.Predict(cols, nil), cold.Predict(cols, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction %d: %v warmstarted, %v cold", i, a[i], b[i])
		}
	}
}

// TestGBTWarmstartFromALargerDonor: a donor with more trees than the variant
// asks for and the same hyperparameters is a prefix-compatible ensemble
// whose first NTrees trees are the variant's: the fit keeps those, grows
// none, and predicts bit for bit as a fit from scratch.
func TestGBTWarmstartFromALargerDonor(t *testing.T) {
	cols, y := mixedColumns(rand.New(rand.NewSource(9)), 500, 8)
	train, _ := TrainTestSplit(len(y), 0.25, 9)
	fit := func(trees int, donor Model) *GradientBoostedTrees {
		g := NewGBT(1)
		g.NTrees = trees
		if donor != nil && !g.WarmstartFrom(donor) {
			t.Fatal("donor rejected")
		}
		if err := g.Fit(cols, train, y); err != nil {
			t.Fatal(err)
		}
		return g
	}
	donor := fit(8, nil)
	warm, cold := fit(5, donor), fit(5, nil)
	if len(warm.Trees) != 5 || warm.TreesGrown != 0 || len(donor.Trees) != 8 {
		t.Errorf("warmstarted fit holds %d trees and grew %d (donor %d), want 5 and 0 (8)", len(warm.Trees), warm.TreesGrown, len(donor.Trees))
	}
	a, b := warm.Predict(cols, nil), cold.Predict(cols, nil)
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("prediction %d: %v warmstarted, %v cold", i, a[i], b[i])
		}
	}
}

// heapBytes is what one call of fn allocates on the heap.
func heapBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSecondFitFindsItsBinsBuilt: a fit leaves every feature column with its
// quantile view built, so a later fit on those columns builds none — so sorts
// nothing — and allocates neither per row and feature nor anything near a
// rows × features buffer: its scratch is a few vectors of one entry per row.
func TestSecondFitFindsItsBinsBuilt(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	const rows, features = 4000, 100
	cols, y := mixedColumns(rand.New(rand.NewSource(3)), rows, features)
	train, _ := TrainTestSplit(rows, 0.25, 3)
	seed := int64(0)
	fit := func() {
		seed++
		g := NewGBT(seed)
		g.NTrees, g.MaxDepth = 5, 3
		if err := g.Fit(cols, train, y); err != nil {
			t.Fatal(err)
		}
	}
	fit()
	// Building a view takes a float per row; asking for a built one, nothing.
	views := make([]*data.Quantiles, features)
	for f, c := range cols {
		if got := heapBytes(func() { views[f] = c.Quantiles() }); got >= rows {
			t.Fatalf("feature %d: asking for its view after a fit allocated %d bytes: the fit did not build it", f, got)
		}
	}

	if got := heapBytes(fit); got >= rows*features {
		t.Errorf("the second fit allocated %d bytes, a rows × features byte buffer is %d", got, rows*features)
	}
	for f, c := range cols {
		if c.Quantiles() != views[f] {
			t.Errorf("feature %d: the second fit replaced its view", f)
		}
	}
	// Per tree at most 15 nodes and three parallel loops, plus a fixed set
	// of scratch vectors: nothing per feature (100 would show), nothing per
	// row.
	const perFit = 5*32 + 64
	if allocs := testing.AllocsPerRun(5, fit); allocs > perFit {
		t.Errorf("a later fit makes %.0f allocations, want at most %d", allocs, perFit)
	}
}

package ml

import (
	"fmt"
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

// rowsOf is the float matrix Predict reads for cols: missing counts as 0.
func rowsOf(cols []*data.Column) [][]float64 {
	x := make([][]float64, cols[0].Len())
	for i := range x {
		x[i] = make([]float64, len(cols))
		for f, c := range cols {
			c.FillNumeric(x[i][f:], 1, []int{i})
		}
	}
	return x
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
// held out — the same through its bins as through TreeNode.predict on
// floats, which is what lets boosting update scores without the floats.
func TestQuickTreesPredictAlikeThroughBinsAndFloats(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols, y := mixedColumns(rng, 200+rng.Intn(400), 4+rng.Intn(8))
		train, _ := TrainTestSplit(len(y), 0.25, seed)
		x := rowsOf(cols)

		tree := NewDecisionTree(seed)
		gbt := NewGBT(seed)
		gbt.NTrees, gbt.Subsample = 6, []float64{1, 0.7}[rng.Intn(2)]
		rf := NewRandomForest(seed)
		rf.NTrees = 4
		for _, m := range []ColumnFitter{tree, gbt, rf} {
			if err := m.FitColumns(cols, train, y); err != nil {
				t.Fatal(err)
			}
		}
		roots := append([]*TreeNode{tree.Root}, gbt.Trees...)
		for _, dt := range rf.Trees {
			roots = append(roots, dt.Root)
		}
		for _, root := range roots {
			for i := range x {
				if predictByBins(t, root, cols, i) != root.predict(x[i]) {
					return false
				}
			}
		}
		// predictAt, which scores a warmstart donor's trees on the columns,
		// agrees too.
		for i := range x {
			if gbt.Trees[0].predictAt(cols, i) != gbt.Trees[0].predict(x[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestQuickPredictColumnsIsPredictOfNumericRows: scoring a frame's rows
// through the columns gives, bit for bit, what Predict gives on the float
// matrix of the same columns and rows — with missing cells, an int and a
// bool column, a row subset and every row, and a feature the frame lacks,
// which both read as zeros. For logistic regression the same holds of the
// fit: FitColumns on a row subset is Fit on those numeric rows.
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
		names := make([]string, len(cols))
		for f, c := range cols {
			names[f] = fmt.Sprint("f", f)
			c.Name = names[f]
		}
		train, test := TrainTestSplit(n, 0.25, seed)

		tree := NewDecisionTree(seed)
		gbt := NewGBT(seed)
		gbt.NTrees = 6
		rf := NewRandomForest(seed)
		rf.NTrees = 4
		logreg := NewLogisticRegression(seed)
		for _, m := range []ColumnFitter{tree, gbt, rf, logreg} {
			if err := m.FitColumns(cols, train, y); err != nil {
				t.Fatal(err)
			}
		}
		// The scored frame lacks the feature the fit saw second.
		scored := append([]*data.Column(nil), cols...)
		scored[1] = nil
		frame := data.MustNewFrame(append(scored[:1:1], scored[2:]...)...)

		// Logistic regression trains on what it scores: the same fit on the
		// frame without that feature is Fit on the frame's numeric rows.
		viaColumns, viaRows := NewLogisticRegression(seed), NewLogisticRegression(seed)
		if err := viaColumns.FitColumns(scored, train, y); err != nil {
			t.Fatal(err)
		}
		yTrain := make([]float64, len(train))
		for k, i := range train {
			yTrain[k] = y[i]
		}
		if err := viaRows.Fit(frame.NumericRows(names, train), yTrain); err != nil {
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
		unfitted := []ColumnFitter{&DecisionTree{}, &RandomForest{}, &LogisticRegression{}}
		for _, m := range append(unfitted, tree, gbt, rf, logreg) {
			for _, rows := range [][]int{nil, test, {}} {
				got, want := m.PredictColumns(scored, rows), m.Predict(frame.NumericRows(names, rows))
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

// TestFitIsFitColumnsOnTheMatrixColumns: Fit stays a thin wrapper.
func TestFitIsFitColumnsOnTheMatrixColumns(t *testing.T) {
	x, y := synthLinear(600, 10, 5)
	rows := make([]int, len(x))
	for i := range rows {
		rows[i] = i
	}
	for _, mk := range []func() ColumnFitter{
		func() ColumnFitter { return NewDecisionTree(2) },
		func() ColumnFitter { return NewGBT(2) },
		func() ColumnFitter { return NewRandomForest(2) },
		func() ColumnFitter { return NewLogisticRegression(2) },
	} {
		viaFit, viaColumns := mk(), mk()
		if err := viaFit.Fit(x, y); err != nil {
			t.Fatal(err)
		}
		if err := viaColumns.FitColumns(columnsOf(x), rows, y); err != nil {
			t.Fatal(err)
		}
		a, b := viaFit.Predict(x), viaColumns.Predict(x)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: prediction %d is %v through Fit, %v through FitColumns", viaFit.Kind(), i, a[i], b[i])
			}
		}
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
		if err := g.FitColumns(cols, train, y); err != nil {
			t.Fatal(err)
		}
		return g
	}
	donor := fit(5, nil)
	warm, cold := fit(8, donor), fit(8, nil)
	if warm.TreesGrown != 3 {
		t.Errorf("warmstarted fit grew %d trees, want 3", warm.TreesGrown)
	}
	x := rowsOf(cols)
	a, b := warm.Predict(x), cold.Predict(x)
	for i := range a {
		if a[i] != b[i] {
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
		if err := g.FitColumns(cols, train, y); err != nil {
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

package ml

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/data"
	"repro/internal/parallel"
)

// TreeNode is one node of a binary regression/classification tree. Leaves
// have Feature == -1. Fields are exported so fitted trees survive gob
// encoding across the client/server wire.
type TreeNode struct {
	Feature     int
	Threshold   float64
	Value       float64
	Left, Right *TreeNode
}

func (n *TreeNode) predict(row []float64) float64 {
	for n.Feature >= 0 {
		if row[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Value
}

func (n *TreeNode) count() int64 {
	if n == nil {
		return 0
	}
	return 1 + n.Left.count() + n.Right.count()
}

// predictAt is predict on row i of cols, reading floats. Trees grown in the
// current fit are scored through bins (grower.predict); this serves a
// warmstart donor's trees, whose thresholds need not be bin edges of cols.
func (n *TreeNode) predictAt(cols []*data.Column, i int) float64 {
	for n.Feature >= 0 {
		v := cols[n.Feature].Float(i)
		if v != v { // missing counts as 0, as in the columns' quantile views
			v = 0
		}
		if v <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Value
}

// binned is the training set of the tree learners, column-major: per feature
// the ascending inclusive upper bin edges and the bin of every row of the
// frame, one contiguous byte array per feature. It is read-only and shared
// by all trees of an ensemble — and, through data.Column.Quantiles, by every
// fit on the same columns.
type binned struct {
	edges [][]float64
	bins  [][]uint8
}

func binColumns(cols []*data.Column) *binned {
	b := &binned{edges: make([][]float64, len(cols)), bins: make([][]uint8, len(cols))}
	// Columns are binned independently; a column binned before costs a lookup.
	parallel.ForSite(parallel.SiteML, len(cols), 8, func(lo, hi int) {
		for f := lo; f < hi; f++ {
			q := cols[f].Quantiles()
			b.edges[f], b.bins[f] = q.Edges, q.Bins
		}
	})
	return b
}

// fitMatrix is Fit for the tree learners: x's columns are binned as they
// would be in a frame and the model trains on every row.
func fitMatrix(m ColumnFitter, x [][]float64, y []float64) error {
	if len(x) == 0 || len(x) != len(y) {
		return fmt.Errorf("ml: %s: empty or mismatched training data", m.Kind())
	}
	rows := make([]int, len(x))
	for i := range rows {
		rows[i] = i
	}
	return m.FitColumns(columnsOf(x), rows, y)
}

// columnsOf transposes a non-empty row-major matrix into one float column
// per feature.
func columnsOf(x [][]float64) []*data.Column {
	cols := make([]*data.Column, len(x[0]))
	for f := range cols {
		vals := make([]float64, len(x))
		for i, row := range x {
			vals[i] = row[f]
		}
		cols[f] = &data.Column{Type: data.Float64, Floats: vals}
	}
	return cols
}

// checkColumns validates the arguments of FitColumns.
func checkColumns(kind string, cols []*data.Column, rows []int, y []float64) error {
	if len(cols) == 0 || len(rows) == 0 || cols[0].Len() != len(y) {
		return fmt.Errorf("ml: %s: empty or mismatched training data", kind)
	}
	return nil
}

// DecisionTree is a CART-style tree using histogram split finding. With
// Classification=true it minimizes Gini impurity and predicts the
// positive-class fraction of the leaf; otherwise it minimizes variance and
// predicts the leaf mean.
type DecisionTree struct {
	// MaxDepth limits tree depth. Default 4.
	MaxDepth int
	// MinSamplesLeaf is the minimum rows in a leaf. Default 2.
	MinSamplesLeaf int
	// MaxFeatures, when positive, samples that many candidate features
	// per split (used by RandomForest). 0 means all features.
	MaxFeatures int
	// Classification toggles Gini (true) vs variance (false) splitting.
	Classification bool
	// Seed drives feature sub-sampling.
	Seed int64

	// Root is the fitted tree (exported for serialization).
	Root *TreeNode
}

// NewDecisionTree returns a classification tree with package defaults.
func NewDecisionTree(seed int64) *DecisionTree {
	return &DecisionTree{MaxDepth: 4, MinSamplesLeaf: 2, Classification: true, Seed: seed}
}

// Kind implements Model.
func (t *DecisionTree) Kind() string { return "tree" }

// Fit implements Model.
func (t *DecisionTree) Fit(x [][]float64, y []float64) error { return fitMatrix(t, x, y) }

// FitColumns implements ColumnFitter.
func (t *DecisionTree) FitColumns(cols []*data.Column, rows []int, y []float64) error {
	if err := checkColumns(t.Kind(), cols, rows, y); err != nil {
		return err
	}
	if t.MaxDepth == 0 {
		t.MaxDepth = 4
	}
	if t.MinSamplesLeaf == 0 {
		t.MinSamplesLeaf = 2
	}
	t.Root = t.grower(binColumns(cols)).grow(y, append([]int(nil), rows...))
	return nil
}

// grower returns the grower the tree's parameters describe.
func (t *DecisionTree) grower(b *binned) *grower {
	g := &grower{b: b, maxDepth: t.MaxDepth, minLeaf: t.MinSamplesLeaf, classification: t.Classification}
	if t.MaxFeatures > 0 && t.MaxFeatures < len(b.edges) {
		g.maxFeatures = t.MaxFeatures
		g.rng = rand.New(rand.NewSource(t.Seed))
	}
	return g
}

// binNode is a tree node as it is grown: a split sends a row left when its
// bin of feature is <= bin. Leaves have feature == -1.
type binNode struct {
	feature     int
	bin         uint8
	left, right int
	value       float64
}

// grower grows one tree over a binned training set. The tree lives in bins
// (nodes) until export gives every split the float threshold its bin stands
// for; predict scores training rows without touching floats.
type grower struct {
	b              *binned
	maxDepth       int
	minLeaf        int
	maxFeatures    int // candidate features per split; 0 means all
	classification bool
	rng            *rand.Rand // set when maxFeatures is

	nodes []binNode
	// Scratch reused by every node of the tree.
	right   []int
	feats   []int
	results []featSplit
	hist    []binStats
}

type binStats struct {
	cnt  float64
	sum  float64
	sum2 float64
}

// grow grows the tree on the rows idx, which it reorders, against the target
// y (indexed by row) and returns it in its exported form.
func (g *grower) grow(y []float64, idx []int) *TreeNode {
	g.nodes = g.nodes[:0]
	g.build(y, idx, 0)
	return g.export(0)
}

func (g *grower) build(y []float64, idx []int, depth int) int {
	var sum float64
	for _, i := range idx {
		sum += y[i]
	}
	k := len(g.nodes)
	g.nodes = append(g.nodes, binNode{feature: -1, value: sum / float64(len(idx))})
	if depth >= g.maxDepth || len(idx) < 2*g.minLeaf {
		return k
	}
	feat, bin, ok := g.bestSplit(y, idx)
	if !ok {
		return k
	}
	// Stable partition in place: left rows move to the front, right rows wait
	// in scratch that is free again before either child is grown.
	bins := g.b.bins[feat]
	nl := 0
	g.right = g.right[:0]
	for _, i := range idx {
		if bins[i] <= bin {
			idx[nl] = i
			nl++
		} else {
			g.right = append(g.right, i)
		}
	}
	copy(idx[nl:], g.right)
	if nl < g.minLeaf || len(idx)-nl < g.minLeaf {
		return k
	}
	left := g.build(y, idx[:nl], depth+1)
	right := g.build(y, idx[nl:], depth+1)
	g.nodes[k].feature, g.nodes[k].bin = feat, bin
	g.nodes[k].left, g.nodes[k].right = left, right
	return k
}

// predict scores row i of the training columns with the tree last grown.
func (g *grower) predict(i int) float64 {
	n := &g.nodes[0]
	for n.feature >= 0 {
		if g.b.bins[n.feature][i] <= n.bin {
			n = &g.nodes[n.left]
		} else {
			n = &g.nodes[n.right]
		}
	}
	return n.value
}

// export renders the subtree at node k with float thresholds: a row's bin is
// <= bin exactly when its value is <= edges[bin], so the exported tree
// routes every row as the binned one does.
func (g *grower) export(k int) *TreeNode {
	n := g.nodes[k]
	out := &TreeNode{Feature: n.feature, Value: n.value}
	if n.feature >= 0 {
		out.Threshold = g.b.edges[n.feature][n.bin]
		out.Left, out.Right = g.export(n.left), g.export(n.right)
	}
	return out
}

// parallelSplitWork is the minimum rows×features product at which a split
// search fans out over the shared pool; smaller nodes keep the sequential
// reusable-scratch path.
const parallelSplitWork = 1 << 15

// featSplit is one feature's best split candidate.
type featSplit struct {
	score float64
	bin   uint8
	ok    bool
}

// scanFeature accumulates per-bin label statistics for one feature — bins is
// its byte per row, nEdges its number of bin edges — in one pass and scans
// bin boundaries for the impurity-minimizing split. hist is caller-provided
// scratch of length >= data.MaxBins.
func scanFeature(bins []uint8, nEdges int, y []float64, idx []int, ts, ts2, n float64, classification bool, hist []binStats) featSplit {
	if nEdges == 0 {
		return featSplit{} // constant feature
	}
	h := hist[:nEdges+1]
	for k := range h {
		h[k] = binStats{}
	}
	for _, i := range idx {
		s := &h[bins[i]]
		yi := y[i]
		s.cnt++
		s.sum += yi
		s.sum2 += yi * yi
	}
	best := featSplit{score: math.Inf(1)}
	var ln, ls, ls2 float64
	for b := 0; b < nEdges; b++ {
		ln += h[b].cnt
		ls += h[b].sum
		ls2 += h[b].sum2
		rn := n - ln
		if ln == 0 || rn == 0 {
			continue
		}
		rs := ts - ls
		var score float64
		if classification {
			score = 2*(ls-ls*ls/ln) + 2*(rs-rs*rs/rn)
		} else {
			rs2 := ts2 - ls2
			score = (ls2 - ls*ls/ln) + (rs2 - rs*rs/rn)
		}
		if score < best.score {
			best = featSplit{score: score, bin: uint8(b), ok: true}
		}
	}
	return best
}

// bestSplit finds the impurity-minimizing (feature, bin) split. Candidate
// features are scanned independently — in parallel on the shared pool when
// the node is large enough — and reduced in feats order with strict
// comparison, so the winner (including tie-breaks) is identical to a
// sequential scan.
func (g *grower) bestSplit(y []float64, idx []int) (feat int, bin uint8, ok bool) {
	d := len(g.b.edges)
	if g.feats == nil {
		g.feats = make([]int, d)
		for j := range g.feats {
			g.feats[j] = j
		}
		g.results = make([]featSplit, d)
		g.hist = make([]binStats, data.MaxBins)
	}
	feats := g.feats
	if g.maxFeatures > 0 {
		// Every split shuffles the identity order, as a fresh list would be.
		for j := range feats {
			feats[j] = j
		}
		g.rng.Shuffle(d, func(a, b int) { feats[a], feats[b] = feats[b], feats[a] })
		feats = feats[:g.maxFeatures]
	}
	var ts, ts2 float64
	for _, i := range idx {
		ts += y[i]
		ts2 += y[i] * y[i]
	}
	n := float64(len(idx))

	results := g.results[:len(feats)]
	if len(idx)*len(feats) >= parallelSplitWork && parallel.Workers() > 1 {
		parallel.ForSite(parallel.SiteML, len(feats), 4, func(lo, hi int) {
			hist := make([]binStats, data.MaxBins)
			for k := lo; k < hi; k++ {
				f := feats[k]
				results[k] = scanFeature(g.b.bins[f], len(g.b.edges[f]), y, idx, ts, ts2, n, g.classification, hist)
			}
		})
	} else {
		for k, f := range feats {
			results[k] = scanFeature(g.b.bins[f], len(g.b.edges[f]), y, idx, ts, ts2, n, g.classification, g.hist)
		}
	}
	bestScore := math.Inf(1)
	feat = -1
	for k, r := range results {
		if r.ok && r.score < bestScore {
			bestScore = r.score
			feat = feats[k]
			bin = r.bin
		}
	}
	return feat, bin, feat >= 0
}

// Predict implements Model.
func (t *DecisionTree) Predict(x [][]float64) []float64 {
	out := make([]float64, len(x))
	if t.Root == nil {
		return out
	}
	for i, row := range x {
		out[i] = t.Root.predict(row)
	}
	return out
}

// SizeBytes implements Model (32 bytes per node).
func (t *DecisionTree) SizeBytes() int64 {
	return t.Root.count() * 32
}

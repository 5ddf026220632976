package ml

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/data"
	"repro/internal/parallel"
)

// TreeNode is one node of a binary regression/classification tree. Leaves
// have Feature == -1. Fields are exported so the tier's blob record
// (internal/tier), which carries a fitted tree on the wire and on disk, can
// write and read them.
type TreeNode struct {
	Feature     int
	Threshold   float64
	Value       float64
	Left, Right *TreeNode
}

func (n *TreeNode) count() int64 {
	if n == nil {
		return 0
	}
	return 1 + n.Left.count() + n.Right.count()
}

// predictAt scores row i of cols, reading the cells where they lie.
func (n *TreeNode) predictAt(cols []*data.Column, i int) float64 {
	for n.Feature >= 0 {
		if valueAt(cols, n.Feature, i) <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Value
}

// valueAt is row i of feature f of cols as data.Column.FillNumeric converts
// it: a missing value, a non-numeric cell and a nil column read as 0.
func valueAt(cols []*data.Column, f, i int) float64 {
	c := cols[f]
	if c == nil {
		return 0
	}
	if v := c.Float(i); v == v {
		return v
	}
	return 0
}

// scoredRows is the number of rows Predict scores: len(rows), or every row
// of the first column present when rows is nil.
func scoredRows(cols []*data.Column, rows []int) int {
	if rows != nil {
		return len(rows)
	}
	for _, c := range cols {
		if c != nil {
			return c.Len()
		}
	}
	return 0
}

// scoreColumns is the loop of Predict of the learners that score rows where
// they lie: score(i) for each of rows, or for every row of the first column
// present when rows is nil, on the shared pool.
func scoreColumns(cols []*data.Column, rows []int, score func(i int) float64) []float64 {
	out := make([]float64, scoredRows(cols, rows))
	parallel.For(len(out), 256, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			i := j
			if rows != nil {
				i = rows[j]
			}
			out[j] = score(i)
		}
	})
	return out
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
	parallel.For(len(cols), 8, func(lo, hi int) {
		for f := lo; f < hi; f++ {
			q := cols[f].Quantiles()
			b.edges[f], b.bins[f] = q.Edges, q.Bins
		}
	})
	return b
}

// checkColumns validates the arguments of Fit of the tree learners, which
// bin every feature column: there is one, and none is nil.
func checkColumns(kind string, cols []*data.Column, rows []int, y []float64) error {
	if len(cols) == 0 || slices.Contains(cols, nil) {
		return fmt.Errorf("ml: %s: no feature columns, or a missing one", kind)
	}
	return checkRows(kind, cols, rows, y)
}

// DecisionTree is a CART-style tree using histogram split finding. A split
// maximizes ls²/ln + rs²/rn over the label sums and row counts of its two
// sides, which minimizes the children's variance and, on 0/1 labels, their
// Gini impurity alike; a leaf predicts its mean label, the positive-class
// fraction on 0/1 labels.
type DecisionTree struct {
	// MaxDepth limits tree depth. Default 4.
	MaxDepth int
	// MinSamplesLeaf is the minimum rows in a leaf. Default 2.
	MinSamplesLeaf int
	// MaxFeatures, when positive, samples that many candidate features
	// per split (used by RandomForest). 0 means all features.
	MaxFeatures int
	// Seed drives feature sub-sampling.
	Seed int64

	// Root is the fitted tree (exported for serialization).
	Root *TreeNode
}

// NewDecisionTree returns a tree with package defaults.
func NewDecisionTree(seed int64) *DecisionTree {
	return &DecisionTree{MaxDepth: 4, MinSamplesLeaf: 2, Seed: seed}
}

// Kind implements Model.
func (t *DecisionTree) Kind() string { return "tree" }

// Fit implements Model.
func (t *DecisionTree) Fit(cols []*data.Column, rows []int, y []float64) error {
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
	g := newGrower(b, t.MaxDepth, t.MinSamplesLeaf)
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
	b           *binned
	maxDepth    int
	minLeaf     int
	maxFeatures int        // candidate features per split; 0 means all
	rng         *rand.Rand // set when maxFeatures is

	nodes []binNode
	// Scratch reused by every node of every tree grown.
	right   []int
	feats   []int
	targets []float64
	// free holds the histograms no node is using. A node's histogram lives
	// until its children have theirs, so at most maxDepth+1 exist.
	free [][]binStats
}

func newGrower(b *binned, maxDepth, minLeaf int) *grower {
	g := &grower{b: b, maxDepth: maxDepth, minLeaf: minLeaf, feats: make([]int, len(b.edges))}
	for j := range g.feats {
		g.feats[j] = j
	}
	return g
}

// binStats is what a split needs of the rows of one bin: how many they are
// and the sum of their targets. The count is an integer held in a float64,
// so counts add and subtract exactly.
type binStats struct {
	cnt float64
	sum float64
}

// grow grows the tree on the rows idx, which it reorders, against the target
// y (indexed by row) and returns it in its exported form.
func (g *grower) grow(y []float64, idx []int) *TreeNode {
	g.nodes = g.nodes[:0]
	g.build(y, idx, 0, nil)
	return g.export(0)
}

// splits reports whether a node of n rows at depth is searched for a split.
func (g *grower) splits(n, depth int) bool {
	return depth < g.maxDepth && n >= 2*g.minLeaf
}

// build grows the subtree over the rows idx and returns its root. hist is the
// node's histogram when its parent derived it, nil when the node is to scan
// its rows itself; build owns it either way and returns it to the free list.
func (g *grower) build(y []float64, idx []int, depth int, hist []binStats) int {
	var sum float64
	for _, i := range idx {
		sum += y[i]
	}
	n := float64(len(idx))
	k := len(g.nodes)
	g.nodes = append(g.nodes, binNode{feature: -1, value: sum / n})
	if !g.splits(len(idx), depth) {
		g.release(hist)
		return k
	}
	feats := g.feats
	if g.maxFeatures > 0 {
		// Every split shuffles the identity order, as a fresh list would be.
		for j := range feats {
			feats[j] = j
		}
		g.rng.Shuffle(len(feats), func(a, b int) { feats[a], feats[b] = feats[b], feats[a] })
		feats = feats[:g.maxFeatures]
	}
	if hist == nil {
		hist = g.histogram(feats, y, idx)
	}
	feat, bin, ok := g.bestSplit(hist, feats, sum, n)
	if !ok {
		g.release(hist)
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
		g.release(hist)
		return k
	}
	// The children partition the node's rows, so bin by bin their histograms
	// add up to the node's: only the smaller child is scanned and the larger
	// is what is left. A forest's children draw candidate features of their
	// own and scan for themselves.
	nr := len(idx) - nl
	var lh, rh []binStats
	switch {
	case g.maxFeatures > 0 || !g.splits(max(nl, nr), depth+1):
		g.release(hist)
	case nl <= nr:
		lh = g.histogram(feats, y, idx[:nl])
		rh = subtract(hist, lh)
	default:
		rh = g.histogram(feats, y, idx[nl:])
		lh = subtract(hist, rh)
	}
	left := g.build(y, idx[:nl], depth+1, lh)
	right := g.build(y, idx[nl:], depth+1, rh)
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

// parallelSplitWork is the minimum rows×features product at which a
// histogram is filled on the shared pool; smaller nodes stay on the caller.
const parallelSplitWork = 1 << 15

// histogram counts the rows idx and sums their targets per bin of each of
// feats, into a buffer off the free list: the statistics of feats[k] are the
// data.MaxBins entries from k*data.MaxBins. Features fill disjoint ranges,
// each in idx order, so the result is the same at any pool width.
func (g *grower) histogram(feats []int, y []float64, idx []int) []binStats {
	var hist []binStats
	if n := len(g.free); n > 0 {
		hist, g.free = g.free[n-1], g.free[:n-1]
		clear(hist)
	} else {
		hist = make([]binStats, len(feats)*data.MaxBins)
	}
	// The targets are gathered once, so that of a row and a feature only the
	// bin is fetched by row index.
	if cap(g.targets) < len(idx) {
		g.targets = make([]float64, len(idx))
	}
	targets := g.targets[:len(idx)]
	for j, i := range idx {
		targets[j] = y[i]
	}
	if len(idx)*len(feats) >= parallelSplitWork && parallel.Workers() > 1 {
		parallel.For(len(feats), 4, func(lo, hi int) {
			g.fill(hist, feats[lo:hi], lo, idx, targets)
		})
	} else {
		g.fill(hist, feats, 0, idx, targets)
	}
	return hist
}

// fill is the loop of histogram over the features feats, the first of which
// is the at-th of the histogram; targets[j] is the target of row idx[j].
// Features are taken two at a time: a row's index and target are loaded once
// for both, and while one feature's bin waits for its sum the other's is
// added to. Each feature's sums still add up in idx order.
func (g *grower) fill(hist []binStats, feats []int, at int, idx []int, targets []float64) {
	targets = targets[:len(idx)]
	for k := 0; k < len(feats); k += 2 {
		b0 := g.b.bins[feats[k]]
		h0 := (*[data.MaxBins]binStats)(hist[(at+k)*data.MaxBins:])
		if k+1 == len(feats) {
			for j, i := range idx {
				s := &h0[b0[i]%data.MaxBins] // a bin is < MaxBins; this says so to the compiler
				s.cnt++
				s.sum += targets[j]
			}
			break
		}
		b1 := g.b.bins[feats[k+1]]
		h1 := (*[data.MaxBins]binStats)(hist[(at+k+1)*data.MaxBins:])
		for j, i := range idx {
			yi := targets[j]
			s0 := &h0[b0[i]%data.MaxBins]
			s0.cnt++
			s0.sum += yi
			s1 := &h1[b1[i]%data.MaxBins]
			s1.cnt++
			s1.sum += yi
		}
	}
}

// release returns a histogram no node needs any more to the free list.
func (g *grower) release(hist []binStats) {
	if hist != nil {
		g.free = append(g.free, hist)
	}
}

// subtract turns a node's histogram into its larger child's, given the
// smaller child's, in place. Counts subtract exactly; sums only up to
// rounding, so a bin the larger child has no row in gets the sum a scan
// would have found there, zero.
func subtract(hist, small []binStats) []binStats {
	for b := range hist {
		hist[b].cnt -= small[b].cnt
		hist[b].sum -= small[b].sum
		if hist[b].cnt == 0 {
			hist[b].sum = 0
		}
	}
	return hist
}

// bestSplit returns the (feature, bin) whose two sides maximize
// ls²/ln + rs²/rn, given the node's histogram over feats, its target sum ts
// and its row count n. Candidates are compared in feats order, bins
// ascending, and only a strictly better one replaces the best so far.
func (g *grower) bestSplit(hist []binStats, feats []int, ts, n float64) (feat int, bin uint8, ok bool) {
	best := math.Inf(-1)
	for k, f := range feats {
		h := hist[k*data.MaxBins:]
		var ln, ls float64
		for b := range g.b.edges[f] { // the last bin has no edge to split at
			ln += h[b].cnt
			ls += h[b].sum
			rn, rs := n-ln, ts-ls
			if ln == 0 || rn == 0 {
				continue
			}
			if gain := ls*ls/ln + rs*rs/rn; gain > best {
				best, feat, bin, ok = gain, f, uint8(b), true
			}
		}
	}
	return feat, bin, ok
}

// Predict implements Model.
func (t *DecisionTree) Predict(cols []*data.Column, rows []int) []float64 {
	return scoreColumns(cols, rows, func(i int) float64 {
		if t.Root == nil {
			return 0
		}
		return t.Root.predictAt(cols, i)
	})
}

// SizeBytes implements Model (32 bytes per node).
func (t *DecisionTree) SizeBytes() int64 {
	return t.Root.count() * 32
}

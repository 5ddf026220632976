package ml

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/parallel"
)

// refGrower is the oracle the grower is checked against: the direct-scan
// grower as it stood before nodes kept their histograms. Every node scans its
// own rows, feature by feature, into a scratch histogram of three statistics
// and picks the split that minimizes score; nothing is carried from a node
// to its children and nothing is reused.
type refGrower struct {
	b           *binned
	maxDepth    int
	minLeaf     int
	maxFeatures int
	rng         *rand.Rand
	score       refScore
}

// refScore is the impurity of a candidate split, lower is better, from the
// label sums, sums of squares and row counts of its two sides.
type refScore func(ls, ls2, ln, rs, rs2, rn float64) float64

// The two criteria DecisionTree.Classification used to choose between, and
// the one the grower has: the negated ls²/ln + rs²/rn.
func refVariance(ls, ls2, ln, rs, rs2, rn float64) float64 {
	return (ls2 - ls*ls/ln) + (rs2 - rs*rs/rn)
}
func refGini(ls, _, ln, rs, _, rn float64) float64 {
	return 2*(ls-ls*ls/ln) + 2*(rs-rs*rs/rn)
}
func refGain(ls, _, ln, rs, _, rn float64) float64 {
	return -(ls*ls/ln + rs*rs/rn)
}

func (g *refGrower) grow(y []float64, idx []int) *TreeNode {
	return g.build(y, idx, 0)
}

func (g *refGrower) build(y []float64, idx []int, depth int) *TreeNode {
	var sum float64
	for _, i := range idx {
		sum += y[i]
	}
	node := &TreeNode{Feature: -1, Value: sum / float64(len(idx))}
	if depth >= g.maxDepth || len(idx) < 2*g.minLeaf {
		return node
	}
	feat, bin, ok := g.bestSplit(y, idx)
	if !ok {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if g.b.bins[feat][i] <= bin {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < g.minLeaf || len(right) < g.minLeaf {
		return node
	}
	node.Left = g.build(y, left, depth+1)
	node.Right = g.build(y, right, depth+1)
	node.Feature, node.Threshold = feat, g.b.edges[feat][bin]
	return node
}

func (g *refGrower) bestSplit(y []float64, idx []int) (feat int, bin uint8, ok bool) {
	feats := make([]int, len(g.b.edges))
	for j := range feats {
		feats[j] = j
	}
	if g.maxFeatures > 0 {
		g.rng.Shuffle(len(feats), func(a, b int) { feats[a], feats[b] = feats[b], feats[a] })
		feats = feats[:g.maxFeatures]
	}
	var ts, ts2 float64
	for _, i := range idx {
		ts += y[i]
		ts2 += y[i] * y[i]
	}
	bestScore := math.Inf(1)
	feat = -1
	for _, f := range feats {
		if score, b, ok := g.scanFeature(f, y, idx, ts, ts2); ok && score < bestScore {
			bestScore, feat, bin = score, f, b
		}
	}
	return feat, bin, feat >= 0
}

func (g *refGrower) scanFeature(f int, y []float64, idx []int, ts, ts2 float64) (best float64, bin uint8, ok bool) {
	type stats struct{ cnt, sum, sum2 float64 }
	nEdges := len(g.b.edges[f])
	h := make([]stats, nEdges+1)
	for _, i := range idx {
		s := &h[g.b.bins[f][i]]
		s.cnt++
		s.sum += y[i]
		s.sum2 += y[i] * y[i]
	}
	best = math.Inf(1)
	n := float64(len(idx))
	var ln, ls, ls2 float64
	for b := 0; b < nEdges; b++ {
		ln += h[b].cnt
		ls += h[b].sum
		ls2 += h[b].sum2
		rn := n - ln
		if ln == 0 || rn == 0 {
			continue
		}
		if score := g.score(ls, ls2, ln, ts-ls, ts2-ls2, rn); score < best {
			best, bin, ok = score, uint8(b), true
		}
	}
	return best, bin, ok
}

// sameTree reports whether two trees are equal node for node.
func sameTree(a, b *TreeNode) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Feature == b.Feature && a.Threshold == b.Threshold && a.Value == b.Value &&
		sameTree(a.Left, b.Left) && sameTree(a.Right, b.Right)
}

// growerCase draws what the grower has to get right: mixed columns with a
// constant and a two-valued one among them, integer-valued targets (so that
// every sum is exact in a float64), a row list with duplicates as a forest's
// bootstrap has, depth 1–6, minLeaf 1–8 and, every other time, a candidate
// feature sample per split.
type growerCase struct {
	cols                  []*data.Column
	y                     []float64
	idx                   []int
	depth, minLeaf, maxFt int
	seed                  int64
}

func drawGrowerCase(seed int64) growerCase {
	rng := rand.New(rand.NewSource(seed))
	n, d := 50+rng.Intn(550), 3+rng.Intn(8)
	cols, y := mixedColumns(rng, n, d)
	constant, twoValued := make([]float64, n), make([]float64, n)
	for i := range twoValued {
		constant[i] = 3
		twoValued[i] = float64(rng.Intn(2)) * 0.5
	}
	cols[rng.Intn(d)] = &data.Column{Type: data.Float64, Floats: constant}
	cols[rng.Intn(d)] = &data.Column{Type: data.Float64, Floats: twoValued}
	if rng.Intn(2) == 0 { // a count target in place of the 0/1 one
		for i := range y {
			y[i] = float64(rng.Intn(6))
		}
	}
	idx := make([]int, n-rng.Intn(n/4))
	for j := range idx {
		idx[j] = rng.Intn(n)
	}
	c := growerCase{cols: cols, y: y, idx: idx, depth: 1 + rng.Intn(6), minLeaf: 1 + rng.Intn(8), seed: seed}
	if rng.Intn(2) == 0 {
		c.maxFt = 1 + rng.Intn(d-1)
	}
	return c
}

func (c growerCase) tree() *DecisionTree {
	return &DecisionTree{MaxDepth: c.depth, MinSamplesLeaf: c.minLeaf, MaxFeatures: c.maxFt, Seed: c.seed}
}

func (c growerCase) reference(score refScore) *refGrower {
	g := &refGrower{b: binColumns(c.cols), maxDepth: c.depth, minLeaf: c.minLeaf, score: score}
	if c.maxFt > 0 {
		g.maxFeatures, g.rng = c.maxFt, rand.New(rand.NewSource(c.seed))
	}
	return g
}

// TestQuickGrowerMatchesDirectScan: on integer-valued targets a histogram
// derived by subtraction equals the scanned one exactly, so the tree must be
// the one the direct-scan reference grows, node for node — and a second tree
// off the same grower, which finds its buffers on the free list, too.
func TestQuickGrowerMatchesDirectScan(t *testing.T) {
	prop := func(seed int64) bool {
		c := drawGrowerCase(seed)
		want := c.reference(refGain).grow(c.y, append([]int(nil), c.idx...))
		g := c.tree().grower(binColumns(c.cols))
		if !sameTree(want, g.grow(c.y, append([]int(nil), c.idx...))) {
			return false
		}
		if c.maxFt > 0 {
			g.rng = rand.New(rand.NewSource(c.seed)) // the reference drew from a fresh stream
		}
		return sameTree(want, g.grow(c.y, append([]int(nil), c.idx...)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestOneCriterionServesBoth pins why DecisionTree.Classification could go:
// minimizing the children's variance, minimizing their Gini impurity on 0/1
// labels and maximizing ls²/ln + rs²/rn order the candidate splits alike
// (variance is ts2 minus the latter, Gini 2·ts minus twice it), so all three
// grow the same tree.
func TestOneCriterionServesBoth(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		c := drawGrowerCase(seed)
		for i, v := range c.y {
			c.y[i] = math.Min(v, 1)
		}
		grow := func(score refScore) *TreeNode {
			return c.reference(score).grow(c.y, append([]int(nil), c.idx...))
		}
		gain := grow(refGain)
		if !sameTree(gain, grow(refVariance)) {
			t.Errorf("seed %d: the variance criterion grows another tree", seed)
		}
		if !sameTree(gain, grow(refGini)) {
			t.Errorf("seed %d: the Gini criterion grows another tree", seed)
		}
	}
}

// TestQuickDerivedHistogramMatchesScanned: on float targets (a boosting
// round's gradients) the larger child's histogram by subtraction has exactly
// the counts a scan of its rows finds, a zero sum wherever the count is
// zero, and sums within 1e-9 of the scanned ones relative to the magnitude
// that went through the bin.
func TestQuickDerivedHistogramMatchesScanned(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols, _ := mixedColumns(rng, 100+rng.Intn(900), 3+rng.Intn(8))
		n := cols[0].Len()
		y, abs := make([]float64, n), make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64() * math.Exp(4*rng.NormFloat64())
			abs[i] = math.Abs(y[i])
		}
		idx := rng.Perm(n)
		cut := rng.Intn(n/2 + 1)
		small, large := idx[:cut], idx[cut:]

		g := newGrower(binColumns(cols), 3, 1)
		derived := subtract(g.histogram(g.feats, y, idx), g.histogram(g.feats, y, small))
		scanned := g.histogram(g.feats, y, large)
		scale := g.histogram(g.feats, abs, idx)
		for b := range derived {
			if derived[b].cnt != scanned[b].cnt {
				return false
			}
			if derived[b].cnt == 0 && derived[b].sum != 0 {
				return false
			}
			if math.Abs(derived[b].sum-scanned[b].sum) > 1e-9*scale[b].sum {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestGrowerReusesItsHistograms is the count gate on the grower's buffers: a
// tree needs at most maxDepth+1 histograms at once, and a second tree off the
// same grower allocates none — only the nodes it exports.
func TestGrowerReusesItsHistograms(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	const depth = 5
	cols, y := mixedColumns(rand.New(rand.NewSource(4)), 3000, 12)
	g := newGrower(binColumns(cols), depth, 2)
	rows := make([]int, len(y))
	for i := range rows {
		rows[i] = i
	}
	tree := g.grow(y, rows)
	made := len(g.free)
	if made == 0 || made > depth+1 {
		t.Fatalf("a depth-%d tree made %d histograms, want 1..%d", depth, made, depth+1)
	}
	// y is 0/1, so the reordered rows grow the same tree again.
	allocs := testing.AllocsPerRun(5, func() { g.grow(y, rows) })
	if nodes := float64(tree.count()); allocs != nodes {
		t.Errorf("a later tree of %v nodes makes %v allocations, want one per exported node", nodes, allocs)
	}
	if len(g.free) != made {
		t.Errorf("later trees left %d histograms on the free list, the first left %d", len(g.free), made)
	}
}

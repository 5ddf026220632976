package tier

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
)

// Blob record: the one byte format of an artifact that is not a dataset with
// columns — a model, an aggregate, or a dataset without columns. It is the
// payload of a blob file of the disk tier (CTB2), and on the wire an item of
// an update's inline section, the blob form of an upload item and of a
// download. It has no magic and no checksum of its own: the file and the
// message that carry it frame it.
//
//	record  = u8 graph.Kind, then by kind:
//	          0 dataset    u8 0 (no frame) | 1 (a frame of no columns)
//	          1 aggregate  float value, str text
//	          2 model      float quality, strs features, learner
//	learner = u8 tag, then by tag:
//	          0 none
//	          1 logreg     float lr, int maxIter, float tol, float l2, int seed,
//	                       floats weights, float bias, int epochsRun
//	          2 linreg     the same fields
//	          3 tree       tree
//	          4 gbt        int nTrees, float lr, int maxDepth, float subsample,
//	                       int seed, list(node) trees, float base, int treesGrown
//	          5 rf         int nTrees, int maxDepth, int maxFeatures, int seed,
//	                       list(tree) trees
//	          6 knn        int k, list(floats) trainX, floats trainY
//	          7 nb         float varSmoothing, floats mean0, floats mean1,
//	                       floats var0, floats var1, float prior0, float prior1
//	          8 svm        float lambda, int maxIter, float tol, int seed,
//	                       floats weights, float bias, int epochsRun
//	tree    = int maxDepth, int minSamplesLeaf, int maxFeatures, int seed,
//	          node root (0: not fitted)
//	node    = uvarint 0                    no tree (a DecisionTree's root only)
//	        | uvarint 1, float value       a leaf (Feature −1)
//	        | uvarint f+2, float threshold, float value, node left, node right
//	                                       a split on feature f, in preorder
//
//	float   = 8 bytes, the little-endian IEEE-754 bits: NaN payloads and −0
//	          survive
//	int     = uvarint(zigzag(v)), as the column record's varint mode
//	str     = uvarint len, len bytes
//	list(x) = uvarint 0 (a nil list) | uvarint n+1, n × x
//	floats  = list(float); strs = list(str)
//
// The encoding is canonical: a record that decodes re-encodes to exactly the
// same bytes. So the decoder refuses a varint longer than its shortest form
// and any byte after the record, and the encoder refuses content that has no
// record: a model type not listed, a leaf with a threshold or a child, a
// split without both children. The decoder also refuses what would fail
// later, where the record is used: a split on a feature index the model's
// feature list does not have (prediction indexes the feature columns by it),
// a tree deeper than maxTreeDepth, and a count larger than the bytes left
// could hold.
const (
	learnerNone byte = iota
	learnerLogreg
	learnerLinreg
	learnerTree
	learnerGBT
	learnerRF
	learnerKNN
	learnerNB
	learnerSVM
)

// The tags of a node.
const (
	nodeNone = iota
	nodeLeaf
	nodeSplit // nodeSplit+f: a split on feature f
)

// maxTreeDepth bounds the depth of a tree, counted in splits from the root,
// so that decoding hostile input cannot recurse without end. The learners
// grow trees as deep as their MaxDepth (3 to 6 by default).
const maxTreeDepth = 256

// AppendBlob appends the blob record of a to b.
func AppendBlob(b []byte, a graph.Artifact) ([]byte, error) {
	w := blobWriter{b: b}
	w.artifact(a)
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// DecodeBlob parses a blob record that takes all of b. Any violation returns
// an error wrapping ErrCorrupt.
func DecodeBlob(b []byte) (graph.Artifact, error) {
	r := blobReader{b: b}
	a := r.artifact()
	if r.err == nil && r.off != len(r.b) {
		r.fail("%d bytes after the record", len(r.b)-r.off)
	}
	if r.err != nil {
		return nil, r.err
	}
	return a, nil
}

// blobWriter appends a record. The first error sticks.
type blobWriter struct {
	b   []byte
	err error
}

func (w *blobWriter) fail(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf("tier: blob: "+format, args...)
	}
}

func (w *blobWriter) u8(v byte)        { w.b = append(w.b, v) }
func (w *blobWriter) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *blobWriter) int(v int64)      { w.uvarint(zigzag(v)) }
func (w *blobWriter) float(f float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(f))
}
func (w *blobWriter) str(s string) { w.uvarint(uint64(len(s))); w.b = append(w.b, s...) }
func (w *blobWriter) list(n int, isNil bool) {
	if isNil {
		w.uvarint(0)
		return
	}
	w.uvarint(uint64(n) + 1)
}

func (w *blobWriter) floats(v []float64) {
	w.list(len(v), v == nil)
	for _, f := range v {
		w.float(f)
	}
}

func (w *blobWriter) strs(v []string) {
	w.list(len(v), v == nil)
	for _, s := range v {
		w.str(s)
	}
}

func (w *blobWriter) artifact(a graph.Artifact) {
	switch a := a.(type) {
	case *graph.DatasetArtifact:
		w.u8(byte(graph.DatasetKind))
		switch {
		case a.Frame == nil:
			w.u8(0)
		case a.Frame.NumCols() == 0:
			w.u8(1)
		default:
			w.fail("a dataset with columns has no blob record")
		}
	case *graph.AggregateArtifact:
		w.u8(byte(graph.AggregateKind))
		w.float(a.Value)
		w.str(a.Text)
	case *graph.ModelArtifact:
		w.u8(byte(graph.ModelKind))
		w.float(a.Quality)
		w.strs(a.Features)
		w.model(a.Model, len(a.Features))
	default:
		w.fail("no record for content %T", a)
	}
}

// model writes a learner whose trees split on features below nfeat.
func (w *blobWriter) model(m ml.Model, nfeat int) {
	switch m := m.(type) {
	case nil:
		w.u8(learnerNone)
	case *ml.LogisticRegression:
		w.u8(learnerLogreg)
		w.float(m.LearningRate)
		w.int(int64(m.MaxIter))
		w.float(m.Tol)
		w.float(m.L2)
		w.int(m.Seed)
		w.floats(m.Weights)
		w.float(m.Bias)
		w.int(int64(m.EpochsRun))
	case *ml.LinearRegression:
		w.u8(learnerLinreg)
		w.float(m.LearningRate)
		w.int(int64(m.MaxIter))
		w.float(m.Tol)
		w.float(m.L2)
		w.int(m.Seed)
		w.floats(m.Weights)
		w.float(m.Bias)
		w.int(int64(m.EpochsRun))
	case *ml.DecisionTree:
		w.u8(learnerTree)
		w.tree(m, nfeat)
	case *ml.GradientBoostedTrees:
		w.u8(learnerGBT)
		w.int(int64(m.NTrees))
		w.float(m.LearningRate)
		w.int(int64(m.MaxDepth))
		w.float(m.Subsample)
		w.int(m.Seed)
		w.list(len(m.Trees), m.Trees == nil)
		for _, t := range m.Trees {
			w.node(t, 0, nfeat)
		}
		w.float(m.Base)
		w.int(int64(m.TreesGrown))
	case *ml.RandomForest:
		w.u8(learnerRF)
		w.int(int64(m.NTrees))
		w.int(int64(m.MaxDepth))
		w.int(int64(m.MaxFeatures))
		w.int(m.Seed)
		w.list(len(m.Trees), m.Trees == nil)
		for _, t := range m.Trees {
			if t == nil {
				w.fail("rf: a nil tree")
				return
			}
			w.tree(t, nfeat)
		}
	case *ml.KNN:
		w.u8(learnerKNN)
		w.int(int64(m.K))
		w.list(len(m.TrainX), m.TrainX == nil)
		for _, row := range m.TrainX {
			w.floats(row)
		}
		w.floats(m.TrainY)
	case *ml.GaussianNB:
		w.u8(learnerNB)
		w.float(m.VarSmoothing)
		w.floats(m.Mean[0])
		w.floats(m.Mean[1])
		w.floats(m.Var[0])
		w.floats(m.Var[1])
		w.float(m.Prior[0])
		w.float(m.Prior[1])
	case *ml.LinearSVM:
		w.u8(learnerSVM)
		w.float(m.Lambda)
		w.int(int64(m.MaxIter))
		w.float(m.Tol)
		w.int(m.Seed)
		w.floats(m.Weights)
		w.float(m.Bias)
		w.int(int64(m.EpochsRun))
	default:
		w.fail("no record for model %T", m)
	}
}

func (w *blobWriter) tree(t *ml.DecisionTree, nfeat int) {
	w.int(int64(t.MaxDepth))
	w.int(int64(t.MinSamplesLeaf))
	w.int(int64(t.MaxFeatures))
	w.int(t.Seed)
	if t.Root == nil {
		w.uvarint(nodeNone)
		return
	}
	w.node(t.Root, 0, nfeat)
}

// node writes the subtree n, depth splits below the root.
func (w *blobWriter) node(n *ml.TreeNode, depth, nfeat int) {
	switch {
	case w.err != nil:
	case n == nil:
		w.fail("a missing tree or child")
	case depth > maxTreeDepth:
		w.fail("tree deeper than %d", maxTreeDepth)
	case n.Feature == -1:
		if math.Float64bits(n.Threshold) != 0 || n.Left != nil || n.Right != nil {
			w.fail("a leaf with a threshold or a child")
			return
		}
		w.uvarint(nodeLeaf)
		w.float(n.Value)
	case n.Feature < 0 || n.Feature >= nfeat:
		w.fail("split on feature %d of %d", n.Feature, nfeat)
	default:
		w.uvarint(nodeSplit + uint64(n.Feature))
		w.float(n.Threshold)
		w.float(n.Value)
		w.node(n.Left, depth+1, nfeat)
		w.node(n.Right, depth+1, nfeat)
	}
}

// blobReader reads a record. The first error sticks, and every read after it
// returns zero values.
type blobReader struct {
	b   []byte
	off int
	err error
}

func (r *blobReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = corrupt("blob: "+format, args...)
	}
	r.off = len(r.b)
}

func (r *blobReader) left() int { return len(r.b) - r.off }

func (r *blobReader) u8() byte {
	if r.left() < 1 {
		r.fail("truncated")
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// uvarint reads a varint in its shortest form and refuses any other.
func (r *blobReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || n > 1 && r.b[r.off+n-1] == 0 {
		r.fail("bad varint")
		return 0
	}
	r.off += n
	return v
}

func (r *blobReader) int() int64 { return unzigzag(r.uvarint()) }

func (r *blobReader) float() float64 {
	if r.left() < 8 {
		r.fail("truncated float")
		return 0
	}
	r.off += 8
	return math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off-8:]))
}

func (r *blobReader) str() string {
	n := r.uvarint()
	if n > uint64(r.left()) {
		r.fail("string of %d bytes in %d", n, r.left())
		return ""
	}
	r.off += int(n)
	return string(r.b[r.off-int(n) : r.off])
}

// list reads the length of a list whose items take at least min bytes each:
// -1 for a nil list. A length the bytes left cannot hold is refused before
// anything is made for it.
func (r *blobReader) list(min int) int {
	v := r.uvarint()
	if v == 0 {
		return -1
	}
	if v-1 > uint64(r.left()/min) {
		r.fail("%d items in %d bytes", v-1, r.left())
		return -1
	}
	return int(v - 1)
}

func (r *blobReader) floats() []float64 {
	n := r.list(8)
	if n < 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.float()
	}
	return out
}

func (r *blobReader) strs() []string {
	n := r.list(1)
	if n < 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.str()
	}
	return out
}

func (r *blobReader) artifact() graph.Artifact {
	switch kind := graph.Kind(r.u8()); {
	case r.err != nil:
		return nil
	case kind == graph.DatasetKind:
		switch r.u8() {
		case 0:
			return &graph.DatasetArtifact{}
		case 1:
			f, _ := data.NewFrame()
			return &graph.DatasetArtifact{Frame: f}
		}
		r.fail("bad dataset form")
	case kind == graph.AggregateKind:
		return &graph.AggregateArtifact{Value: r.float(), Text: r.str()}
	case kind == graph.ModelKind:
		a := &graph.ModelArtifact{Quality: r.float(), Features: r.strs()}
		a.Model = r.model(len(a.Features))
		return a
	default:
		r.fail("unknown kind %d", kind)
	}
	return nil
}

func (r *blobReader) model(nfeat int) ml.Model {
	switch tag := r.u8(); tag {
	case learnerNone:
		return nil
	case learnerLogreg:
		m := &ml.LogisticRegression{LearningRate: r.float(), MaxIter: int(r.int()), Tol: r.float(), L2: r.float(), Seed: r.int()}
		m.Weights, m.Bias, m.EpochsRun = r.floats(), r.float(), int(r.int())
		return m
	case learnerLinreg:
		m := &ml.LinearRegression{LearningRate: r.float(), MaxIter: int(r.int()), Tol: r.float(), L2: r.float(), Seed: r.int()}
		m.Weights, m.Bias, m.EpochsRun = r.floats(), r.float(), int(r.int())
		return m
	case learnerTree:
		return r.tree(nfeat)
	case learnerGBT:
		m := &ml.GradientBoostedTrees{NTrees: int(r.int()), LearningRate: r.float(), MaxDepth: int(r.int()),
			Subsample: r.float(), Seed: r.int()}
		if n := r.list(1 + 8); n >= 0 {
			m.Trees = make([]*ml.TreeNode, n)
			for i := range m.Trees {
				if m.Trees[i] = r.node(0, nfeat); m.Trees[i] == nil {
					r.fail("gbt: tree %d missing", i)
				}
			}
		}
		m.Base, m.TreesGrown = r.float(), int(r.int())
		return m
	case learnerRF:
		m := &ml.RandomForest{NTrees: int(r.int()), MaxDepth: int(r.int()), MaxFeatures: int(r.int()), Seed: r.int()}
		if n := r.list(4 + 1); n >= 0 {
			m.Trees = make([]*ml.DecisionTree, n)
			for i := range m.Trees {
				m.Trees[i] = r.tree(nfeat)
			}
		}
		return m
	case learnerKNN:
		m := &ml.KNN{K: int(r.int())}
		if n := r.list(1); n >= 0 {
			m.TrainX = make([][]float64, n)
			for i := range m.TrainX {
				m.TrainX[i] = r.floats()
			}
		}
		m.TrainY = r.floats()
		return m
	case learnerNB:
		m := &ml.GaussianNB{VarSmoothing: r.float()}
		m.Mean[0], m.Mean[1], m.Var[0], m.Var[1] = r.floats(), r.floats(), r.floats(), r.floats()
		m.Prior[0], m.Prior[1] = r.float(), r.float()
		return m
	case learnerSVM:
		m := &ml.LinearSVM{Lambda: r.float(), MaxIter: int(r.int()), Tol: r.float(), Seed: r.int()}
		m.Weights, m.Bias, m.EpochsRun = r.floats(), r.float(), int(r.int())
		return m
	default:
		r.fail("unknown learner %d", tag)
	}
	return nil
}

func (r *blobReader) tree(nfeat int) *ml.DecisionTree {
	t := &ml.DecisionTree{MaxDepth: int(r.int()), MinSamplesLeaf: int(r.int()), MaxFeatures: int(r.int()), Seed: r.int()}
	if r.left() > 0 && r.b[r.off] == nodeNone {
		r.off++
		return t
	}
	t.Root = r.node(0, nfeat)
	return t
}

// node reads the subtree depth splits below the root; nil only on an error.
// No tree is allowed only as a DecisionTree's root, whose tag tree reads.
func (r *blobReader) node(depth, nfeat int) *ml.TreeNode {
	if depth > maxTreeDepth {
		r.fail("tree deeper than %d", maxTreeDepth)
		return nil
	}
	switch tag := r.uvarint(); {
	case r.err != nil:
		return nil
	case tag == nodeLeaf:
		return &ml.TreeNode{Feature: -1, Value: r.float()}
	case tag == nodeNone:
		r.fail("a missing tree or child")
		return nil
	case tag-nodeSplit >= uint64(nfeat):
		r.fail("split on feature %d of %d", tag-nodeSplit, nfeat)
		return nil
	default:
		n := &ml.TreeNode{Feature: int(tag - nodeSplit), Threshold: r.float(), Value: r.float()}
		if n.Left = r.node(depth+1, nfeat); n.Left != nil {
			n.Right = r.node(depth+1, nfeat)
		}
		if n.Right == nil {
			return nil
		}
		return n
	}
}

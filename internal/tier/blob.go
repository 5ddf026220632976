package tier

import (
	"fmt"
	"math"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
	"repro/internal/rec"
)

// Blob record: the one byte format of an artifact that is not a dataset with
// columns — a model, an aggregate, or a dataset without columns. It is the
// payload of a blob file of the disk tier (CTB2), and on the wire an item of
// an update's inline section, the blob form of an upload item and of a
// download. It has no magic and no checksum of its own: the file and the
// message that carry it frame it. In the primitives of internal/rec:
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
//	list(x) = a list, then its items; floats = list(float); strs = list(str)
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
	w := rec.NewWriter(b)
	writeArtifact(&w, a)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("tier: blob: %w", err)
	}
	return w.Bytes(), nil
}

// DecodeBlob parses a blob record that takes all of b. Any violation returns
// an error wrapping ErrCorrupt.
func DecodeBlob(b []byte) (graph.Artifact, error) {
	r := rec.NewReader(b)
	a := readArtifact(&r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return a, nil
}

func writeFloats(w *rec.Writer, v []float64) {
	w.List(len(v), v == nil)
	w.Floats(v)
}

func writeStrs(w *rec.Writer, v []string) {
	w.List(len(v), v == nil)
	writeStrings(w, v)
}

func writeArtifact(w *rec.Writer, a graph.Artifact) {
	switch a := a.(type) {
	case *graph.DatasetArtifact:
		w.U8(byte(graph.DatasetKind))
		switch {
		case a.Frame == nil:
			w.U8(0)
		case a.Frame.NumCols() == 0:
			w.U8(1)
		default:
			w.Fail("a dataset with columns has no blob record")
		}
	case *graph.AggregateArtifact:
		w.U8(byte(graph.AggregateKind))
		w.Float(a.Value)
		w.Str(a.Text)
	case *graph.ModelArtifact:
		w.U8(byte(graph.ModelKind))
		w.Float(a.Quality)
		writeStrs(w, a.Features)
		writeModel(w, a.Model, len(a.Features))
	default:
		w.Fail("no record for content %T", a)
	}
}

// writeModel writes a learner whose trees split on features below nfeat.
func writeModel(w *rec.Writer, m ml.Model, nfeat int) {
	switch m := m.(type) {
	case nil:
		w.U8(learnerNone)
	case *ml.LogisticRegression:
		w.U8(learnerLogreg)
		w.Float(m.LearningRate)
		w.Int(int64(m.MaxIter))
		w.Float(m.Tol)
		w.Float(m.L2)
		w.Int(m.Seed)
		writeFloats(w, m.Weights)
		w.Float(m.Bias)
		w.Int(int64(m.EpochsRun))
	case *ml.LinearRegression:
		w.U8(learnerLinreg)
		w.Float(m.LearningRate)
		w.Int(int64(m.MaxIter))
		w.Float(m.Tol)
		w.Float(m.L2)
		w.Int(m.Seed)
		writeFloats(w, m.Weights)
		w.Float(m.Bias)
		w.Int(int64(m.EpochsRun))
	case *ml.DecisionTree:
		w.U8(learnerTree)
		writeTree(w, m, nfeat)
	case *ml.GradientBoostedTrees:
		w.U8(learnerGBT)
		w.Int(int64(m.NTrees))
		w.Float(m.LearningRate)
		w.Int(int64(m.MaxDepth))
		w.Float(m.Subsample)
		w.Int(m.Seed)
		w.List(len(m.Trees), m.Trees == nil)
		for _, t := range m.Trees {
			writeNode(w, t, 0, nfeat)
		}
		w.Float(m.Base)
		w.Int(int64(m.TreesGrown))
	case *ml.RandomForest:
		w.U8(learnerRF)
		w.Int(int64(m.NTrees))
		w.Int(int64(m.MaxDepth))
		w.Int(int64(m.MaxFeatures))
		w.Int(m.Seed)
		w.List(len(m.Trees), m.Trees == nil)
		for _, t := range m.Trees {
			if t == nil {
				w.Fail("rf: a nil tree")
				return
			}
			writeTree(w, t, nfeat)
		}
	case *ml.KNN:
		w.U8(learnerKNN)
		w.Int(int64(m.K))
		w.List(len(m.TrainX), m.TrainX == nil)
		for _, row := range m.TrainX {
			writeFloats(w, row)
		}
		writeFloats(w, m.TrainY)
	case *ml.GaussianNB:
		w.U8(learnerNB)
		w.Float(m.VarSmoothing)
		writeFloats(w, m.Mean[0])
		writeFloats(w, m.Mean[1])
		writeFloats(w, m.Var[0])
		writeFloats(w, m.Var[1])
		w.Float(m.Prior[0])
		w.Float(m.Prior[1])
	case *ml.LinearSVM:
		w.U8(learnerSVM)
		w.Float(m.Lambda)
		w.Int(int64(m.MaxIter))
		w.Float(m.Tol)
		w.Int(m.Seed)
		writeFloats(w, m.Weights)
		w.Float(m.Bias)
		w.Int(int64(m.EpochsRun))
	default:
		w.Fail("no record for model %T", m)
	}
}

func writeTree(w *rec.Writer, t *ml.DecisionTree, nfeat int) {
	w.Int(int64(t.MaxDepth))
	w.Int(int64(t.MinSamplesLeaf))
	w.Int(int64(t.MaxFeatures))
	w.Int(t.Seed)
	if t.Root == nil {
		w.Uvarint(nodeNone)
		return
	}
	writeNode(w, t.Root, 0, nfeat)
}

// writeNode writes the subtree n, depth splits below the root.
func writeNode(w *rec.Writer, n *ml.TreeNode, depth, nfeat int) {
	switch {
	case w.Err() != nil:
	case n == nil:
		w.Fail("a missing tree or child")
	case depth > maxTreeDepth:
		w.Fail("tree deeper than %d", maxTreeDepth)
	case n.Feature == -1:
		if math.Float64bits(n.Threshold) != 0 || n.Left != nil || n.Right != nil {
			w.Fail("a leaf with a threshold or a child")
			return
		}
		w.Uvarint(nodeLeaf)
		w.Float(n.Value)
	case n.Feature < 0 || n.Feature >= nfeat:
		w.Fail("split on feature %d of %d", n.Feature, nfeat)
	default:
		w.Uvarint(nodeSplit + uint64(n.Feature))
		w.Float(n.Threshold)
		w.Float(n.Value)
		writeNode(w, n.Left, depth+1, nfeat)
		writeNode(w, n.Right, depth+1, nfeat)
	}
}

func readFloats(r *rec.Reader) []float64 {
	n := r.List(8)
	if n < 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float()
	}
	return out
}

func readStrs(r *rec.Reader) []string {
	n := r.List(1)
	if n < 0 {
		return nil
	}
	strs, _ := readStrings(r, n, true, false)
	return strs
}

func readArtifact(r *rec.Reader) graph.Artifact {
	switch kind := graph.Kind(r.U8()); {
	case r.Err() != nil:
		return nil
	case kind == graph.DatasetKind:
		switch r.U8() {
		case 0:
			return &graph.DatasetArtifact{}
		case 1:
			f, _ := data.NewFrame()
			return &graph.DatasetArtifact{Frame: f}
		}
		r.Fail("bad dataset form")
	case kind == graph.AggregateKind:
		return &graph.AggregateArtifact{Value: r.Float(), Text: r.Str()}
	case kind == graph.ModelKind:
		a := &graph.ModelArtifact{Quality: r.Float(), Features: readStrs(r)}
		a.Model = readModel(r, len(a.Features))
		return a
	default:
		r.Fail("unknown kind %d", kind)
	}
	return nil
}

func readModel(r *rec.Reader, nfeat int) ml.Model {
	switch tag := r.U8(); tag {
	case learnerNone:
		return nil
	case learnerLogreg:
		m := &ml.LogisticRegression{LearningRate: r.Float(), MaxIter: int(r.Int()), Tol: r.Float(), L2: r.Float(), Seed: r.Int()}
		m.Weights, m.Bias, m.EpochsRun = readFloats(r), r.Float(), int(r.Int())
		return m
	case learnerLinreg:
		m := &ml.LinearRegression{LearningRate: r.Float(), MaxIter: int(r.Int()), Tol: r.Float(), L2: r.Float(), Seed: r.Int()}
		m.Weights, m.Bias, m.EpochsRun = readFloats(r), r.Float(), int(r.Int())
		return m
	case learnerTree:
		return readTree(r, nfeat)
	case learnerGBT:
		m := &ml.GradientBoostedTrees{NTrees: int(r.Int()), LearningRate: r.Float(), MaxDepth: int(r.Int()),
			Subsample: r.Float(), Seed: r.Int()}
		if n := r.List(1 + 8); n >= 0 {
			m.Trees = make([]*ml.TreeNode, n)
			for i := range m.Trees {
				if m.Trees[i] = readNode(r, r.Uvarint(), 0, nfeat); m.Trees[i] == nil {
					r.Fail("gbt: tree %d missing", i)
				}
			}
		}
		m.Base, m.TreesGrown = r.Float(), int(r.Int())
		return m
	case learnerRF:
		m := &ml.RandomForest{NTrees: int(r.Int()), MaxDepth: int(r.Int()), MaxFeatures: int(r.Int()), Seed: r.Int()}
		if n := r.List(4 + 1); n >= 0 {
			m.Trees = make([]*ml.DecisionTree, n)
			for i := range m.Trees {
				m.Trees[i] = readTree(r, nfeat)
			}
		}
		return m
	case learnerKNN:
		m := &ml.KNN{K: int(r.Int())}
		if n := r.List(1); n >= 0 {
			m.TrainX = make([][]float64, n)
			for i := range m.TrainX {
				m.TrainX[i] = readFloats(r)
			}
		}
		m.TrainY = readFloats(r)
		return m
	case learnerNB:
		m := &ml.GaussianNB{VarSmoothing: r.Float()}
		m.Mean[0], m.Mean[1], m.Var[0], m.Var[1] = readFloats(r), readFloats(r), readFloats(r), readFloats(r)
		m.Prior[0], m.Prior[1] = r.Float(), r.Float()
		return m
	case learnerSVM:
		m := &ml.LinearSVM{Lambda: r.Float(), MaxIter: int(r.Int()), Tol: r.Float(), Seed: r.Int()}
		m.Weights, m.Bias, m.EpochsRun = readFloats(r), r.Float(), int(r.Int())
		return m
	default:
		r.Fail("unknown learner %d", tag)
	}
	return nil
}

func readTree(r *rec.Reader, nfeat int) *ml.DecisionTree {
	t := &ml.DecisionTree{MaxDepth: int(r.Int()), MinSamplesLeaf: int(r.Int()), MaxFeatures: int(r.Int()), Seed: r.Int()}
	if tag := r.Uvarint(); tag != nodeNone {
		t.Root = readNode(r, tag, 0, nfeat)
	}
	return t
}

// readNode reads the subtree tagged tag, depth splits below the root; nil
// only on an error. No tree is allowed only as a DecisionTree's root, whose
// tag readTree reads.
func readNode(r *rec.Reader, tag uint64, depth, nfeat int) *ml.TreeNode {
	switch {
	case !r.Depth(depth, maxTreeDepth), r.Err() != nil:
		return nil
	case tag == nodeLeaf:
		return &ml.TreeNode{Feature: -1, Value: r.Float()}
	case tag == nodeNone:
		r.Fail("a missing tree or child")
		return nil
	case tag-nodeSplit >= uint64(nfeat):
		r.Fail("split on feature %d of %d", tag-nodeSplit, nfeat)
		return nil
	}
	n := &ml.TreeNode{Feature: int(tag - nodeSplit), Threshold: r.Float(), Value: r.Float()}
	if n.Left = readNode(r, r.Uvarint(), depth+1, nfeat); n.Left != nil {
		n.Right = readNode(r, r.Uvarint(), depth+1, nfeat)
	}
	if n.Right == nil {
		return nil
	}
	return n
}

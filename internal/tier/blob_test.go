package tier

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/ml"
)

// learnerBlobs holds one model of each of the eight learners ops.ModelSpec
// builds and an aggregate, with what a blob must carry exactly: a NaN quality
// with a payload, −0 in weights and training rows, NaN and ±Inf values,
// negative seeds. The ctb2 goldens hold their records, each under its key as
// vertex ID.
func learnerBlobs() map[string]graph.Artifact {
	nan := math.Float64frombits(0x7ff8000000000bad)
	negZero := math.Copysign(0, -1)
	stump := func(f int, thr, lo, hi float64) *ml.TreeNode {
		return &ml.TreeNode{Feature: f, Threshold: thr, Value: (lo + hi) / 2,
			Left: &ml.TreeNode{Feature: -1, Value: lo}, Right: &ml.TreeNode{Feature: -1, Value: hi}}
	}
	model := func(m ml.Model, q float64, features ...string) graph.Artifact {
		return &graph.ModelArtifact{Model: m, Quality: q, Features: features}
	}
	return map[string]graph.Artifact{
		"logreg": model(&ml.LogisticRegression{LearningRate: 0.1, MaxIter: 100, Tol: 1e-6, L2: 0.01, Seed: -3,
			Weights: []float64{0.5, negZero, 1.25}, Bias: -0.75, EpochsRun: 12}, nan, "a", "b", "c"),
		"linreg": model(&ml.LinearRegression{LearningRate: 0.05, MaxIter: 200, Tol: 1e-8, Seed: 4,
			Weights: []float64{negZero, 2}, Bias: math.Inf(1), EpochsRun: 200}, 0.8, "a", "b"),
		"tree": model(&ml.DecisionTree{MaxDepth: 2, MinSamplesLeaf: 2, Seed: 5, Root: &ml.TreeNode{
			Feature: 1, Threshold: 0.5, Value: 0.4,
			Left:  &ml.TreeNode{Feature: -1, Value: -0.0625},
			Right: stump(0, -1, 0.6, nan),
		}}, 0.7, "a", "b"),
		"gbt": model(&ml.GradientBoostedTrees{NTrees: 2, LearningRate: 0.1, MaxDepth: 1, Subsample: 1, Seed: 6,
			Trees: []*ml.TreeNode{stump(0, 1.5, -0.5, 0.5), stump(0, -0.125, -0.25, 0.25)}, Base: -0.2, TreesGrown: 2}, 0.65, "x"),
		"rf": model(&ml.RandomForest{NTrees: 2, MaxDepth: 1, MaxFeatures: 1, Seed: 7, Trees: []*ml.DecisionTree{
			{MaxDepth: 1, MinSamplesLeaf: 2, MaxFeatures: 1, Seed: 1 << 62, Root: stump(1, 0.5, 0, 1)},
			{MaxDepth: 1, MinSamplesLeaf: 2, MaxFeatures: 1, Seed: -1 << 62, Root: stump(0, 2, 1, 0)},
		}}, 0.6, "x", "y"),
		"knn": model(&ml.KNN{K: 3, TrainX: [][]float64{{0, 1}, {1, negZero}, {2, 2}}, TrainY: []float64{0, 1, 1}}, 0.55, "p", "q"),
		"nb": model(&ml.GaussianNB{VarSmoothing: 1e-9, Mean: [2][]float64{{0.1, 0.2}, {0.3, 0.4}},
			Var: [2][]float64{{1, 2}, {3, 4}}, Prior: [2]float64{0.4, 0.6}}, 0.5, "p", "q"),
		"svm": model(&ml.LinearSVM{Lambda: 1e-3, MaxIter: 100, Tol: 1e-6, Seed: 8,
			Weights: []float64{negZero, -1.5}, Bias: 0.25, EpochsRun: 9}, 0.45, "p", "q"),
		"agg": &graph.AggregateArtifact{Value: nan, Text: "auc"},
	}
}

// edgeBlobs holds what the record carries beside learnerBlobs: content gob
// could not tell apart — a −0 quality, empty slices that are not nil — and
// the other shapes of a dataset, a model and a tree.
func edgeBlobs() map[string]graph.Artifact {
	empty, _ := data.NewFrame()
	return map[string]graph.Artifact{
		"no frame":     &graph.DatasetArtifact{},
		"no columns":   &graph.DatasetArtifact{Frame: empty},
		"no model":     &graph.ModelArtifact{Quality: math.Copysign(0, -1)},
		"unfit tree":   &graph.ModelArtifact{Model: ml.NewDecisionTree(1), Features: []string{}},
		"empty lists":  &graph.ModelArtifact{Model: &ml.LogisticRegression{Weights: []float64{}}, Features: []string{""}},
		"empty ens":    &graph.ModelArtifact{Model: &ml.GradientBoostedTrees{Trees: []*ml.TreeNode{}}},
		"empty forest": &graph.ModelArtifact{Model: &ml.RandomForest{Trees: []*ml.DecisionTree{{}}}},
		"empty knn":    &graph.ModelArtifact{Model: &ml.KNN{TrainX: [][]float64{nil, {}}}},
		"empty agg":    &graph.AggregateArtifact{},
	}
}

// equalBits reports whether a and b are deeply equal with every float
// compared by its bits, so a NaN equals itself and −0 differs from +0.
func equalBits(a, b any) bool { return equalValues(reflect.ValueOf(a), reflect.ValueOf(b)) }

// EqualBits is equalBits for the package's external tests.
var EqualBits = equalBits

func equalValues(a, b reflect.Value) bool {
	if a.IsValid() != b.IsValid() || a.IsValid() && a.Type() != b.Type() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return equalValues(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() {
			return false
		}
		fallthrough
	case reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalValues(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalValues(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		// A frame's name index: equal frames of no columns both hold an empty one.
		return a.Len() == 0 && b.Len() == 0 && a.IsNil() == b.IsNil()
	}
	return reflect.DeepEqual(a.Interface(), b.Interface())
}

// TestBlobRecordRoundTrip: every learner, and every shape beside them,
// decodes to its content bit for bit and re-encodes to the same bytes.
func TestBlobRecordRoundTrip(t *testing.T) {
	blobs := learnerBlobs()
	for k, a := range edgeBlobs() {
		blobs[k] = a
	}
	for name, a := range blobs {
		rec, err := AppendBlob(nil, a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := DecodeBlob(rec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !equalBits(got, a) {
			t.Errorf("%s decoded as %+v", name, got)
		}
		if re, err := AppendBlob([]byte{1, 2}, got); err != nil || !bytes.Equal(re[2:], rec) || re[0] != 1 {
			t.Errorf("%s re-encoded differently (%v)", name, err)
		}
	}
	if equalBits(blobs["no frame"], blobs["no columns"]) || equalBits(blobs["empty lists"], &graph.ModelArtifact{Model: &ml.LogisticRegression{}}) {
		t.Error("equalBits does not tell a nil frame or slice from an empty one")
	}
}

// TestBlobRecordIsSmallerThanItsFields is the size the layout promises: a
// logistic regression over three features is its eight floats (quality,
// three parameters, three weights, the bias), three ints of a varint each,
// three names and four bytes of tags and list lengths.
func TestBlobRecordIsSmallerThanItsFields(t *testing.T) {
	rec, err := AppendBlob(nil, learnerBlobs()["logreg"])
	if err != nil {
		t.Fatal(err)
	}
	// kind, quality, 3 features of 1+1, learner, lr, maxIter (200 zigzagged
	// takes 2 bytes), tol, l2, seed, 3 weights, bias, epochs.
	if want := 1 + 8 + 1 + 3*2 + 1 + 8 + 2 + 8 + 8 + 1 + 1 + 3*8 + 8 + 1; len(rec) != want {
		t.Errorf("logreg record of %d bytes, want %d", len(rec), want)
	}
}

// TestBlobRecordRefusesHostileInput: what a decoder must refuse because it
// would fail where the record is used, and content the encoder cannot write.
func TestBlobRecordRefusesHostileInput(t *testing.T) {
	enc := func(a graph.Artifact) []byte {
		rec, err := AppendBlob(nil, a)
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	tree := learnerBlobs()["tree"]
	rec := enc(tree)
	// The tree splits on feature 1 of ["a", "b"]; name one feature only.
	oneFeature := enc(&graph.ModelArtifact{Quality: tree.(*graph.ModelArtifact).Quality, Features: []string{"a"}})
	wrongFeature := append(oneFeature[:len(oneFeature)-1:len(oneFeature)-1], rec[1+8+1+2*2:]...)

	deep := &ml.TreeNode{Feature: -1}
	for i := 0; i <= maxTreeDepth; i++ {
		deep = &ml.TreeNode{Feature: 0, Left: deep, Right: &ml.TreeNode{Feature: -1}}
	}
	deepModel := &graph.ModelArtifact{Model: &ml.DecisionTree{Root: deep}, Features: []string{"x"}}
	if _, err := AppendBlob(nil, deepModel); err == nil {
		t.Error("a tree deeper than the bound encoded")
	}
	deep.Left = deep.Left.Left // now exactly maxTreeDepth splits deep
	deepRec := enc(deepModel)

	hugeList := []byte{byte(graph.ModelKind)}
	hugeList = binary.LittleEndian.AppendUint64(hugeList, 0)
	hugeList = append(hugeList, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)

	for name, b := range map[string][]byte{
		"a split on a feature the model lacks": wrongFeature,
		"a list longer than the bytes left":    hugeList,
		"a byte after the record":              append(clone(rec), 0),
		"a truncated record":                   rec[:len(rec)-1],
		"a varint longer than its shortest":    append([]byte{byte(graph.AggregateKind)}, append(make([]byte, 8), 0x80, 0x00)...),
		"an unknown kind":                      {byte(graph.SupernodeKind)},
		"an unknown learner":                   append(clone(enc(&graph.ModelArtifact{}))[:1+8+1], 9),
		"an unknown dataset form":              {byte(graph.DatasetKind), 2},
		"nothing":                              {},
	} {
		if a, err := DecodeBlob(b); !errors.Is(err, ErrCorrupt) || a != nil {
			t.Errorf("%s: decoded %v (%v)", name, a, err)
		}
	}
	var a graph.Artifact
	if allocs := testing.AllocsPerRun(10, func() { a, _ = DecodeBlob(hugeList) }); allocs > 5 || a != nil { // the error it returns
		t.Errorf("refusing a list of 2^63 features allocated %v times", allocs)
	}

	// One split more than the bound, written by hand: the decoder refuses it.
	chain := []byte{byte(graph.ModelKind)}
	chain = binary.LittleEndian.AppendUint64(chain, 0)
	chain = append(chain, 2, 1, 'x', learnerTree, 0, 0, 0, 0)
	for i := 0; i <= maxTreeDepth+1; i++ {
		chain = append(chain, nodeSplit)
		chain = append(chain, make([]byte, 16)...)
	}
	if _, err := DecodeBlob(chain); err == nil || !strings.Contains(err.Error(), "deeper") {
		t.Errorf("a chain of %d splits: %v", maxTreeDepth+2, err)
	}
	if _, err := DecodeBlob(deepRec); err != nil {
		t.Errorf("a tree of %d splits: %v", maxTreeDepth, err)
	}

	for name, a := range map[string]graph.Artifact{
		"a leaf with a threshold": &graph.ModelArtifact{Model: &ml.DecisionTree{Root: &ml.TreeNode{Feature: -1, Threshold: 1}}},
		"a split with one child": &graph.ModelArtifact{Model: &ml.DecisionTree{Root: &ml.TreeNode{Feature: 0, Left: &ml.TreeNode{Feature: -1}}},
			Features: []string{"x"}},
		"a split on a feature not listed": &graph.ModelArtifact{Model: &ml.GradientBoostedTrees{Trees: []*ml.TreeNode{
			{Feature: 1, Left: &ml.TreeNode{Feature: -1}, Right: &ml.TreeNode{Feature: -1}}}}, Features: []string{"x"}},
		"a nil ensemble tree":    &graph.ModelArtifact{Model: &ml.GradientBoostedTrees{Trees: []*ml.TreeNode{nil}}},
		"a nil forest tree":      &graph.ModelArtifact{Model: &ml.RandomForest{Trees: []*ml.DecisionTree{nil}}},
		"a model with no record": &graph.ModelArtifact{Model: &otherModel{}},
		"a dataset with columns": &graph.DatasetArtifact{Frame: data.MustNewFrame(data.NewFloatColumn("x", []float64{1}))},
		"nothing":                nil,
	} {
		if _, err := AppendBlob(nil, a); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// otherModel is a learner the record does not list.
type otherModel struct{ ml.LogisticRegression }

func clone(b []byte) []byte { return append([]byte(nil), b...) }

// FuzzModelRecord throws arbitrary bytes at DecodeBlob. It must never panic,
// and what it accepts it must re-encode to exactly the input bytes; so must
// a record of any of the seeds' content.
func FuzzModelRecord(f *testing.F) {
	for _, set := range []map[string]graph.Artifact{learnerBlobs(), edgeBlobs()} {
		for _, a := range set {
			rec, err := AppendBlob(nil, a)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(rec)
			f.Add(rec[:len(rec)/2])
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := DecodeBlob(b)
		if err != nil {
			if a != nil {
				t.Fatal("decode returned both content and an error")
			}
			return
		}
		re, err := AppendBlob(nil, a)
		if err != nil {
			t.Fatalf("decoded content failed to encode: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("non-canonical accept: %d bytes in, %d out", len(b), len(re))
		}
	})
}
